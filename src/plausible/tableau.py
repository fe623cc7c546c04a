"""Tableau calculus for the plausibility logic.

Classical expansion rules plus the operator rules:

  R1   from #A, add A
  R2   from ~#A, test A for validity; if valid, derive falsum
  R3   from ~#(A & B) (R2 test failed), branch on ~#A | ~#B
  R4   from ~#(A | B) (R2 test failed), add ~#A and ~#B
  R5A  from ~#(A -> B), rewrite to ~#(~A | B)
  R5B  from ~#(A <-> B), rewrite to ~#((A -> B) & (B -> A))
  R6   from a valid biconditional A <-> B on the branch, branch on
       (#A & #B) | (~#A & ~#B); also fired for any pair of #-arguments
       already on the branch whose biconditional is valid (see R6P below)

A branch closes on falsum or on a syntactic pair A, ~A.  Saturation
terminates because every rule is applied at most once per formula per
branch and all derived formulas live in a finite closure of the inputs.

Rule choice: ``_RULES`` lists six rule classes in priority order: the
non-branching classical rules, R1, R2, R5A/R5B, R4, and the branching
rules (classical, R3 and R6).  A step fires the first class that applies,
on the earliest formula it applies to.  Within a class the rule shapes
exclude each other, and a formula the class passes over never fires for
it later on the branch.  So each formula fires at most once per class, and
the only record kept is one cursor per class and branch, moved past each
formula the class has passed over or fired on; no step rescans the
branch.  The R6 pair form (R6P) splits on biconditionals that need not be
branch members; it is tried last and keeps the set of links it has used.
A one-successor step extends its branch in place; only a branching step
copies it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .formula import (And, Bottom, Formula, Iff, Implies, Nabla, Not, Or,
                      Top, render)

DEFAULT_BUDGET = 100_000


class BudgetExceeded(RuntimeError):
    """Raised when the node budget runs out; never reported as an open
    tableau."""


# ---------------------------------------------------------------------------
# branches

class Branch:
    """Ordered set of formulas with the state of rule selection.

    negated holds A for each member ~A, so that add finds a pair A, ~A
    without building a node.  cursors[k] is the position before which no
    formula can fire for the rule class _RULES[k]; links holds the
    biconditionals the R6 pair form has split on.
    """

    __slots__ = ("formulas", "members", "negated", "closed", "cursors",
                 "links")

    def __init__(self, formulas: Iterable[Formula] = ()):
        self.formulas: list[Formula] = []
        self.members: set[Formula] = set()
        self.negated: set[Formula] = set()
        self.closed = False
        self.cursors = [0] * len(_RULES)
        self.links: set[Formula] = set()
        for f in formulas:
            self.add(f)

    def add(self, f: Formula) -> None:
        if f not in self.members:
            self.formulas.append(f)
            self.members.add(f)
            if isinstance(f, Not):
                self.negated.add(f.child)
            if isinstance(f, Bottom) or f in self.negated \
                    or (isinstance(f, Not) and f.child in self.members):
                self.closed = True

    def copy(self) -> "Branch":
        new = Branch.__new__(Branch)
        new.formulas = list(self.formulas)
        new.members = set(self.members)
        new.negated = set(self.negated)
        new.closed = self.closed
        new.cursors = list(self.cursors)
        new.links = set(self.links)
        return new

    def __repr__(self):
        return "Branch(" + ", ".join(render(f) for f in self.formulas) + ")"


# ---------------------------------------------------------------------------
# proof trees

@dataclass
class Node:
    formula: Optional[Formula]
    rule: str
    children: list["Node"] = field(default_factory=list)
    closed: bool = False

    def to_json(self) -> dict:
        """The tree below this node as nested dicts.  Built with an
        explicit stack: a tree is as deep as its longest branch."""
        root: dict = {}
        stack = [(self, root)]
        while stack:
            node, doc = stack.pop()
            doc["formula"] = render(node.formula) if node.formula else None
            doc["rule"] = node.rule
            doc["children"] = [{} for _ in node.children]
            if not node.children:
                doc["closed"] = node.closed
            stack += zip(node.children, doc["children"])
        return root


@dataclass
class ProveResult:
    verdict: str                      # "closed" | "open"
    tree: Node
    open_branch: Optional[list[Formula]] = None

    def to_json(self) -> dict:
        doc = {"verdict": self.verdict, "tree": self.tree.to_json()}
        if self.open_branch is not None:
            doc["open_branch"] = [render(f) for f in self.open_branch]
        return doc

    def to_text(self) -> str:
        lines: list[str] = []
        stack = [(self.tree, 0)]  # the first child pops first
        while stack:
            node, indent = stack.pop()
            pad = "  " * indent
            label = render(node.formula) if node.formula else "-"
            lines.append(f"{pad}{label}  [{node.rule}]")
            if not node.children:
                lines.append(f"{pad}{'x' if node.closed else 'o'}")
            branch_indent = indent + (1 if len(node.children) > 1 else 0)
            stack += ((child, branch_indent)
                      for child in reversed(node.children))
        return "\n".join(lines)

    def __str__(self):
        return self.to_text()


# ---------------------------------------------------------------------------
# rule selection

class _Context:
    def __init__(self, budget: int):
        if budget < 1:
            raise ValueError(f"node budget must be at least 1, got {budget}")
        self.budget = budget
        self.used = 0
        self.memo: dict[Formula, bool] = {}

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.budget:
            raise BudgetExceeded(f"node budget of {self.budget} exceeded")


def _is_valid_nested(f: Formula, ctx: _Context) -> bool:
    """Memoised validity: the tableau for ~f closes (no tree kept)."""
    if f not in ctx.memo:
        ctx.charge()
        ctx.memo[f] = _develop(Branch([Not(f)]), None, ctx) is None
    return ctx.memo[f]


def _denied(f: Formula) -> Optional[Formula]:
    """A for a formula ~#A, else None."""
    if isinstance(f, Not) and isinstance(f.child, Nabla):
        return f.child.child
    return None


def _split(a: Formula, b: Formula) -> list[list[Formula]]:
    """The two successors of R6 on A <-> B."""
    return [[And(Nabla(a), Nabla(b))], [And(Not(Nabla(a)), Not(Nabla(b)))]]


# Each rule class maps a formula to (rule, successors) when it fires on it,
# else to None; successors lists the formulas each successor branch adds.

def _alpha(f: Formula, ctx: _Context):
    if isinstance(f, And):
        return "and", [[f.left, f.right]]
    if isinstance(f, Iff):
        # the branching R6 takes over when the biconditional is valid
        if not _is_valid_nested(f, ctx):
            return "iff", [[Implies(f.left, f.right),
                            Implies(f.right, f.left)]]
        return None
    if isinstance(f, Not):
        g = f.child
        if isinstance(g, Or):
            return "not-or", [[Not(g.left), Not(g.right)]]
        if isinstance(g, Implies):
            return "not-implies", [[g.left, Not(g.right)]]
        if isinstance(g, Not):
            return "not-not", [[g.child]]
        if isinstance(g, Top):
            return "not-top", [[Bottom()]]
    return None


def _r1(f: Formula, ctx: _Context):
    if isinstance(f, Nabla):
        return "R1", [[f.child]]
    return None


def _r2(f: Formula, ctx: _Context):
    g = _denied(f)
    if g is not None and _is_valid_nested(g, ctx):
        return "R2", [[Bottom()]]
    return None


def _r5(f: Formula, ctx: _Context):
    # reached only once the R2 test of every ~#A on the branch failed
    g = _denied(f)
    if isinstance(g, Implies):
        return "R5A", [[Not(Nabla(Or(Not(g.left), g.right)))]]
    if isinstance(g, Iff):
        return "R5B", [[Not(Nabla(And(Implies(g.left, g.right),
                                      Implies(g.right, g.left))))]]
    return None


def _r4(f: Formula, ctx: _Context):
    g = _denied(f)
    if isinstance(g, Or):
        return "R4", [[Not(Nabla(g.left)), Not(Nabla(g.right))]]
    return None


def _branching(f: Formula, ctx: _Context):
    if isinstance(f, Or):
        return "or", [[f.left], [f.right]]
    if isinstance(f, Implies):
        return "implies", [[Not(f.left)], [f.right]]
    if isinstance(f, Iff):
        if _is_valid_nested(f, ctx):
            return "R6", _split(f.left, f.right)
        return None
    if isinstance(f, Not):
        g = f.child
        if isinstance(g, And):
            return "not-and", [[Not(g.left)], [Not(g.right)]]
        if isinstance(g, Iff):
            return "not-iff", [[Not(Implies(g.left, g.right))],
                               [Not(Implies(g.right, g.left))]]
        if isinstance(g, Nabla) and isinstance(g.child, And):
            return "R3", [[Not(Nabla(g.child.left))],
                          [Not(Nabla(g.child.right))]]
    return None


_RULES = (_alpha, _r1, _r2, _r5, _r4, _branching)


def _nabla_arguments(formulas: list[Formula]) -> list[Formula]:
    """Arguments of #-formulas, positive or negated, in first-appearance
    order."""
    args: list[Formula] = []
    for f in formulas:
        g = f.child if isinstance(f, Nabla) else _denied(f)
        if g is not None and g not in args:
            args.append(g)
    return args


def _select(branch: Branch, ctx: _Context):
    fs = branch.formulas
    end = len(fs)
    cursors = branch.cursors
    for k, rule in enumerate(_RULES):
        for i in range(cursors[k], end):
            hit = rule(fs[i], ctx)
            if hit is not None:
                cursors[k] = i + 1
                return hit
        cursors[k] = end

    # R6 paired form: a valid biconditional between two #-arguments already
    # on the branch licenses the same split even when the biconditional
    # itself is not a branch member.  Needed to close the tableaux the
    # biconditional transfer rule of the Hilbert system certifies.
    args = _nabla_arguments(fs)
    for i, a in enumerate(args):
        for b in args[i + 1:]:
            link = Iff(a, b)
            if link not in branch.links and _is_valid_nested(link, ctx):
                branch.links.add(link)
                return "R6P", _split(a, b)
    return None


# ---------------------------------------------------------------------------
# search

def _grow(branch: Branch, leaf: Optional[Node], rule: str,
          added: list[Formula], ctx: _Context) -> Optional[Node]:
    """Add one successor's formulas to the branch, one charged node each,
    chained under leaf when a tree is kept; returns the new leaf."""
    ctx.charge(len(added))
    for f in added:
        branch.add(f)
        if leaf is not None:
            node = Node(f, rule)
            leaf.children.append(node)
            leaf = node
    return leaf


def _develop(branch: Branch, leaf: Optional[Node],
             ctx: _Context) -> Optional[Branch]:
    """Expand the branch until no rule fires, growing the tree under leaf
    unless it is None.  Returns the leftmost branch that stays open, or
    None when all close."""
    while not branch.closed:
        hit = _select(branch, ctx)
        if hit is None:
            return branch
        rule, successors = hit
        if len(successors) == 1:
            leaf = _grow(branch, leaf, rule, successors[0], ctx)
            continue
        # one stack frame per level of branching; all() over a generator
        # would add frames per level and cut the depth prove handles
        for added in successors:
            sub = branch.copy()
            found = _develop(sub, _grow(sub, leaf, rule, added, ctx), ctx)
            if found is not None:
                return found  # leftmost open branch is the certificate
        return None
    if leaf is not None:
        leaf.closed = True
    return None


def prove(premises: Iterable[Formula], goal: Formula,
          budget: int = DEFAULT_BUDGET) -> ProveResult:
    """Build the tableau for the premises plus the negated goal.

    "closed" certifies the entailment; "open" carries one open branch on
    which no rule adds anything.  Exhausting the node budget raises
    BudgetExceeded; a budget below 1 raises ValueError.
    """
    ctx = _Context(budget)
    branch = Branch()
    root = Node(None, "")
    leaf = _grow(branch, root, "premise", list(premises), ctx)
    leaf = _grow(branch, leaf, "negated-goal", [Not(goal)], ctx)
    found = _develop(branch, leaf, ctx)
    if found is None:
        return ProveResult("closed", root.children[0])
    return ProveResult("open", root.children[0], found.formulas)


def is_valid(f: Formula, budget: int = DEFAULT_BUDGET) -> bool:
    """Tableau validity: the tableau for the negation closes."""
    return prove([], f, budget=budget).verdict == "closed"


def result_to_json_text(result: ProveResult) -> str:
    """``json.dumps(result.to_json(), indent=2, sort_keys=True)``, written
    with an explicit stack: ``json`` takes frames per level of nesting,
    and a tree is as deep as its longest branch."""
    out = []
    stack: list = [(result.to_json(), "\n")]  # text, or (value, indent)
    while stack:
        top = stack.pop()
        if isinstance(top, str):
            out.append(top)
            continue
        value, pad = top
        if not value or not isinstance(value, (dict, list)):
            out.append(json.dumps(value))
            continue
        if isinstance(value, dict):
            brackets, items = "{}", [(json.dumps(key) + ": ", value[key])
                                     for key in sorted(value)]
        else:
            brackets, items = "[]", [("", item) for item in value]
        out.append(brackets[0])
        stack.append(pad + brackets[1])
        inner = pad + "  "
        for i, (key, item) in reversed(list(enumerate(items))):
            stack += [(item, inner), ("," if i else "") + inner + key]
    return "".join(out)
