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

Rule choice: the non-branching classical rules come first, then R1, R2,
R5A/R5B, R4, and last the branching rules (classical, R3, R6); within a
class the earliest formula on the branch wins, and the R6 pair form is
tried only when every class is exhausted.  Each branch keeps one cursor
per class, which moves only past formulas that can never fire for that
class again, so no step rescans the branch.  A one-successor step extends
its branch in place; only a branching step copies it.
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
    """Ordered set of formulas with one-shot rule bookkeeping.

    negated holds A for each member ~A, so that add finds a pair A, ~A
    without building a node.  cursors[k] is the position before which no
    formula can fire for priority class k + 2 of _select.
    """

    __slots__ = ("formulas", "members", "negated", "consumed", "closed",
                 "cursors")

    def __init__(self, formulas: Iterable[Formula] = (),
                 consumed: Optional[set] = None):
        self.formulas: list[Formula] = []
        self.members: set[Formula] = set()
        self.negated: set[Formula] = set()
        self.consumed: set[tuple[str, Formula]] = set(consumed or ())
        self.closed = False
        self.cursors = [0] * 6  # priority classes 2-7 of _select
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

    @property
    def contradiction_flag(self) -> bool:
        return Bottom() in self.members

    def is_closed(self) -> bool:
        return self.closed

    def extend(self, added: Iterable[Formula],
               consumed_key: tuple[str, Formula]) -> "Branch":
        """Apply a rule in place: mark it consumed and add its successor."""
        self.consumed.add(consumed_key)
        for f in added:
            self.add(f)
        return self

    def child(self, added: Iterable[Formula],
              consumed_key: tuple[str, Formula]) -> "Branch":
        new = Branch.__new__(Branch)
        new.formulas = list(self.formulas)
        new.members = set(self.members)
        new.negated = set(self.negated)
        new.consumed = set(self.consumed)
        new.closed = self.closed
        new.cursors = list(self.cursors)
        return new.extend(added, consumed_key)

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
        doc = {"formula": render(self.formula) if self.formula else None,
               "rule": self.rule,
               "children": [c.to_json() for c in self.children]}
        if not self.children:
            doc["closed"] = self.closed
        return doc


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

        def walk(node: Node, indent: int):
            pad = "  " * indent
            label = render(node.formula) if node.formula else "-"
            lines.append(f"{pad}{label}  [{node.rule}]")
            if not node.children:
                lines.append(f"{pad}{'x' if node.closed else 'o'}")
            branch_indent = indent + (1 if len(node.children) > 1 else 0)
            for child in node.children:
                walk(child, branch_indent)

        walk(self.tree, 0)
        return "\n".join(lines)

    def __str__(self):
        return self.to_text()


# ---------------------------------------------------------------------------
# rule selection

@dataclass
class _Application:
    rule: str
    consumed: Formula
    key: tuple[str, Formula]
    successors: list[list[Formula]]


class _Context:
    def __init__(self, budget: int):
        if budget < 1:
            raise ValueError(f"node budget must be at least 1, got {budget}")
        self.budget = budget
        self.used = 0
        self.memo: dict[Formula, bool] = {}
        self.open_branch: Optional[Branch] = None

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.budget:
            raise BudgetExceeded(f"node budget of {self.budget} exceeded")


def _is_valid_nested(f: Formula, ctx: _Context) -> bool:
    if f not in ctx.memo:
        ctx.memo[f] = _refutes([Not(f)], ctx)
    return ctx.memo[f]


def _alpha(f: Formula):
    """Non-branching classical decompositions (biconditionals handled
    separately because of R6)."""
    if isinstance(f, And):
        return "and", [f.left, f.right]
    if isinstance(f, Not):
        g = f.child
        if isinstance(g, Or):
            return "not-or", [Not(g.left), Not(g.right)]
        if isinstance(g, Implies):
            return "not-implies", [g.left, Not(g.right)]
        if isinstance(g, Not):
            return "not-not", [g.child]
        if isinstance(g, Top):
            return "not-top", [Bottom()]
    return None


def _beta(f: Formula):
    if isinstance(f, Or):
        return "or", [[f.left], [f.right]]
    if isinstance(f, Not):
        g = f.child
        if isinstance(g, And):
            return "not-and", [[Not(g.left)], [Not(g.right)]]
        if isinstance(g, Iff):
            return "not-iff", [[Not(Implies(g.left, g.right))],
                               [Not(Implies(g.right, g.left))]]
    if isinstance(f, Implies):
        return "implies", [[Not(f.left)], [f.right]]
    return None


def _nabla_arguments(branch: Branch) -> list[Formula]:
    """Arguments of #-formulas on the branch, positive or negated, in
    first-appearance order."""
    args: list[Formula] = []
    for f in branch.formulas:
        g = None
        if isinstance(f, Nabla):
            g = f.child
        elif isinstance(f, Not) and isinstance(f.child, Nabla):
            g = f.child.child
        if g is not None and g not in args:
            args.append(g)
    return args


def _select(branch: Branch, ctx: _Context) -> Optional[_Application]:
    fs = branch.formulas
    end = len(fs)
    consumed = branch.consumed
    cursors = branch.cursors
    # Each loop starts at its class's cursor and leaves it on the formula
    # that fires, or at the end.  A formula passed over is of the wrong
    # shape, consumed, or a biconditional whose memoised validity rules it
    # out, and stays so on this branch and its descendants.

    # priority 2: non-branching classical rules
    for i in range(cursors[0], end):
        f = fs[i]
        if ("alpha", f) in consumed:
            continue
        if isinstance(f, Iff):
            # the branching R6 takes over when the biconditional is valid
            if not _is_valid_nested(f, ctx):
                cursors[0] = i
                return _Application("iff", f, ("alpha", f),
                                    [[Implies(f.left, f.right),
                                      Implies(f.right, f.left)]])
            continue
        hit = _alpha(f)
        if hit:
            cursors[0] = i
            rule, added = hit
            return _Application(rule, f, ("alpha", f), [added])
    cursors[0] = end

    # priority 3: R1
    for i in range(cursors[1], end):
        f = fs[i]
        if isinstance(f, Nabla) and ("R1", f) not in consumed:
            cursors[1] = i
            return _Application("R1", f, ("R1", f), [[f.child]])
    cursors[1] = end

    # priority 4: R2 validity test on any untested ~#A
    for i in range(cursors[2], end):
        f = fs[i]
        if isinstance(f, Not) and isinstance(f.child, Nabla) \
                and ("R2", f) not in consumed:
            cursors[2] = i
            if _is_valid_nested(f.child.child, ctx):
                return _Application("R2", f, ("R2", f), [[Bottom()]])
            return _Application("R2-fail", f, ("R2", f), [[]])
    cursors[2] = end

    # priority 5: R5A / R5B rewrites (only after the R2 test failed)
    for i in range(cursors[3], end):
        f = fs[i]
        if isinstance(f, Not) and isinstance(f.child, Nabla):
            g = f.child.child
            if isinstance(g, Implies) and ("R5A", f) not in consumed:
                cursors[3] = i
                return _Application(
                    "R5A", f, ("R5A", f),
                    [[Not(Nabla(Or(Not(g.left), g.right)))]])
            if isinstance(g, Iff) and ("R5B", f) not in consumed:
                cursors[3] = i
                return _Application(
                    "R5B", f, ("R5B", f),
                    [[Not(Nabla(And(Implies(g.left, g.right),
                                    Implies(g.right, g.left))))]])
    cursors[3] = end

    # priority 6: R4
    for i in range(cursors[4], end):
        f = fs[i]
        if isinstance(f, Not) and isinstance(f.child, Nabla) \
                and isinstance(f.child.child, Or) and ("R4", f) not in consumed:
            cursors[4] = i
            g = f.child.child
            return _Application("R4", f, ("R4", f),
                                [[Not(Nabla(g.left)), Not(Nabla(g.right))]])
    cursors[4] = end

    # priority 7: branching rules
    for i in range(cursors[5], end):
        f = fs[i]
        hit = ("beta", f) not in consumed and _beta(f)
        if hit:
            cursors[5] = i
            rule, successors = hit
            return _Application(rule, f, ("beta", f), successors)
        if isinstance(f, Not) and isinstance(f.child, Nabla) \
                and isinstance(f.child.child, And) and ("R3", f) not in consumed:
            cursors[5] = i
            g = f.child.child
            return _Application("R3", f, ("R3", f),
                                [[Not(Nabla(g.left))], [Not(Nabla(g.right))]])
        if isinstance(f, Iff) and ("R6", f) not in consumed \
                and _is_valid_nested(f, ctx):
            cursors[5] = i
            return _Application(
                "R6", f, ("R6", f),
                [[And(Nabla(f.left), Nabla(f.right))],
                 [And(Not(Nabla(f.left)), Not(Nabla(f.right)))]])
    cursors[5] = end

    # R6 paired form: a valid biconditional between two #-arguments already
    # on the branch licenses the same split even when the biconditional
    # itself is not a branch member.  Needed to close the tableaux the
    # biconditional transfer rule of the Hilbert system certifies.
    args = _nabla_arguments(branch)
    for i, a in enumerate(args):
        for b in args[i + 1:]:
            link = Iff(a, b)
            if ("R6P", link) in consumed:
                continue
            if _is_valid_nested(link, ctx):
                return _Application(
                    "R6P", link, ("R6P", link),
                    [[And(Nabla(a), Nabla(b))],
                     [And(Not(Nabla(a)), Not(Nabla(b)))]])
    return None


# ---------------------------------------------------------------------------
# search

def _refutes(formulas: list[Formula], ctx: _Context) -> bool:
    """True iff the tableau for the given formulas closes (no tree kept)."""
    branch = Branch()
    for f in formulas:
        ctx.charge()
        branch.add(f)
    return _develop(branch, None, ctx, record_open=False)


def _develop(branch: Branch, leaf: Optional[Node], ctx: _Context,
             record_open: bool) -> bool:
    while True:
        if branch.is_closed():
            if leaf is not None:
                leaf.closed = True
            return True
        app = _select(branch, ctx)
        if app is None:
            if record_open and ctx.open_branch is None:
                ctx.open_branch = branch
            return False
        if len(app.successors) == 1:
            added = app.successors[0]
            branch.extend(added, app.key)
            if leaf is not None and added:
                for f in added:
                    ctx.charge()
                    child = Node(f, app.rule)
                    leaf.children.append(child)
                    leaf = child
            else:
                ctx.charge(len(added))
            continue
        all_closed = True
        for added in app.successors:
            sub = branch.child(added, app.key)
            sub_leaf = leaf
            if leaf is not None:
                attach = leaf
                for f in added:
                    ctx.charge()
                    child = Node(f, app.rule)
                    attach.children.append(child)
                    attach = child
                sub_leaf = attach
            else:
                ctx.charge(len(added))
            if not _develop(sub, sub_leaf, ctx, record_open):
                all_closed = False
                break  # leftmost open branch is the certificate
        return all_closed


def prove(premises: Iterable[Formula], goal: Formula,
          budget: int = DEFAULT_BUDGET) -> ProveResult:
    """Build the tableau for the premises plus the negated goal.

    "closed" certifies the entailment; "open" carries one fully saturated
    open branch.  Exhausting the node budget raises BudgetExceeded; a
    budget below 1 raises ValueError.
    """
    ctx = _Context(budget)
    premises = list(premises)
    init = premises + [Not(goal)]
    rules = ["premise"] * len(premises) + ["negated-goal"]
    nodes = [Node(f, r) for f, r in zip(init, rules)]
    for parent, child in zip(nodes, nodes[1:]):
        parent.children.append(child)
    branch = Branch()
    for f in init:
        ctx.charge()
        branch.add(f)
    closed = _develop(branch, nodes[-1], ctx, record_open=True)
    if closed:
        return ProveResult("closed", nodes[0])
    open_formulas = list(ctx.open_branch.formulas) if ctx.open_branch else None
    return ProveResult("open", nodes[0], open_formulas)


def is_valid(f: Formula, budget: int = DEFAULT_BUDGET) -> bool:
    """Tableau validity: the tableau for the negation closes."""
    return prove([], f, budget=budget).verdict == "closed"


def expand_step(branch: Branch, budget: int = DEFAULT_BUDGET) -> list[Branch]:
    """Apply one rule to the highest-priority unconsumed formula and return
    the successor branches.  The branch must be open and unsaturated."""
    if branch.is_closed():
        raise ValueError("branch is closed")
    ctx = _Context(budget)
    app = _select(branch, ctx)
    if app is None:
        raise ValueError("branch is saturated")
    return [branch.child(added, app.key) for added in app.successors]


def saturate(branch: Branch, budget: int = DEFAULT_BUDGET) -> Branch:
    """Fixpoint of expansion along one branch (leftmost successor on
    branching rules); stops early on closure."""
    ctx = _Context(budget)
    while not branch.is_closed():
        app = _select(branch, ctx)
        if app is None:
            break
        ctx.charge(len(app.successors[0]))
        branch = branch.child(app.successors[0], app.key)
    return branch


def result_to_json_text(result: ProveResult) -> str:
    return json.dumps(result.to_json(), indent=2, sort_keys=True)
