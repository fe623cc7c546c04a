"""Tableau calculus for the plausibility logic.

Classical expansion rules plus the operator rules:

  R1   from #A, add A
  R2   from ~#A, test A for validity; if valid, derive falsum
  R3   from ~#(A & B) (R2 test failed), branch on ~#A | ~#B
  R4   from ~#(A | B) (R2 test failed), add ~#A and ~#B
  R5A  from ~#(A -> B), rewrite to ~#(~A | B)
  R5B  from ~#(A <-> B), rewrite to ~#((A -> B) & (B -> A))
  R6   from a valid biconditional A <-> B on the branch, branch on
       #A, #B | ~#A, ~#B in place of the iff rule; also fired for any
       pair of #-arguments already on the branch whose biconditional is
       valid (see R6P below)

The classical rules are the textbook ones (Fitting, First-Order Logic and
Automated Theorem Proving, 1996): and, not-or, not-implies, not-not and
not-top add formulas; or, implies and not-and branch; iff branches on
A, B | ~A, ~B, and not-iff on A, ~B | B, ~A.  Each successor adds its
formulas themselves, never a compound (a negated implication, a
conjunction) that the next step would take apart.

A branch closes on falsum or on a syntactic pair A, ~A.  Saturation
terminates because every rule is applied at most once per formula per
branch and all derived formulas live in a finite closure of the inputs.

Rule choice: five rule classes in priority order, the non-branching
rules (classical, and R1), R2, R5A/R5B, R4, and the branching rules
(classical, R3 and R6).  A step fires the first class that applies, on
the earliest formula it applies to.  The classes that can fire on a
formula depend on its shape alone: its connective, then the one under a
~, then the one under a ~#.  ``Branch.add`` looks each new formula up
once in the table ``_SHAPES`` and queues it, with the handler the table
gives, for each of those classes.  Only R2's handler can return None,
having done nothing but its nested validity test; the iff handler makes
one test and fires R6 or the iff rule.  So the handlers make the same
calls, in the same order, with the same charges, as trying every class
on every formula: only the calls that could do nothing are gone.
Within a class the shapes exclude each other, and a formula the class
passes over never fires for it later on the branch.  So each class keeps
one cursor into its queue, moved past each formula it has passed over or
fired on; no step rescans the branch.  The R6 pair form (R6P) splits on
biconditionals that need not be branch members, between the #-arguments
the branch lists in order of appearance; it is tried last and keeps the
set of links it has used.  One loop develops every branch, the
successors still to grow waiting on a stack; a step with n successors
copies its branch n - 1 times.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .formula import (And, Bottom, Formula, Iff, Implies, Nabla, Not, Or,
                      Top, render)
from .pseudotopology import _is_int

DEFAULT_BUDGET = 100_000


class BudgetExceeded(RuntimeError):
    """Raised when the node budget runs out; never reported as an open
    tableau."""


# ---------------------------------------------------------------------------
# branches

class Branch:
    """Ordered set of formulas with the state of rule selection.

    negated holds A for each member ~A, so that add finds a pair A, ~A
    without building a node.  queues[k] lists, in branch order, a
    (node, handler) pair for each member the rule class k can fire on,
    and cursors[k] is the position in it before which nothing can fire.
    arguments lists A for each member #A or ~#A, and links holds the
    biconditionals the R6 pair form has split on.
    """

    __slots__ = ("formulas", "members", "negated", "closed", "queues",
                 "cursors", "arguments", "links")

    def __init__(self, formulas: Iterable[Formula] = ()):
        self.formulas: list[Formula] = []
        self.members: set[Formula] = set()
        self.negated: set[Formula] = set()
        self.closed = False
        self.queues: list[list] = [[] for _ in range(_CLASSES)]
        self.cursors = [0] * _CLASSES
        self.arguments: list[Formula] = []
        self.links: set[Formula] = set()
        for f in formulas:
            self.add(f)

    def add(self, f: Formula) -> None:
        if f in self.members:
            return
        self.formulas.append(f)
        self.members.add(f)
        if f in self.negated or type(f) is Bottom:
            self.closed = True
        # node is what the handlers of the shape read
        node, shape, unlisted = f, type(f), ()
        if shape is Not:
            node = f.child
            self.negated.add(node)
            if node in self.members:
                self.closed = True
            shape = (Not, type(node))
            if shape[1] is Nabla:
                node = node.child
                # A comes twice only if #A and ~#A close the branch
                self.arguments.append(node)
                shape, unlisted = (Not, Nabla, type(node)), _R2_ONLY
        elif shape is Nabla:
            self.arguments.append(node.child)
        for k, handler in _SHAPES.get(shape, unlisted):
            self.queues[k].append((node, handler))

    def copy(self) -> "Branch":
        new = Branch.__new__(Branch)
        new.formulas = list(self.formulas)
        new.members = set(self.members)
        new.negated = set(self.negated)
        new.closed = self.closed
        new.queues = [list(queue) for queue in self.queues]
        new.cursors = list(self.cursors)
        new.arguments = list(self.arguments)
        new.links = set(self.links)
        return new

    def __repr__(self):
        return "Branch(" + ", ".join(render(f) for f in self.formulas) + ")"


# ---------------------------------------------------------------------------
# proof trees

class Node:
    """A formula of a proof tree and the rule that added it."""

    __slots__ = ("formula", "rule", "children", "closed")

    def __init__(self, formula: Optional[Formula], rule: str):
        self.formula = formula
        self.rule = rule
        self.children: list[Node] = []
        self.closed = False


class ProveResult:
    """The verdict ("closed" or "open"), the tree and any open branch."""

    __slots__ = ("verdict", "tree", "open_branch")

    def __init__(self, verdict: str, tree: Node,
                 open_branch: Optional[list[Formula]] = None):
        self.verdict = verdict
        self.tree = tree
        self.open_branch = open_branch

    def _preorder(self):
        """(node, indent, index of its parent) for each tree node, in the
        order to_text prints them: the root first, then each child's
        subtree in turn.  Walked with a stack: a tree is as deep as its
        longest branch."""
        stack = [(self.tree, 0, None)]  # the first child pops first
        index = 0
        while stack:
            node, indent, parent = stack.pop()
            yield node, indent, parent
            inner = indent + (1 if len(node.children) > 1 else 0)
            stack += [(child, inner, index)
                      for child in reversed(node.children)]
            index += 1

    def to_json(self) -> dict:
        """The verdict, the tree as a flat list of nodes, each listing its
        children by index (node 0 is the root), and any open branch."""
        nodes: list[dict] = []
        for node, _, parent in self._preorder():
            if parent is not None:
                nodes[parent]["children"].append(len(nodes))
            doc = {"formula": render(node.formula), "rule": node.rule,
                   "children": []}
            if not node.children:
                doc["closed"] = node.closed
            nodes.append(doc)
        result = {"verdict": self.verdict, "nodes": nodes}
        if self.open_branch is not None:
            result["open_branch"] = [render(f) for f in self.open_branch]
        return result

    def to_text(self) -> str:
        lines: list[str] = []
        for node, indent, _ in self._preorder():
            pad = "  " * indent
            lines.append(f"{pad}{render(node.formula)}  [{node.rule}]")
            if not node.children:
                lines.append(f"{pad}{'x' if node.closed else 'o'}")
        return "\n".join(lines)

    def __str__(self):
        return self.to_text()


# ---------------------------------------------------------------------------
# rule selection

class _Context:
    def __init__(self, budget: int):
        if not _is_int(budget):
            raise ValueError(f"node budget must be an integer, got {budget!r}")
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


def _split(a: Formula, b: Formula) -> list[list[Formula]]:
    """The two successors of R6 on A <-> B: #A, #B and ~#A, ~#B."""
    return [[Nabla(a), Nabla(b)], [Not(Nabla(a)), Not(Nabla(b))]]


# A handler reads the node its shape names (f, or the A of ~A or of ~#A) and
# returns (rule, the formulas each successor adds) if it fires, else None.

def _iff(a: Formula, ctx: _Context):
    # R6 in place of the iff rule when the biconditional is valid
    if _is_valid_nested(a, ctx):
        return "R6", _split(a.left, a.right)
    return "iff", [[a.left, a.right], [Not(a.left), Not(a.right)]]


def _r2(a: Formula, ctx: _Context):
    return ("R2", [[Bottom()]]) if _is_valid_nested(a, ctx) else None


_CLASSES = 5  # the rule classes, in priority order:
_ALPHA, _R2, _R5, _R4, _BRANCHING = range(_CLASSES)

_R2_ONLY = ((_R2, _r2),)  # every ~#A, whatever A is

# (class, handler) for each shape some class can fire on: a formula's
# type, (Not, type of A) for ~A, (Not, Nabla, type of A) for ~#A
_SHAPES = {
    And: ((_ALPHA, lambda a, ctx: ("and", [[a.left, a.right]])),),
    (Not, Or): ((_ALPHA, lambda a, ctx: (
        "not-or", [[Not(a.left), Not(a.right)]])),),
    (Not, Implies): ((_ALPHA, lambda a, ctx: (
        "not-implies", [[a.left, Not(a.right)]])),),
    (Not, Not): ((_ALPHA, lambda a, ctx: ("not-not", [[a.child]])),),
    (Not, Top): ((_ALPHA, lambda a, ctx: ("not-top", [[Bottom()]])),),
    Nabla: ((_ALPHA, lambda a, ctx: ("R1", [[a.child]])),),
    (Not, Nabla, Implies): _R2_ONLY + ((_R5, lambda a, ctx: (
        "R5A", [[Not(Nabla(Or(Not(a.left), a.right)))]])),),
    (Not, Nabla, Iff): _R2_ONLY + ((_R5, lambda a, ctx: (
        "R5B", [[Not(Nabla(And(Implies(a.left, a.right),
                               Implies(a.right, a.left))))]])),),
    (Not, Nabla, Or): _R2_ONLY + ((_R4, lambda a, ctx: (
        "R4", [[Not(Nabla(a.left)), Not(Nabla(a.right))]])),),
    (Not, Nabla, And): _R2_ONLY + ((_BRANCHING, lambda a, ctx: (
        "R3", [[Not(Nabla(a.left))], [Not(Nabla(a.right))]])),),
    Or: ((_BRANCHING, lambda a, ctx: ("or", [[a.left], [a.right]])),),
    Implies: ((_BRANCHING, lambda a, ctx: (
        "implies", [[Not(a.left)], [a.right]])),),
    (Not, And): ((_BRANCHING, lambda a, ctx: (
        "not-and", [[Not(a.left)], [Not(a.right)]])),),
    Iff: ((_BRANCHING, _iff),),
    (Not, Iff): ((_BRANCHING, lambda a, ctx: (
        "not-iff", [[a.left, Not(a.right)], [a.right, Not(a.left)]])),),
}


def _select(branch: Branch, ctx: _Context):
    cursors = branch.cursors
    for k, queue in enumerate(branch.queues):
        i = cursors[k]
        while i < len(queue):
            node, handler = queue[i]
            i += 1
            hit = handler(node, ctx)
            if hit is not None:
                cursors[k] = i
                return hit
        cursors[k] = i

    # R6 paired form: a valid biconditional between two #-arguments already
    # on the branch licenses the same split even when the biconditional
    # itself is not a branch member.  Needed to close the tableaux the
    # biconditional transfer rule of the Hilbert system certifies.
    args = branch.arguments
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
    unless it is None; return the leftmost open branch, or None if all
    close.  Successors n..2 of a step wait on a stack, the last with the
    branch as it is, the others with copies; the first grows on a copy."""
    waiting = []  # (branch, leaf, rule, added), the next to grow on top
    while True:
        if branch.closed:
            if leaf is not None:
                leaf.closed = True
            if not waiting:
                return None
            branch, leaf, rule, added = waiting.pop()
        else:
            hit = _select(branch, ctx)
            if hit is None:
                return branch  # leftmost open branch is the certificate
            rule, successors = hit
            for later in reversed(successors[1:]):
                waiting.append((branch, leaf, rule, later))
                branch = branch.copy()
            added = successors[0]
        leaf = _grow(branch, leaf, rule, added, ctx)


def prove(premises: Iterable[Formula], goal: Formula,
          budget: int = DEFAULT_BUDGET) -> ProveResult:
    """Build the tableau for the premises plus the negated goal.

    "closed" certifies the entailment; "open" carries one open branch on
    which no rule adds anything.  Exhausting the node budget raises
    BudgetExceeded; a budget that is not an integer of at least 1 raises
    ValueError.
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
