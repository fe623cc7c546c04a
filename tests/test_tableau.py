import copy
import functools
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings

from plausible.algebra import enumerate_algebras, find_countermodel
from plausible.formula import (And, Atom, Bottom, Iff, Implies, Nabla, Not,
                               Or, atoms, is_classical_tautology, parse,
                               render)
from plausible.hilbert import instantiate
from plausible.sampling import corpus, depth2_candidates, random_formula
from plausible import tableau
from plausible.tableau import Branch, BudgetExceeded, is_valid, prove

from conftest import CORPUS_SEED, CORPUS_SIZE, evaluate, formula_strategy

p, q = Atom("p"), Atom("q")


# ---------------------------------------------------------------------------
# prove / is_valid

def test_prove_examples():
    assert prove([], parse("~#(p & ~p)")).verdict == "closed"
    assert prove([], parse("#p -> p")).verdict == "closed"
    assert prove([], parse("#p -> #(p | q)")).verdict == "closed"
    result = prove([], parse("#p -> #q"))
    assert result.verdict == "open"
    assert result.open_branch is not None


def test_is_valid_examples():
    assert is_valid(parse("p | ~p"))
    assert is_valid(parse("#(p | ~p)"))
    assert not is_valid(parse("#p"))


def test_premises_are_used():
    assert prove([parse("#p")], parse("p")).verdict == "closed"
    assert prove([parse("p -> q"), parse("p")], parse("q")).verdict == "closed"
    assert prove([parse("p")], parse("q")).verdict == "open"


def test_worked_tableaux():
    # the three worked propositions
    assert is_valid(parse("~#(p & ~p)"))
    assert is_valid(parse("#(#p -> #p)"))
    # validity transfers under the operator
    assert is_valid(parse("#(p | ~p)")) and is_valid(parse("##(p | ~p)"))


def test_open_branch_is_saturated(cross_oracle_sweep):
    # proving false from a saturated open branch fires no rule that adds a
    # formula, so the open branch comes back with at most ~false added
    goals = [f for f, verdict, _ in cross_oracle_sweep if verdict == "open"]
    for f in goals + [parse("#p -> #q")]:
        branch = prove([], f).open_branch
        again = prove(branch, Bottom())
        assert again.verdict == "open", render(f)
        assert again.open_branch == list(dict.fromkeys(
            branch + [Not(Bottom())])), render(f)


def _nodes(node):
    yield node
    for child in node.children:
        yield from _nodes(child)


# ---------------------------------------------------------------------------
# single rule steps, read off the proof tree

def test_expand_step_r1():
    r1 = prove([Nabla(And(p, q))], Bottom()).tree
    assert [n.formula for n in _nodes(r1) if n.rule == "R1"] == [And(p, q)]


def test_expand_step_r3_branches():
    # the R2 test on ~#(p & q) fails, so R3 splits; both branches close,
    # so the tree keeps both
    r3 = prove([Nabla(p), Nabla(q)], Nabla(And(p, q)))
    assert r3.verdict == "closed"
    (split,) = [n for n in _nodes(r3.tree) if len(n.children) > 1]
    assert [(c.rule, c.formula) for c in split.children] == \
        [("R3", Not(Nabla(p))), ("R3", Not(Nabla(q)))]


def test_expand_step_r2_closes_on_valid_argument():
    r2 = prove([Not(Nabla(Or(p, Not(p))))], Bottom())
    assert r2.verdict == "closed"
    (node,) = [n for n in _nodes(r2.tree) if n.rule == "R2"]
    assert node.formula == Bottom() and node.closed and not node.children


def _successors(tree):
    """The (rule, formula) pairs of the first two nodes under each child of
    the topmost step with more than one successor."""
    split = next(n for n in _nodes(tree) if len(n.children) > 1)
    out = []
    for child in split.children:
        (grandchild,) = child.children
        out.append([(n.rule, n.formula) for n in (child, grandchild)])
    return out


def test_expand_step_iff_branches():
    # p <-> q is not valid, so the iff rule splits, not R6; p closes the
    # first successor, so the tree keeps both
    result = prove([Iff(p, q), Not(p)], Bottom())
    assert _successors(result.tree) == [
        [("iff", p), ("iff", q)],
        [("iff", Not(p)), ("iff", Not(q))]]
    assert result.open_branch == [Iff(p, q), Not(p), Not(Bottom()), Not(q)]


def test_expand_step_not_iff_branches():
    # ~p closes the first successor, so the tree keeps both
    result = prove([Not(Iff(p, q)), Not(p)], Bottom())
    assert _successors(result.tree) == [
        [("not-iff", p), ("not-iff", Not(q))],
        [("not-iff", q), ("not-iff", Not(p))]]
    assert result.open_branch == [Not(Iff(p, q)), Not(p), Not(Bottom()), q]


def test_expand_step_r6_branches():
    # R6 needs a valid biconditional, so its arguments are p & q and q & p;
    # ~p closes the first successor through R1 and the and rule
    a, b = And(p, q), And(q, p)
    result = prove([Iff(a, b), Not(p)], Bottom())
    assert _successors(result.tree) == [
        [("R6", Nabla(a)), ("R6", Nabla(b))],
        [("R6", Not(Nabla(a))), ("R6", Not(Nabla(b)))]]
    assert And(Nabla(a), Nabla(b)) not in {n.formula
                                           for n in _nodes(result.tree)}


def test_saturate_examples():
    assert prove([p, Not(p)], Bottom()).verdict == "closed"

    # the failed R2 test adds nothing, and R3 does not apply to ~#p
    open_branch = prove([Not(Nabla(p))], Bottom()).open_branch
    assert open_branch == [Not(Nabla(p)), Not(Bottom())]

    nested = prove([Nabla(Nabla(p))], Bottom()).open_branch
    assert {Nabla(Nabla(p)), Nabla(p), p} <= set(nested)


def test_budget_is_a_distinct_error():
    with pytest.raises(BudgetExceeded):
        prove([], parse("#(p & q) -> #(q & p)"), budget=3)


@pytest.mark.parametrize("budget, message", [
    (2.5, "an integer"), (100.0, "an integer"), (True, "an integer"),
    ("3", "an integer"), (None, "an integer"), (0, "at least 1"),
])
def test_budget_must_be_a_positive_integer(budget, message):
    with pytest.raises(ValueError, match="node budget must be " + message):
        prove([], parse("#p -> p"), budget=budget)


_BRANCH_STATE = ("formulas", "members", "negated", "queues", "cursors",
                 "arguments", "partners")


def test_copies_share_no_state():
    branch = Branch([Or(p, q), Nabla(p), Not(q), Not(Nabla(And(p, q)))])
    branch.cursors[0] = 2
    branch.partners.append(1)
    assert branch.arguments == [p, And(p, q)]
    queues = [list(queue) for queue in branch.queues]
    twin = branch.copy()
    for name in _BRANCH_STATE:
        assert getattr(twin, name) == getattr(branch, name), name
        assert getattr(twin, name) is not getattr(branch, name), name
    twin.add(q)
    twin.add(Not(Nabla(Or(p, q))))  # queued for R2 and R4
    assert twin.closed and not branch.closed
    assert q not in branch.members
    assert branch.arguments == [p, And(p, q)]
    assert branch.queues == queues != twin.queues


@pytest.mark.parametrize("start", [[Or(p, q)], [Not(Nabla(And(p, q)))]])
def test_branching_step_leaves_the_parent_untouched(start):
    # the first alternative closes against an extra premise; the second
    # branch, developed after it, must not hold the first one's formula
    closer = Nabla(p) if isinstance(start[0], Not) else Not(p)
    result = prove(start + [closer], Bottom())
    (split,) = [n for n in _nodes(result.tree) if len(n.children) > 1]
    first, second = (c.formula for c in split.children)
    assert split.children[0].closed
    assert result.verdict == "open"
    assert second in result.open_branch
    assert first not in result.open_branch

    branch = Branch(start)
    state = {name: copy.deepcopy(getattr(branch, name))
             for name in _BRANCH_STATE}
    children = [branch.copy(), branch.copy()]
    for child, own in zip(children, (first, second)):
        child.add(own)
        child.cursors[-1] += 1
        child.queues[-1].append((own, None))
        child.arguments.append(own)
        child.partners.append(len(child.arguments))
    for name, before in state.items():
        assert getattr(branch, name) == before, name
    for child, own, other in zip(children, (first, second),
                                 (second, first)):
        assert child.formulas == state["formulas"] + [own]
        assert other not in child.members


def test_deep_goals_stay_within_the_stack():
    # a nested validity test costs four stack frames and a level of
    # branching none, so prove decides both goals under pytest's stack
    assert prove([], parse("#" * 200 + "p")).verdict == "open"
    goal = Not(functools.reduce(And, [Or(Atom(f"p{i}"), Atom(f"q{i}"))
                                      for i in range(1200)]))
    assert prove([], goal, budget=10 ** 6).verdict == "open"


def test_closure_is_detected_in_either_order():
    for pair in ([p, Not(p)], [Not(p), p],
                 [Not(Not(p)), Not(p)], [Not(p), Not(Not(p))]):
        assert Branch(pair).closed, pair
        grown = Branch(pair[:1])
        assert not grown.closed
        grown.add(pair[1])
        assert grown.closed, pair
    assert Branch([Bottom()]).closed
    assert not Branch([p, Not(q), Not(Not(p))]).closed


# ---------------------------------------------------------------------------
# the R6 pair form

@settings(max_examples=300, deadline=None)
@given(formula_strategy(), formula_strategy())
def test_one_world_refutation_is_sound(a, b):
    # the tableau of ~(a <-> b) stays open whenever a <-> b fails on the
    # one-world frame, with no R6P probe in it screened
    link = Iff(a, b)
    if find_countermodel(link, 1) is None:
        return
    ctx = tableau._Context(tableau.DEFAULT_BUDGET)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableau, "_is_valid_link", tableau._is_valid_nested)
        assert tableau._develop(Branch([Not(link)]), None, ctx) is not None


def test_r6p_fires_the_first_unlinked_valid_pair():
    # the scan resumes where it stopped, while arguments keep arriving
    # between firings; a rescan of every pair in (i, j) order must pick
    # the same pair each time
    branch = Branch([Nabla(a) for a in (p, And(p, q), Not(Not(p)),
                                         And(q, p), Or(p, p))])
    later = [Nabla(a) for a in (And(q, q), q, Or(q, q), And(p, p))]
    ctx = tableau._Context(tableau.DEFAULT_BUDGET)
    linked = []
    while True:
        args = branch.arguments
        unlinked_valid = [(a, b) for i, a in enumerate(args)
                          for b in args[i + 1:] if (a, b) not in linked
                          and is_classical_tautology(Iff(a, b))]
        hit = tableau._select(branch, ctx)
        if hit is None:
            assert not unlinked_valid
            if not later:
                break
            branch.add(later.pop(0))
            continue
        rule, successors = hit
        if rule == "R6P":
            first, second = successors[0]
            assert (first.child, second.child) == unlinked_valid[0]
            linked.append(unlinked_valid[0])
            if later:
                branch.add(later.pop(0))
    assert len(branch.arguments) == 9 and len(linked) == 10


def test_wide_links_are_not_screened(monkeypatch):
    # the one-world screen is not charged to the budget, so a link with
    # more atoms than one block of the search holds valuations must go
    # straight to its nested tableau: the valid 40-atom link of this goal
    # would otherwise cost 2^24 blocks
    from plausible import algebra
    search = algebra._first_failure

    def bounded(f, units, n):
        assert len(algebra._searched(n)) << n * len(units) \
            <= algebra._BLOCK_ELEMENTS
        return search(f, units, n)

    monkeypatch.setattr(algebra, "_first_failure", bounded)
    names = [f"p{i}" for i in range(1, 41)]
    goal = parse(f"#({' & '.join(names)}) -> #({' & '.join(names[::-1])})")
    assert prove([], goal, budget=1496).verdict == "closed"
    with pytest.raises(BudgetExceeded):
        prove([], goal, budget=1495)


# ---------------------------------------------------------------------------
# pinned trees and node charges
#
# The sha256 of the text `prove --json` prints (the flat node list) over
# the shared corpus followed by the 1012 depth-2 axiom instances under #,
# and the smallest budget each listed goal proves within, one or more goals
# for each rule.  Both fingerprints and the budgets of the goals whose
# tableau, nested validity tests included, fires the iff rule were
# computed when iff came to branch on A, B | ~A, ~B and R1 joined the
# non-branching class, and the budgets of the goals with an invalid R6P
# biconditional when those came to be refuted on the one-world frame,
# under PYTHONHASHSEED 0 and 12345.  None may move with a change of search
# bookkeeping.

TREE_FINGERPRINT = \
    "1855be60d8765c2e1cd7c0a3337dedb8de76a0e0eb11dca76d36505d9040edec"

# The sha256 of to_text over the same goals; it pins the trees
# independently of the JSON format.
TEXT_FINGERPRINT = \
    "c89dd4b9d78c9b93937b02a2861279a8d695a3fa399ef04e7366ca64d45cf803"

# The sha256 of the verdicts alone, one a line, over the same goals,
# computed before the iff rule came to branch; it holds the verdicts when a
# change of rule moves the tree fingerprints.
GOAL_VERDICTS = \
    "e153f059fe59aa1406bcf4544fffeedeef49c25369630fae2e37c0589ee6988f"


def _pinned_goals():
    goals = list(corpus(CORPUS_SEED, CORPUS_SIZE))
    candidates = depth2_candidates()
    for a in candidates:
        for schema in ("AX3", "AX4"):
            goals.append(Nabla(instantiate(schema, {"A": a})))
        for b in candidates:
            for schema in ("AX1", "AX2"):
                goals.append(Nabla(instantiate(schema, {"A": a, "B": b})))
    return goals


def test_trees_are_pinned():
    goals = _pinned_goals()
    assert len(goals) == CORPUS_SIZE + 1012
    h, t, v = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for f in goals:
        result = prove([], f)
        h.update(json.dumps(result.to_json(), indent=2,
                            sort_keys=True).encode())
        t.update(result.to_text().encode())
        v.update(result.verdict.encode() + b"\n")
    assert v.hexdigest() == GOAL_VERDICTS
    assert t.hexdigest() == TEXT_FINGERPRINT
    assert h.hexdigest() == TREE_FINGERPRINT


@pytest.mark.parametrize("text, budget", [
    ("#(p & q) -> #(q & p)", 33),             # R3, then R6P
    ("##(p & q) -> ##(q & p)", 77),           # R6P inside a nested test
    ("#(p <-> q) -> #(q <-> p)", 100),        # R5B, R5A, R4, R3, R6P
    ("#(#p -> #q) -> #(~#q -> ~#p)", 53),     # R5A, R4, R6P
    ("#(p | ~p)", 5),                         # R2 closes
    ("(p -> q) -> (~q -> ~p)", 8),
    ("#p -> #q", 6),                          # open
    ("(p <-> p) -> (#p <-> #p)", 22),         # R6
    ("(p <-> q) -> (q <-> p)", 18),           # iff
    ("true", 2),                              # not-top
    ("#(p & q) -> p", 6),                     # R1, and
    ("~(p <-> q) -> (p | q)", 9),             # not-iff, not-or
    ("p -> ~~p", 4),                          # not-not
    ("(p | q) -> (q | p)", 7),                # or
    ("~(p & q) -> (~p | ~q)", 9),             # not-and
])
def test_minimal_budgets_are_pinned(text, budget):
    f = parse(text)
    prove([], f, budget=budget)
    with pytest.raises(BudgetExceeded):
        prove([], f, budget=budget - 1)


# The sha256 of the verdicts, one a line, over the seed-7 corpus of 3000
# formulas of at most 16 nodes, computed before not-iff and R6 came to add
# their successors' formulas directly, and the nodes charged over it since
# R6P biconditionals came to be refuted on the one-world frame.
CORPUS_VERDICTS = \
    "91b3a82ed6e90c91e38c8c102dbfeb9f739a807612cfe98b1d0ed197b305ed9f"
CORPUS_NODES = 88_447


def test_corpus_verdicts_and_charges_are_pinned(monkeypatch):
    charged = 0
    charge = tableau._Context.charge

    def counting(ctx, n=1):
        nonlocal charged
        charged += n
        charge(ctx, n)

    monkeypatch.setattr(tableau._Context, "charge", counting)
    h = hashlib.sha256()
    for f in corpus(7, 3000, max_size=16):
        h.update(prove([], f).verdict.encode() + b"\n")
    assert h.hexdigest() == CORPUS_VERDICTS
    assert charged == CORPUS_NODES


# ---------------------------------------------------------------------------
# serialization

def test_tree_serialization():
    result = prove([], parse("#p -> p"))
    doc = result.to_json()
    assert doc["verdict"] == "closed"
    node = doc["nodes"][0]
    assert node["formula"] == "~(#p -> p)"
    assert node["rule"] == "negated-goal"
    text = result.to_text()
    assert "x" in text.splitlines()[-1]

    open_doc = prove([], parse("#p")).to_json()
    assert open_doc["verdict"] == "open"
    assert open_doc["open_branch"] == ["~#p"]


# ---------------------------------------------------------------------------
# rule-wise soundness against the algebra oracle

def _holds_everywhere(f, max_atoms=2):
    names = sorted(atoms(f))
    for n in range(1, max_atoms + 1):
        for alg in enumerate_algebras(n):
            for values in itertools.product(range(1 << n),
                                            repeat=len(names)):
                if evaluate(f, alg, dict(zip(names, values))) != (1 << n) - 1:
                    return False
    return True


def _rule(premise, successors):
    """premise -> the disjunction, over the successors, of the conjunction
    of the formulas each adds: it holds everywhere when the rule is
    sound."""
    return Implies(premise, functools.reduce(
        Or, [functools.reduce(And, added) for added in successors]))


@pytest.mark.parametrize("seed", range(12))
def test_rulewise_soundness(seed):
    rng = random.Random(seed)
    a = random_formula(rng, max_size=5, atom_names=("p", "q"))
    b = random_formula(rng, max_size=5, atom_names=("p", "q"))
    steps = [
        _rule(Nabla(a), [[a]]),                                        # R1
        _rule(Not(Nabla(And(a, b))),
              [[Not(Nabla(a))], [Not(Nabla(b))]]),                     # R3
        _rule(Not(Nabla(Or(a, b))), [[Not(Nabla(a)), Not(Nabla(b))]]),  # R4
        _rule(Not(Nabla(Implies(a, b))),
              [[Not(Nabla(Or(Not(a), b)))]]),                          # R5A
        _rule(Not(Nabla(Iff(a, b))),
              [[Not(Nabla(And(Implies(a, b), Implies(b, a))))]]),      # R5B
        _rule(Iff(a, b), [[a, b], [Not(a), Not(b)]]),                  # iff
        _rule(Not(Iff(a, b)), [[a, Not(b)], [b, Not(a)]]),            # not-iff
    ]
    for f in steps:
        assert _holds_everywhere(f), render(f)
    if _holds_everywhere(a):
        assert _holds_everywhere(_rule(Not(Nabla(a)), [[Bottom()]]))   # R2
    if _holds_everywhere(Iff(a, b)):
        assert _holds_everywhere(_rule(Iff(a, b), [
            [Nabla(a), Nabla(b)], [Not(Nabla(a)), Not(Nabla(b))]]))    # R6


# ---------------------------------------------------------------------------
# axiom closure on sampled instances (the exhaustive small sweep is in the
# acceptance suite; the full depth-3 cross product is out of reach)

@pytest.mark.parametrize("seed", range(30))
def test_axiom_instances_close(seed):
    rng = random.Random(1000 + seed)
    a = random_formula(rng, max_size=7, atom_names=("p", "q", "r"))
    b = random_formula(rng, max_size=7, atom_names=("p", "q", "r"))
    for schema, bindings in (("AX1", {"A": a, "B": b}),
                             ("AX2", {"A": a, "B": b}),
                             ("AX3", {"A": a}),
                             ("AX4", {"A": a})):
        assert prove([], instantiate(schema, bindings)).verdict == "closed"


# ---------------------------------------------------------------------------
# cross-oracle agreement on the shared corpus

def test_soundness_direction(cross_oracle_sweep):
    for f, verdict, countermodel in cross_oracle_sweep:
        if verdict == "closed":
            assert countermodel is None, render(f)


def test_refutation_direction(cross_oracle_sweep):
    for f, verdict, countermodel in cross_oracle_sweep:
        if countermodel is not None:
            assert verdict == "open", render(f)
