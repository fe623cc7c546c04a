import copy
import functools
import hashlib
import itertools
import random

import pytest

from plausible.algebra import enumerate_algebras
from plausible.formula import (And, Atom, Bottom, Iff, Implies, Nabla, Not,
                               Or, atoms, parse, render)
from plausible.hilbert import instantiate
from plausible.sampling import corpus, depth2_candidates, random_formula
from plausible.tableau import (Branch, BudgetExceeded, is_valid, prove,
                               result_to_json_text)

from conftest import CORPUS_SEED, CORPUS_SIZE, evaluate

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


def test_copies_share_no_state():
    branch = Branch([Or(p, q), Nabla(p), Not(q)])
    branch.cursors[0] = 2
    branch.links.add(Iff(p, q))
    twin = branch.copy()
    for name in ("formulas", "members", "negated", "cursors", "links"):
        assert getattr(twin, name) == getattr(branch, name), name
        assert getattr(twin, name) is not getattr(branch, name), name
    twin.add(q)
    assert twin.closed and not branch.closed
    assert q not in branch.members


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
    state = {name: copy.copy(getattr(branch, name))
             for name in ("formulas", "members", "negated", "cursors",
                          "links")}
    children = [branch.copy(), branch.copy()]
    for child, own in zip(children, (first, second)):
        child.add(own)
        child.cursors[-1] += 1
        child.links.add(Iff(own, own))
    for name, before in state.items():
        assert getattr(branch, name) == before, name
    for child, own, other in zip(children, (first, second),
                                 (second, first)):
        assert child.formulas == state["formulas"] + [own]
        assert other not in child.members


def test_deep_goals_stay_within_the_stack():
    # a nested validity test costs four stack frames and a level of
    # branching one, so prove decides both goals under pytest's stack
    assert prove([], parse("#" * 200 + "p")).verdict == "open"
    goal = Not(functools.reduce(And, [Or(Atom(f"p{i}"), Atom(f"q{i}"))
                                      for i in range(800)]))
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
# pinned trees and node charges
#
# The sha256 of result_to_json_text over the shared corpus followed by the
# 1012 depth-2 axiom instances under #, and the smallest budget each listed
# goal proves within.  Both were computed before rule selection became
# incremental, under PYTHONHASHSEED 0 and 12345, and must not move with a
# change of search bookkeeping.

TREE_FINGERPRINT = \
    "e9317d48928274186c9f0f09f950a6b7b5c1287b5d9309acb0f8537732c8539b"


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
    h = hashlib.sha256()
    for f in goals:
        h.update(result_to_json_text(prove([], f)).encode())
    assert h.hexdigest() == TREE_FINGERPRINT


@pytest.mark.parametrize("text, budget", [
    ("#(p & q) -> #(q & p)", 39),             # R3, then R6P
    ("##(p & q) -> ##(q & p)", 103),          # R6P inside a nested test
    ("#(p <-> q) -> #(q <-> p)", 100),        # R5B, R5A, R4, R3, R6P
    ("#(#p -> #q) -> #(~#q -> ~#p)", 62),     # R5A, R4, R6P
    ("#(p | ~p)", 5),                         # R2 closes
    ("(p -> q) -> (~q -> ~p)", 8),
    ("#p -> #q", 9),                          # open
])
def test_minimal_budgets_are_pinned(text, budget):
    f = parse(text)
    prove([], f, budget=budget)
    with pytest.raises(BudgetExceeded):
        prove([], f, budget=budget - 1)


# ---------------------------------------------------------------------------
# serialization

def test_tree_serialization():
    result = prove([], parse("#p -> p"))
    doc = result.to_json()
    assert doc["verdict"] == "closed"
    node = doc["tree"]
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


@pytest.mark.parametrize("seed", range(12))
def test_rulewise_soundness(seed):
    rng = random.Random(seed)
    a = random_formula(rng, max_size=5, atom_names=("p", "q"))
    b = random_formula(rng, max_size=5, atom_names=("p", "q"))
    steps = [
        Implies(Nabla(a), a),                                          # R1
        Implies(Not(Nabla(And(a, b))),
                Or(Not(Nabla(a)), Not(Nabla(b)))),                     # R3
        Implies(Not(Nabla(Or(a, b))),
                And(Not(Nabla(a)), Not(Nabla(b)))),                    # R4
        Implies(Not(Nabla(Implies(a, b))),
                Not(Nabla(Or(Not(a), b)))),                            # R5A
        Implies(Not(Nabla(Iff(a, b))),
                Not(Nabla(And(Implies(a, b), Implies(b, a))))),        # R5B
    ]
    for f in steps:
        assert _holds_everywhere(f), render(f)
    if _holds_everywhere(a):
        assert _holds_everywhere(Implies(Not(Nabla(a)), Bottom()))     # R2
    if _holds_everywhere(Iff(a, b)):
        assert _holds_everywhere(
            Implies(Iff(a, b), Or(And(Nabla(a), Nabla(b)),
                                  And(Not(Nabla(a)), Not(Nabla(b))))))  # R6


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
