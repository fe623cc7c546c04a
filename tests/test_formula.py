import gc
import itertools

import pytest
from hypothesis import given, strategies as st

from plausible import formula
from plausible.formula import (And, Atom, Bottom, Iff, Implies, Nabla, Not,
                               Or, ParseError, Top, atoms, erase_nabla,
                               is_classical_tautology, parse, render, size)

p, q, r = Atom("p"), Atom("q"), Atom("r")


def formula_strategy():
    base = st.one_of(
        st.sampled_from([p, q, r]),
        st.just(Bottom()),
        st.just(Top()),
    )
    return st.recursive(
        base,
        lambda children: st.one_of(
            children.map(Not),
            children.map(Nabla),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(children, children).map(lambda t: Implies(*t)),
            st.tuples(children, children).map(lambda t: Iff(*t)),
        ),
        max_leaves=12,
    )


def test_parse_examples():
    assert parse("#(p | ~p)") == Nabla(Or(p, Not(p)))
    assert parse("p") == p
    assert parse("~p & q -> r") == Implies(And(Not(p), q), r)


def test_parse_precedence_and_associativity():
    assert parse("~#p") == Not(Nabla(p))
    assert parse("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse("p & q | r") == Or(And(p, q), r)
    assert parse("p <-> q <-> r") == Iff(p, Iff(q, r))
    assert parse("true") == Top()
    assert parse("false") == Bottom()


def test_parse_error_carries_offset_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse("p & ")
    assert exc.value.offset == 4
    assert exc.value.expected
    with pytest.raises(ParseError):
        parse("p q")
    with pytest.raises(ParseError):
        parse("(p")


ANY = ("atom", "true", "false", "~", "#", "(")


@pytest.mark.parametrize("text, offset, expected, message", [
    ("p = q", 2, ("atom", "operator"), "unexpected character '='"),
    ("p & ", 4, ANY, "unexpected end of input"),
    ("(p", 2, (")",), "unexpected end of input"),
    ("p q", 2, ("end",), "unexpected 'q'"),
    ("#", 1, ANY, "unexpected end of input"),
    ("x.y", 1, ("atom", "operator"), "unexpected character '.'"),
])
def test_parse_errors_are_pinned(text, offset, expected, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.offset, exc.value.expected) == (offset, expected)
    assert str(exc.value).startswith(f"{message} at offset {offset}")


def test_render_examples():
    assert render(Nabla(p)) == "#p"
    assert render(Implies(Nabla(p), p)) == "#p -> p"
    assert render(Bottom()) == "false"
    assert render(Implies(Implies(p, q), r)) == "(p -> q) -> r"
    assert render(Not(And(p, q))) == "~(p & q)"


def test_erase_nabla_examples():
    assert erase_nabla(Nabla(p)) == p
    assert erase_nabla(Implies(Nabla(p), p)) == Implies(p, p)
    assert erase_nabla(p) == p


def test_is_classical_tautology_examples():
    assert is_classical_tautology(Or(p, Not(p)))
    assert is_classical_tautology(Implies(Nabla(p), Nabla(p)))
    assert not is_classical_tautology(Implies(Nabla(p), p))


def test_size_and_atoms():
    f = Implies(And(Not(p), q), r)
    assert size(f) == 6
    assert atoms(f) == {"p", "q", "r"}


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("")
    with pytest.raises(ValueError):
        Atom("1p")
    with pytest.raises(ValueError):
        Atom("true")


@given(formula_strategy())
def test_round_trip(f):
    assert parse(render(f)) is f


@given(formula_strategy(), formula_strategy())
def test_equality_is_identity(f, g):
    assert (f == g) == (f is g) == (repr(f) == repr(g))


def test_formulas_are_immutable():
    for f, name in ((p, "name"), (Not(p), "child"), (And(p, q), "left")):
        with pytest.raises(AttributeError):
            setattr(f, name, q)
        with pytest.raises(AttributeError):
            delattr(f, name)
    with pytest.raises(AttributeError):
        Top().extra = 1


def test_deep_formula_hashes_without_recursion():
    f = p
    for _ in range(100_000):
        f = Not(f)
    assert f in {f}
    assert Not(f.child) is f
    assert {f: 1}[f] == 1


def test_intern_table_drops_dead_formulas():
    gc.collect()
    before = len(formula._INTERN)
    fs = [Nabla(And(Atom(f"x{i}"), q)) for i in range(1000)]
    assert len(formula._INTERN) >= before + 3000
    del fs
    gc.collect()
    assert len(formula._INTERN) <= before


@given(formula_strategy())
def test_erase_nabla_idempotent_and_nabla_free(f):
    g = erase_nabla(f)
    assert erase_nabla(g) == g
    assert "#" not in render(g)


@given(formula_strategy())
def test_proper_subformulas_are_smaller(f):
    children = []
    if hasattr(f, "child"):
        children = [f.child]
    elif hasattr(f, "left"):
        children = [f.left, f.right]
    for c in children:
        assert size(c) < size(f)


def _opaque(f, units):
    """f with a fresh atom in place of each maximal #-subformula."""
    if isinstance(f, Nabla):
        if f not in units:
            units[f] = Atom(f"u{len(units)}")
        return units[f]
    if isinstance(f, Not):
        return Not(_opaque(f.child, units))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(_opaque(f.left, units), _opaque(f.right, units))
    return f


@given(formula_strategy())
def test_tautology_matches_two_element_algebra(f):
    """A formula is a classical tautology exactly when its copy with fresh
    atoms for the maximal #-subformulas holds under every valuation in the
    2-element algebra; likewise for its #-erasure."""
    from plausible.algebra import PlausibleAlgebra, evaluate
    alg = PlausibleAlgebra(1, (0, 1))
    for g in (f, erase_nabla(f)):
        h = _opaque(g, {})
        names = sorted(atoms(h))
        semantic = all(evaluate(h, alg, dict(zip(names, values))) == 1
                       for values in itertools.product(range(2),
                                                       repeat=len(names)))
        assert is_classical_tautology(g) == semantic


def test_tautology_across_blocks():
    # 17 atoms give 2**17 valuations, two blocks of the evaluator; the
    # conjunction holds only at the last valuation, in the second block
    from plausible import algebra
    conj = parse(" & ".join(f"a{i}" for i in range(1, 18)))
    assert not is_classical_tautology(Not(conj))
    assert is_classical_tautology(Implies(conj, Atom("a1")))
    units = formula.pseudo_atoms(conj)
    code, result = algebra._program(Not(conj), units)
    assert algebra._first_failure(code, result, 1, 17) == 2 ** 17 - 1
    assert 2 ** 17 > algebra._BLOCK_ELEMENTS
