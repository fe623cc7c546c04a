import functools
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from plausible.folp import (App, Eq, EvaluationError, Exists, Forall, Name,
                            Plaus, PlausibleStructure, Rel, check_axioms,
                            free_names, parse_fo, rename_bound, satisfies,
                            unary_structures)
from plausible.formula import (BINARY, And, Binder, Bottom, Formula, Iff,
                               Implies, Not, Or, ParseError, Top, render)
from plausible.pseudotopology import (MAX_UNIVERSE, PseudoTopology,
                                      enumerate_spaces)


def structure(domain_size, opens, relations=None, functions=None,
              constants=None):
    return PlausibleStructure(
        domain_size=domain_size,
        relations={n: frozenset(tuple(t) for t in table)
                   for n, table in (relations or {}).items()},
        functions={n: {tuple(k): v for k, v in graph}
                   for n, graph in (functions or {}).items()},
        constants=constants or {},
        omega=PseudoTopology(domain_size, frozenset(opens)),
    )


@pytest.fixture
def M():
    # three points, opens are the sets containing point 2
    return structure(
        3, [4, 5, 6, 7],
        relations={"R": [(1,), (2,)], "Less": [(0, 1), (0, 2), (1, 2)]},
        functions={"s": [((0,), 1), ((1,), 2), ((2,), 2)]},
        constants={"c": 0},
    )


def test_parse_fo_examples():
    f = parse_fo("P x. R(x)")
    assert f == Plaus("x", Rel("R", (Name("x"),)))
    assert parse_fo("forall x. R(x) -> R(x)") == \
        Forall("x", Implies(Rel("R", (Name("x"),)), Rel("R", (Name("x"),))))
    assert parse_fo("(forall x. R(x)) -> R(c)") == \
        Implies(Forall("x", Rel("R", (Name("x"),))), Rel("R", (Name("c"),)))
    assert parse_fo("s(x) = c") == Eq(App("s", (Name("x"),)), Name("c"))
    assert parse_fo("~P x. R(x)") == Not(Plaus("x", Rel("R", (Name("x"),))))
    with pytest.raises(ValueError):
        parse_fo("forall x R(x)")


@pytest.mark.parametrize("text, offset, expected, message", [
    ("P x. R(x", 8, (")",), "unexpected end of input"),
    ("forall x R(x)", 9, (".",), "unexpected 'R'"),
    ("R(x) R(y)", 5, ("end",), "unexpected 'R'"),
    ("R(x) & $", 7, ("identifier", "operator"), "unexpected character '$'"),
    ("#R(x)", 0, ("ident",), "unexpected '#'"),
    ("R(x) = ", 7, ("ident",), "unexpected end of input"),
    ("P x R(x)", 2, ("end",), "unexpected 'x'"),
])
def test_parse_fo_errors_carry_offset(text, offset, expected, message):
    with pytest.raises(ParseError) as exc:
        parse_fo(text)
    assert (exc.value.offset, exc.value.expected) == (offset, expected)
    assert str(exc.value).startswith(f"{message} at offset {offset}")


def test_constants_are_true_and_false(M):
    assert parse_fo("true") is Top()
    assert parse_fo("R(x) | false") is Or(Rel("R", (Name("x"),)), Bottom())
    assert parse_fo("R(true)") is Rel("R", (Name("true"),))
    assert satisfies(M, parse_fo("true"))
    assert not satisfies(M, parse_fo("false"))
    assert satisfies(M, parse_fo("P x. true"))
    assert not satisfies(M, parse_fo("exists x. false"))
    assert free_names(parse_fo("forall x. true -> R(x)")) == set()
    assert rename_bound(parse_fo("false | R(y)"), "y", "z") is \
        parse_fo("false | R(z)")
    for text in ("true", "~false", "P x. R(x) & true"):
        assert parse_fo(render(parse_fo(text))) is parse_fo(text)


def test_quantifiers_scope_maximally():
    f = parse_fo("P x. R(x) | Q(x)")
    assert isinstance(f, Plaus)
    assert isinstance(f.body, Or)


def test_p_is_only_a_quantifier_before_a_dot():
    f = parse_fo("P(x)")
    assert f == Rel("P", (Name("x"),))
    g = parse_fo("P x. P(x)")
    assert g == Plaus("x", Rel("P", (Name("x"),)))


def test_render_round_trip():
    for text in ["P x. R(x) | Q(x)", "(forall x. R(x)) -> R(c)",
                 "s(x) = c", "~(R(x) & Q(y))", "exists y. Less(c, y)",
                 "forall x. exists y. Less(x, y)"]:
        f = parse_fo(text)
        assert parse_fo(render(f)) is f


R_X = Rel("R", (Name("x"),))
S = Rel("S", ())
ALL_R = Forall("x", R_X)


@pytest.mark.parametrize("f, text", [
    (Implies(S, ALL_R), "S -> forall x. R(x)"),
    (Implies(ALL_R, S), "(forall x. R(x)) -> S"),
    (And(S, ALL_R), "S & (forall x. R(x))"),
    (Iff(S, ALL_R), "S <-> forall x. R(x)"),
    (Not(ALL_R), "~(forall x. R(x))"),
    (Plaus("y", And(ALL_R, S)), "P y. (forall x. R(x)) & S"),
    (Eq(App("f", (Name("x"), Name("c"))), Name("c")), "f(x, c) = c"),
])
def test_render_first_order_examples(f, text):
    # a binder is bracketed except as the right operand of -> and <->
    assert render(f) == text
    assert parse_fo(text) is f


def test_binder_is_bracketed_when_text_follows_it():
    # S -> forall x. R(x) <-> S would read back as S -> forall x. (R(x) <-> S)
    f = Iff(Implies(S, ALL_R), S)
    assert render(f) == "S -> (forall x. R(x)) <-> S"
    assert parse_fo(render(f)) is f
    g = Implies(S, Implies(S, ALL_R))
    assert render(Iff(g, S)) == "S -> S -> (forall x. R(x)) <-> S"
    assert render(Iff(S, g)) == "S <-> S -> S -> forall x. R(x)"


def test_first_order_formulas_are_interned():
    text = "forall x. P y. Less(x, y) | s(x) = c"
    assert parse_fo(text) is parse_fo(text)
    assert Rel("R", (Name("x"),)) is R_X


def test_free_names_and_rename():
    f = parse_fo("forall x. Less(x, y)")
    assert free_names(f) == {"y"}
    assert free_names(App("s", (Name("x"), Name("c")))) == {"x", "c"}
    g = rename_bound(f.body, "y", "z")
    assert g == parse_fo("Less(x, z)")
    assert rename_bound(f, "x", "z") == f


def test_satisfies_basics(M):
    assert satisfies(M, parse_fo("R(x)"), {"x": 1})
    assert not satisfies(M, parse_fo("R(x)"), {"x": 0})
    assert satisfies(M, parse_fo("exists x. R(x)"))
    assert not satisfies(M, parse_fo("forall x. R(x)"))
    assert satisfies(M, parse_fo("forall x. Less(c, s(x)) | x = c"))
    assert satisfies(M, parse_fo("s(s(c)) = s(s(s(c)))"))


def test_plausibility_quantifier_reads_the_opens(M):
    # R defines {1, 2}, mask 6, which is open
    assert satisfies(M, parse_fo("P x. R(x)"))
    # x = c defines {0}, mask 1, not open
    assert not satisfies(M, parse_fo("P x. x = c"))
    # the full domain is always open
    assert satisfies(M, parse_fo("P x. x = x"))
    # under another binder: {x : y < x or x = y} is open for every y
    assert satisfies(M, parse_fo("forall y. P x. Less(y, x) | x = y"))
    assert not satisfies(M, parse_fo("forall y. P x. Less(x, y)"))


def test_unbound_name_raises(M):
    with pytest.raises(ValueError):
        satisfies(M, parse_fo("R(z)"))


@pytest.mark.parametrize("text, message", [
    ("false & R(z)", "unbound name 'z'"),
    ("R(z) & false", "unbound name 'z'"),
    ("true | s(z) = c", "unbound name 'z'"),
    ("false -> Less(c)", "relation Less expects 2 arguments"),
    ("forall x. ~R(x) | R(x, x)", "relation R expects 1 arguments"),
    ("exists x. true | t(x) = c", "no function value for t(0,)"),
    ("P x. R(s(x, x))", "no function value for s(0, 0)"),
])
def test_evaluation_errors_do_not_depend_on_evaluation_order(M, text,
                                                              message):
    # every atom is evaluated, so the operand that would decide first does
    # not hide an error in the other one
    with pytest.raises(EvaluationError) as exc:
        satisfies(M, parse_fo(text))
    assert str(exc.value) == message


def test_terms_and_formulas_are_not_interchangeable(M):
    for f in (Name("x"), Not(App("s", (Name("x"),))),
              Rel("R", (Top(),)), Eq(Name("x"), Bottom())):
        with pytest.raises(AssertionError, match="misplaced node"):
            satisfies(M, f, {"x": 0})


def test_structure_validation():
    with pytest.raises(ValueError, match="universe"):
        PlausibleStructure(2, {}, {}, {},
                           PseudoTopology(3, frozenset([7])))
    with pytest.raises(ValueError, match="invalid opens"):
        structure(2, [1, 2, 3])
    with pytest.raises(ValueError, match="total"):
        structure(2, [1, 3], functions={"f": [((0,), 1)]})
    with pytest.raises(ValueError, match="out of range"):
        structure(2, [1, 3], constants={"c": 5})


def test_json_round_trip(M):
    doc = M.to_json()
    assert doc["omega"] == [4, 5, 6, 7]
    assert PlausibleStructure.from_json(doc) == M
    assert PlausibleStructure.from_json(doc).to_json() == doc


def test_check_axioms_on_principal_structure():
    # principal opens make the quantifier behave like "holds at the point"
    M = PlausibleStructure(3, {"R": frozenset([(0,), (2,)]),
                               "Q": frozenset([(2,)])},
                           {}, {}, PseudoTopology(3, frozenset(range(4, 8))))
    report = check_axioms(M, parse_fo("R(x)"), parse_fo("Q(x)"), "x")
    assert report.all_hold()


def test_check_axioms_finds_the_known_monotonicity_failure():
    # smallest found failure of the monotonicity axiom: the set defined by
    # phi is open, psi defines a strictly larger set that is not open
    M = structure(3, [4, 7], relations={"R": [(2,)], "S": [(1,), (2,)]})
    report = check_axioms(M, parse_fo("R(x)"), parse_fo("S(x)"), "x")
    assert report.a1 and report.a2 and report.a3 and report.a4 and report.a6
    assert not report.a5


def test_alphabetic_variant_invariance(M):
    f = parse_fo("P x. R(x)")
    g = parse_fo("P y. R(y)")
    assert satisfies(M, f) == satisfies(M, g)
    report = check_axioms(M, parse_fo("R(x)"), parse_fo("Less(c, x)"), "x")
    assert report.a6


def test_unary_structures_range_is_checked_at_the_call():
    assert sum(1 for _ in unary_structures(1)) == 4
    for bad in (0, -1, MAX_UNIVERSE + 1):
        with pytest.raises(ValueError, match=f"max_domain must be in "
                                             f"1..{MAX_UNIVERSE}, got {bad}"):
            unary_structures(bad)


# ---------------------------------------------------------------------------
# the recursive interpreter, kept as the reference the compiled evaluator
# is compared with

def _reference_term(M: PlausibleStructure, t: Formula,
                    env: dict[str, int]) -> int:
    if isinstance(t, Name):
        if t.name in env:
            return env[t.name]
        if t.name in M.constants:
            return M.constants[t.name]
        raise EvaluationError(f"unbound name {t.name!r}")
    args = tuple(_reference_term(M, a, env) for a in t.args)
    try:
        return M.functions[t.func][args]
    except KeyError:
        raise EvaluationError(f"no function value for {t.func}{args}") from None


def reference_satisfies(M: PlausibleStructure, f: Formula,
                        assignment: Optional[dict[str, int]] = None,
                        eager: bool = False) -> bool:
    """Tarskian satisfaction, one assignment at a time.  ``&``, ``|`` and
    ``->`` skip their right operand once the left decides; with ``eager``
    both operands are evaluated first, so every atom is reached."""
    env = dict(assignment or {})

    def sat(g: Formula, env: dict[str, int]) -> bool:
        if eager and isinstance(g, BINARY):
            sat(g.left, env), sat(g.right, env)
        if isinstance(g, Rel):
            table = M.relations.get(g.name, frozenset())
            values = tuple(_reference_term(M, a, env) for a in g.args)
            if table:
                arity = len(next(iter(table)))
                if arity != len(values):
                    raise EvaluationError(
                        f"relation {g.name} expects {arity} arguments")
            return values in table
        if isinstance(g, Eq):
            return _reference_term(M, g.left, env) == \
                _reference_term(M, g.right, env)
        if isinstance(g, Not):
            return not sat(g.child, env)
        if isinstance(g, And):
            return sat(g.left, env) and sat(g.right, env)
        if isinstance(g, Or):
            return sat(g.left, env) or sat(g.right, env)
        if isinstance(g, Implies):
            return (not sat(g.left, env)) or sat(g.right, env)
        if isinstance(g, Iff):
            return sat(g.left, env) == sat(g.right, env)
        if isinstance(g, Binder):
            hits = [b for b in range(M.domain_size)
                    if sat(g.body, {**env, g.var: b})]
            if isinstance(g, Forall):
                return len(hits) == M.domain_size
            if isinstance(g, Exists):
                return bool(hits)
            mask = sum(1 << b for b in hits)
            return mask in M.omega.opens
        if isinstance(g, Top):
            return True
        if isinstance(g, Bottom):
            return False
        raise AssertionError(g)

    return sat(f, env)


def _outcome(evaluate, *args, **kwargs):
    """The verdict, or the message of the EvaluationError raised."""
    try:
        return evaluate(*args, **kwargs)
    except EvaluationError as error:
        return str(error)


VARIABLES = ("x", "y", "z")
_terms = st.recursive(
    st.sampled_from([Name(v) for v in (*VARIABLES, "c")]),
    lambda inner: inner.map(lambda t: App("f", (t,))), max_leaves=3)
_binders = st.tuples(st.sampled_from([Forall, Exists, Plaus]),
                     st.sampled_from(VARIABLES))
_matrices = st.recursive(
    st.one_of(
        _terms.map(lambda t: Rel("R", (t,))),
        st.tuples(_terms, _terms).map(lambda ts: Rel("L", ts)),
        st.just(Rel("S", ())),
        st.tuples(_terms, _terms).map(lambda ts: Eq(*ts)),
        st.sampled_from([Top(), Bottom()])),
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(st.sampled_from(BINARY), children, children)
        .map(lambda t: t[0](t[1], t[2])),
        st.tuples(_binders, children).map(lambda t: t[0][0](t[0][1], t[1]))),
    max_leaves=8)
# a prefix of up to three binders, so that binders nest and shadow often
_fo_formulas = st.tuples(st.lists(_binders, max_size=3), _matrices).map(
    lambda t: functools.reduce(lambda f, b: b[0](b[1], f), t[0], t[1]))


@st.composite
def _structures(draw):
    """Domain 1-3, any space on it, R unary, L binary, S 0-ary, f unary
    and one constant c, with a random assignment to x, y and maybe z."""
    d = draw(st.integers(1, 3))
    points = st.integers(0, d - 1)
    # the relations as bitmasks over their tuples
    r, l2, s0 = (draw(st.integers(0, (1 << d ** n) - 1)) for n in (1, 2, 0))
    M = PlausibleStructure(
        d,
        {"R": frozenset((a,) for a in range(d) if r >> a & 1),
         "L": frozenset(divmod(a, d) for a in range(d * d) if l2 >> a & 1),
         "S": frozenset([()] * s0)},
        {"f": {(a,): draw(points) for a in range(d)}},
        {"c": draw(points)},
        draw(st.sampled_from(list(enumerate_spaces(d)))))
    # z is sometimes unbound
    return M, draw(st.fixed_dictionaries({"x": points, "y": points},
                                         optional={"z": points}))


@settings(max_examples=200, deadline=None)
@given(_fo_formulas, _structures())
def test_satisfies_matches_the_recursive_reference(f, model):
    M, assignment = model
    got = _outcome(satisfies, M, f, assignment)
    if isinstance(got, bool):
        # so wherever the reference raises, the compiled evaluator does too
        assert got == _outcome(reference_satisfies, M, f, assignment)
    # it raises exactly where a reference that reaches every atom does
    eager = _outcome(reference_satisfies, M, f, assignment, eager=True)
    assert isinstance(got, str) == isinstance(eager, str)
