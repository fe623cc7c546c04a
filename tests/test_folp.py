import dis
import functools
import tracemalloc
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from plausible import folp
from plausible.folp import (App, AxiomReport, Eq, EvaluationError, Exists,
                            Forall, Name, Plaus, PlausibleStructure, Rel,
                            _compiled, _instances, _names, check_axioms,
                            parse_fo, rename_bound, satisfies,
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
    assert _names(parse_fo("forall x. true -> R(x)")) == {"x"}
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


def test_free_names_and_rename(M):
    f = parse_fo("forall x. Less(x, y)")
    # y is free, x is not: only y must be assigned
    with pytest.raises(EvaluationError, match="^unbound name 'y'$"):
        satisfies(M, f)
    assert satisfies(M, f, {"y": 0}) is False
    assert _names(f) == {"x", "y"}
    assert _names(App("s", (Name("x"), Name("c")))) == {"x", "c"}
    assert _names(parse_fo("P z. s(x) = c")) == {"x", "c", "z"}
    g = rename_bound(f.body, "y", "z")
    assert g == parse_fo("Less(x, z)")
    assert rename_bound(f, "x", "z") == f
    # a term inside an equation under a binder, and a name that is absent
    h = parse_fo("exists x. s(y, x) = y")
    assert rename_bound(h, "y", "z") is parse_fo("exists x. s(z, x) = z")
    assert rename_bound(f, "q", "z") is f


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
    # the last one meets x as a term before it meets it as a formula
    for f in (Name("x"), Not(App("s", (Name("x"),))),
              Rel("R", (Top(),)), Eq(Name("x"), Bottom()),
              And(Eq(Name("x"), Name("x")), Name("x"))):
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


def test_relation_tables_are_checked_on_every_construction():
    # the check is memoised per table and name and caches no error, so a
    # bad table raises each time, naming the relation it is given as
    omega = PseudoTopology(2, frozenset([1, 3]))
    for name in ("R", "Q", "R"):
        with pytest.raises(ValueError,
                           match=f"^relation {name} tuple out of range$"):
            PlausibleStructure(2, {name: frozenset([(0,), (2,)])}, {}, {},
                               omega)
        with pytest.raises(ValueError,
                           match=f"^mixed arity in relation {name}$"):
            PlausibleStructure(2, {name: {(0,), (0, 1)}}, {}, {}, omega)
    # a plain set is accepted, and reads as the frozenset does
    M = PlausibleStructure(2, {"R": {(1,)}}, {}, {}, omega)
    assert satisfies(M, parse_fo("R(x)"), {"x": 1})
    assert not satisfies(M, parse_fo("P x. R(x)"))
    # so is a generator, which the check reads to its end: the structure
    # keeps the table it checked
    M = PlausibleStructure(2, {"R": ((i,) for i in range(2))}, {}, {},
                           PseudoTopology(2, {3}))
    assert satisfies(M, parse_fo("forall x. R(x)"))
    assert M.relations == {"R": frozenset([(0,), (1,)])}


def test_a_structure_holds_read_only_copies_of_its_tables():
    relations = {"R": frozenset({(0,)})}
    functions = {"f": {(0,): 1, (1,): 0}}
    constants = {"c": 0}
    M = PlausibleStructure(2, relations, functions, constants,
                           PseudoTopology(2, {3}))
    sentences = [parse_fo(text) for text in (
        "exists x. R(x)", "forall x. R(x)", "R(f(c))", "f(c) = c",
        "exists x. S(x)")]
    doc, verdicts = M.to_json(), [satisfies(M, f) for f in sentences]
    # the caller's dicts change afterwards, the structure does not: an
    # out-of-range row, an unhashable table, a new graph entry, a constant
    relations["R"] = frozenset({(0,), (1,), (7,)})
    relations["S"] = [(0,)]
    functions["f"][(0,)] = 0
    constants["c"] = 1
    assert M.to_json() == doc
    assert [satisfies(M, f) for f in sentences] == verdicts
    assert M.relations is not relations
    for table in (M.relations, M.functions, M.functions["f"], M.constants):
        with pytest.raises(TypeError):
            table["R"] = frozenset()
    assert M.to_json() == doc


@pytest.mark.parametrize("relations, functions, constants, message", [
    ({"R": {("a",)}}, {}, {}, "relation R rows"),
    ({"Q": {1, 2}}, {}, {}, "relation Q rows"),
    ({"R": {(0.5,)}}, {}, {}, "relation R rows"),
    ({"R": {(True,)}}, {}, {}, "relation R rows"),
    ({}, {"f": {0: 1, 1: 0}}, {}, "function f graph"),
    ({}, {"f": {(0,): True, (1,): 0}}, {}, "function f graph"),
    ({}, {"g": {(0.0,): 1, (1,): 0}}, {}, "function g graph"),
    ({}, {}, {"c": "x"}, "constant c must be an integer"),
    ({}, {}, {"k": True}, "constant k must be an integer"),
    ({}, {"f": {(0,): 1, (0, 1): 0}}, {}, "function f graph must be total "
                                          "and of one arity"),
    ({}, {"f": {(0,): 2, (1,): 0}}, {}, "function f value out of range"),
    ({"R": [[0]]}, {}, {}, "relation R rows must be tuples of integers$"),
    ({"R": 5}, {}, {}, "relation R rows must be tuples of integers$"),
    ({}, {"f": {(0,): 1, (5,): 0}}, {}, "function f argument out of range$"),
    ({}, {"f": {(0,): 1, (-1,): 0}}, {}, "function f argument out of "
                                         "range$"),
])
def test_ill_typed_entries_are_rejected(relations, functions, constants,
                                        message):
    omega = PseudoTopology(2, frozenset([1, 3]))
    # an equal table of ints is checked first: True == 1, so the memoised
    # check must not let the bools through on the ints' verdict
    PlausibleStructure(2, {"R": frozenset([(1,)])}, {}, {}, omega)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{message}"):
            PlausibleStructure(2, relations, functions, constants, omega)


def test_json_round_trip(M):
    assert M.to_json()["omega"] == [4, 5, 6, 7]
    # every structure that can be built reads back from its document
    for N in (M, *unary_structures(2)):
        doc = N.to_json()
        assert PlausibleStructure.from_json(doc) == N
        assert PlausibleStructure.from_json(doc).to_json() == doc


def test_check_axioms_on_principal_structure():
    # principal opens make the quantifier behave like "holds at the point"
    M = PlausibleStructure(3, {"R": frozenset([(0,), (2,)]),
                               "Q": frozenset([(2,)])},
                           {}, {}, PseudoTopology(3, frozenset(range(4, 8))))
    report = check_axioms(M, parse_fo("R(x)"), parse_fo("Q(x)"), "x")
    assert all(report)


def test_check_axioms_finds_the_known_monotonicity_failure():
    # smallest found failure of the monotonicity axiom: the set defined by
    # phi is open, psi defines a strictly larger set that is not open
    M = structure(3, [4, 7], relations={"R": [(2,)], "S": [(1,), (2,)]})
    report = check_axioms(M, parse_fo("R(x)"), parse_fo("S(x)"), "x")
    assert report.a1 and report.a2 and report.a3 and report.a4 and report.a6
    assert not report.a5


def _reference_report(M, phi, psi, x):
    *schemas, plaus, variant = (reference_satisfies(M, s)
                                for s in _instances(phi, psi, x))
    return AxiomReport(*schemas, plaus == variant)


def test_alphabetic_variant_does_not_capture():
    # x renamed to a name bound inside phi would be captured by that
    # binder: the variant must be P v1. exists v0. R(v1, v0)
    phi = parse_fo("exists v0. R(x, v0)")
    psi = parse_fo("R(x, x)")
    assert _instances(phi, psi, "x")[-1] is \
        parse_fo("P v1. exists v0. R(v1, v0)")
    omega = PseudoTopology(2, frozenset([1, 3]))
    for mask in range(16):
        M = PlausibleStructure(
            2, {"R": frozenset(divmod(a, 2) for a in range(4)
                               if mask >> a & 1)}, {}, {}, omega)
        report = check_axioms(M, phi, psi, "x")
        assert report == _reference_report(M, phi, psi, "x")
        assert report.a6


def test_alphabetic_variant_invariance(M):
    f = parse_fo("P x. R(x)")
    g = parse_fo("P y. R(y)")
    assert satisfies(M, f) == satisfies(M, g)
    report = check_axioms(M, parse_fo("R(x)"), parse_fo("Less(c, x)"), "x")
    assert report.a6


def test_alpha_equivalent_nodes_share_a_slot():
    f, g = parse_fo("P x. R(x)"), parse_fo("P y. R(y)")
    for d in range(1, MAX_UNIVERSE + 1):
        # the variant adds no local: both formulas read one value
        assert _compiled((f, g), d).__code__.co_varnames == \
            _compiled((f,), d).__code__.co_varnames
    # a bound name keeps its digit: the inner x is not the outer one
    shadowed = parse_fo("forall x. (R(x) & exists x. S(x))")
    for M in unary_structures(3):
        assert satisfies(M, shadowed) == reference_satisfies(M, shadowed)


@pytest.mark.parametrize("text", [
    "(P x. R(x) & S(x)) -> forall x. R(x) | S(x)",
    "forall x. exists y. L(x, y) & f(x) = y & (R(c) <-> x = c)",
    "P x. exists x. R(x) & ~S & R(z) & true | false",
])
def test_every_stored_local_is_read(text):
    # each local a run stores is loaded later, by an assignment or the
    # return: the walk writes no dead copy of a value
    phi, psi = parse_fo("R(x)"), parse_fo("S(x)")
    for formulas in ((parse_fo(text),), _instances(phi, psi, "x")):
        for d in range(1, MAX_UNIVERSE + 1):
            code = _compiled(formulas, d).__code__
            stored, loaded = set(), set()
            for instruction in dis.get_instructions(code):
                if instruction.opname == "STORE_FAST":
                    stored.add(instruction.argval)
                elif instruction.opname == "LOAD_FAST":
                    loaded.add(instruction.argval)
            locals_ = {name for name in stored if name.startswith("v")}
            assert locals_ and locals_ <= loaded


@pytest.mark.parametrize("value, message", [
    (99, "assignment to 'x' out of range"),
    (-1, "assignment to 'x' out of range"),
    (2, "assignment to 'x' out of range"),
    (True, "assignment to 'x' must be an integer, got True"),
    (1.0, "assignment to 'x' must be an integer, got 1.0"),
    ("a", "assignment to 'x' must be an integer, got 'a'"),
])
def test_assignments_must_be_points_of_the_domain(value, message):
    M = structure(2, [1, 3], relations={"R": [(0,)]})
    for text in ("x = x", "exists y. x = y", "R(c)"):
        with pytest.raises(EvaluationError, match=f"^{message}$"):
            satisfies(M, parse_fo(text), {"x": value})
    assert satisfies(M, parse_fo("exists y. x = y"), {"x": 1})


@pytest.mark.parametrize("size", [True, False, 0, -1, 2.0, "2", None])
def test_domain_size_must_be_a_positive_integer(size):
    with pytest.raises(ValueError, match="^domain_size must be a positive "
                                         f"integer, got {size!r}$"):
        PlausibleStructure(size, {}, {}, {}, PseudoTopology(1, {1}))


def test_relation_masks_keep_the_evaluation_contract():
    omega = PseudoTopology(2, frozenset([1, 3]))
    good = PlausibleStructure(2, {"R": frozenset([(1,)])}, {}, {}, omega)
    pairs = frozenset([(0, 1)])
    bad = PlausibleStructure(2, {"R": pairs, "Q": pairs}, {}, {}, omega)
    for _ in range(2):
        assert satisfies(good, parse_fo("exists x. R(x)"))
        # the memo caches no error, so each call raises, naming the
        # relation the table is read as
        for name in ("R", "Q"):
            with pytest.raises(EvaluationError,
                               match=f"^relation {name} expects 2 "
                                     f"arguments$"):
                satisfies(bad, parse_fo(f"exists x. {name}(x)"))
    # one table under two names, and a plain set, read as a frozenset does
    assert satisfies(bad, parse_fo("forall x. exists y. "
                                   "R(x, y) <-> Q(x, y)"))
    assert satisfies(bad, parse_fo("exists x. exists y. R(x, y) & Q(x, y)"))
    plain = PlausibleStructure(2, {"R": {(1,)}}, {}, {}, omega)
    for _ in range(2):
        assert satisfies(plain, parse_fo("exists x. R(x)"))
        assert not satisfies(plain, parse_fo("forall x. R(x)"))
    # an empty table, or an absent one of any arity, reads as empty
    empty = PlausibleStructure(2, {"R": frozenset()}, {}, {}, omega)
    assert not satisfies(empty, parse_fo("exists x. R(x) | S(x, x)"))


def test_unary_structures_range_is_checked_at_the_call():
    assert sum(1 for _ in unary_structures(1)) == 4
    for bad in (0, -1, MAX_UNIVERSE + 1):
        with pytest.raises(ValueError, match=f"max_domain must be in "
                                             f"1..{MAX_UNIVERSE}, got {bad}"):
            unary_structures(bad)


def test_names_reach_the_program_as_values_not_text():
    # the compiled function's source holds only slot numbers and integers,
    # so a name of any text is looked up, never parsed
    M = structure(2, [1, 3], relations={"R": [(0,)]})
    odd = 'x") + (\n\'k0'
    with pytest.raises(EvaluationError, match="unbound name"):
        satisfies(M, Rel("R", (Name(odd),)))
    assert satisfies(M, Rel("R", (Name(odd),)), {odd: 0})
    assert not satisfies(M, Rel(odd, ()))
    assert not satisfies(M, Exists(odd, Rel(odd, (Name(odd),))))
    assert satisfies(M, Exists(odd, Rel("R", (Name(odd),))))


def test_masks_wider_than_the_decimal_digit_limit():
    # seven binders on four points give 4^7 = 16384-bit masks, whose
    # decimal form is beyond Python's default integer-string limit
    def forall_seven(matrix):
        return functools.reduce(lambda g, i: Forall(f"x{i}", g), range(7),
                                matrix)

    r0, r6 = Rel("R", (Name("x0"),)), Rel("R", (Name("x6"),))
    M = structure(4, [15], relations={"R": [(1,)]})
    assert satisfies(M, forall_seven(Or(r0, Not(r0))))
    assert not satisfies(M, forall_seven(Or(r0, r6)))


def _four_binders(i, j):
    # forall x0..x3. ~R(xi, xj) | R(xi, xj): a tautology over d^4
    # assignments whose relation reads two digit columns
    r = Rel("R", (Name(f"x{i}"), Name(f"x{j}")))
    return functools.reduce(lambda g, k: Forall(f"x{k}", g), range(4),
                            Or(Not(r), r))


def test_programs_hold_only_text_names_and_small_integers():
    # on 32 points four binders make 2^20 assignments: the program keeps
    # no digit column and no mask of that width, only helpers, names and
    # integers the compiler folds (at most 128 bits)
    for d in (16, 32):
        run = _compiled((_four_binders(0, 1),), d)
        for name, value in run.__globals__.items():
            if name != "__builtins__":
                assert isinstance(value, str) \
                    or value is getattr(folp, name, None), name
        consts = [*run.__code__.co_consts]
        for const in consts:
            if isinstance(const, tuple):
                consts.extend(const)
            elif isinstance(const, int):
                assert const.bit_length() <= 128, d


def test_cached_programs_retain_little():
    # twelve four-binder sentences on 16 points (65536 assignments each)
    # leave their programs cached and their relation masks memoised, and
    # hold less than 1 MiB
    M = structure(16, [(1 << 16) - 1], relations={"R": [(0, 1), (2, 3)]})
    sentences = [_four_binders(i, j) for i in range(4) for j in range(4)
                 if i != j]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for f in sentences:
            assert satisfies(M, f)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20
    misses = _compiled.cache_info().misses
    for f in sentences:
        _compiled((f,), 16)
    assert _compiled.cache_info().misses == misses


def test_wide_programs_are_kept_small():
    # four binders on 24 points: 331776 assignments, past the widest scope
    # the relation memo keeps; the programs are cached, and each builds its
    # two digit columns of 2.5 MiB as it runs and drops them when it ends
    M = structure(24, [(1 << 24) - 1], relations={"R": [(0, 1), (2, 3)]})
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j][:8]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, j in pairs:
            assert satisfies(M, _four_binders(i, j))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 16 << 20


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
def _structures(draw, domain_size=None):
    """Domain 1-4 unless given, any space on it, R unary, L binary, S
    0-ary, f unary and one constant c, with a random assignment to x, y
    and maybe z."""
    d = domain_size or draw(st.integers(1, MAX_UNIVERSE))
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


def _assert_agrees_with_the_reference(M, f, assignment):
    got = _outcome(satisfies, M, f, assignment)
    if isinstance(got, bool):
        # so wherever the reference raises, the compiled evaluator does too
        assert got == _outcome(reference_satisfies, M, f, assignment)
    # it raises exactly where a reference that reaches every atom does
    eager = _outcome(reference_satisfies, M, f, assignment, eager=True)
    assert isinstance(got, str) == isinstance(eager, str)


@settings(max_examples=200, deadline=None)
@given(_fo_formulas, _structures())
def test_satisfies_matches_the_recursive_reference(f, model):
    M, assignment = model
    _assert_agrees_with_the_reference(M, f, assignment)


@settings(max_examples=20, deadline=None)
@given(_fo_formulas, st.data())
def test_one_formula_on_every_domain_size(f, data):
    # the formula's program is compiled once for each size, in one process
    for d in range(1, MAX_UNIVERSE + 1):
        M, assignment = data.draw(_structures(d))
        _assert_agrees_with_the_reference(M, f, assignment)


# matrices whose only free variable is x: y and z are bound around them
_x_matrices = st.tuples(st.sampled_from([Forall, Exists, Plaus]),
                        st.sampled_from([Forall, Exists, Plaus]),
                        _matrices).map(lambda t: t[0]("y", t[1]("z", t[2])))


@settings(max_examples=100, deadline=None)
@given(_x_matrices, _x_matrices, _structures())
def test_check_axioms_matches_the_recursive_reference(phi, psi, model):
    M, _ = model
    report = check_axioms(M, phi, psi, "x")
    assert report == _reference_report(M, phi, psi, "x")
    # a1-a4 and a6 are axioms of the logic; a5 is not
    assert (report.a1, report.a2, report.a3, report.a4, report.a6) == \
        (True,) * 5
