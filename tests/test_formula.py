import copy
import gc
import itertools
import pickle
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

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


class _ReferenceParser:
    """The earlier parser, kept as the reference of the differential
    property: one ``match`` call per token, then recursive descent with one
    method per binary connective, loosest first."""

    token_re = re.compile(
        r"\s*(?:(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)|(?P<op><->|->|[~#&|()]))")

    def __init__(self, text):
        self.tokens = self._tokenize(text)
        self.i = 0

    def _tokenize(self, text):
        tokens = []
        pos = 0
        match = self.token_re.match
        while pos < len(text):
            m = match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise ParseError(f"unexpected character {stripped[0]!r}",
                                 len(text) - len(stripped),
                                 ("atom", "operator"))
            if m.group("ident"):
                tokens.append(("ident", m.group("ident"), m.start("ident")))
            else:
                tokens.append((m.group("op"), m.group("op"), m.start("op")))
            pos = m.end()
        tokens.append(("end", "", len(text)))
        return tokens

    def parse(self):
        f = self.formula()
        self.take("end")
        return f

    def peek(self):
        return self.tokens[self.i]

    def error(self, expected):
        _, value, offset = self.peek()
        return ParseError(f"unexpected {value!r}" if value
                          else "unexpected end of input", offset, expected)

    def take(self, kind):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise self.error((kind,))
        self.i += 1
        return tok

    def formula(self):
        left = self.implication()
        if self.peek()[0] == "<->":
            self.take("<->")
            return Iff(left, self.formula())
        return left

    def implication(self):
        left = self.disjunction()
        if self.peek()[0] == "->":
            self.take("->")
            return Implies(left, self.implication())
        return left

    def disjunction(self):
        left = self.conjunction()
        while self.peek()[0] == "|":
            self.take("|")
            left = Or(left, self.conjunction())
        return left

    def conjunction(self):
        left = self.unary()
        while self.peek()[0] == "&":
            self.take("&")
            left = And(left, self.unary())
        return left

    def unary(self):
        kind = self.peek()[0]
        op = {"~": Not, "#": Nabla}.get(kind)
        if op is not None:
            self.take(kind)
            return op(self.unary())
        if kind == "(":
            self.take("(")
            inner = self.formula()
            self.take(")")
            return inner
        return self.primary()

    def primary(self):
        kind, value, _ = self.peek()
        if kind != "ident":
            raise self.error(ANY)
        self.take("ident")
        if value == "true":
            return Top()
        if value == "false":
            return Bottom()
        return Atom(value)


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return exc.offset, exc.expected, str(exc)


# atoms and operators several times over, so that some soups parse
_SOUP = ["p", "q", "x_1", "true", "false", "truex", "~", "#", "&", "|",
         "->", "<->", "(", ")"] * 3 + [
    " ", "  ", "\t", "\n", "\x0b", "\x1c", "\u00a0", "\u2003", "\u2028",
    "=", ".", "é", ",", "-", "<", ">", "<-", "1"]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_SOUP), max_size=24).map("".join),
                 formula_strategy().map(render)))
def test_parse_agrees_with_the_reference_parser(text):
    """The same formula object, or a ParseError with the same offset,
    expectations and message; rendered formulas add texts that parse."""
    assert _outcome(parse, text) == \
        _outcome(lambda t: _ReferenceParser(t).parse(), text)


def test_parse_nests_400_parentheses():
    assert parse("(" * 400 + "p" + ")" * 400) is p


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
    for name in (5, None, b"p", ["p"]):
        with pytest.raises(ValueError, match="bad atom name"):
            Atom(name)


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


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_are_the_interned_node(duplicate):
    from plausible import folp
    for f in (Nabla(And(p, Not(q))), folp.parse_fo("forall x. P y. "
                                                   "s(x, c) = y | R(y)")):
        assert duplicate(f) is f


def test_nodes_take_exactly_their_fields():
    from plausible.folp import Name, Rel
    for cls, fields, message in ((Not, (p, q), "Not takes 1 arguments"),
                                 (And, (p,), "And takes 2 arguments"),
                                 (Rel, ("R",), "Rel takes 2 arguments"),
                                 (Name, (), "Name takes 1 arguments")):
        with pytest.raises(TypeError, match=f"^{message}$"):
            cls(*fields)


def test_deep_formula_hashes_without_recursion():
    f = p
    for _ in range(100_000):
        f = Not(f)
    assert f in {f}
    assert Not(f.child) is f
    assert {f: 1}[f] == 1


def test_intern_table_drops_dead_formulas():
    # the bare table: without the ring of recent nodes, a node lives
    # exactly while it is referenced
    formula._RECENT.clear()
    gc.collect()
    before = len(formula._INTERN)
    fs = [Nabla(And(Atom(f"x{i}"), q)) for i in range(1000)]
    assert len(formula._INTERN) >= before + 3000
    del fs
    formula._RECENT.clear()
    gc.collect()
    assert len(formula._INTERN) == before


def test_intern_table_keeps_the_last_nodes_built():
    formula._RECENT.clear()
    gc.collect()
    before = len(formula._INTERN)
    key = (Atom, "recent")
    Atom("recent")
    assert formula._INTERN[key]() is not None  # unreferenced, yet kept
    kept = formula._RECENT.maxlen
    for i in range(kept):  # with no gc.collect(): eviction frees at once
        Atom(f"later{i}")
        assert (key in formula._INTERN) == (i < kept - 1)
    assert len(formula._INTERN) == before + kept
    formula._RECENT.clear()
    assert len(formula._INTERN) == before


def _calls():
    from plausible import algebra, folp, pseudotopology, sampling, tableau
    f = parse("#(p & q) -> #p | ~r")
    result = tableau.prove([], f)
    space = pseudotopology.PseudoTopology(2, {1, 3})
    M = folp.PlausibleStructure(2, {"R": {(0,)}, "S": {(1,)}}, {}, {}, space)
    phi, psi = folp.parse_fo("R(x)"), folp.parse_fo("S(x)")
    g = folp.parse_fo("forall x. P y. R(x) | S(y)")
    return {
        "parse": lambda: parse("#(p & q) -> #p | ~r"),
        "render": lambda: render(f),
        "prove": lambda: tableau.prove([], f),
        "to_text": result.to_text,
        "find_countermodel": lambda: algebra.find_countermodel(f),
        "is_classical_tautology": lambda: is_classical_tautology(f),
        "pseudo_atoms": lambda: formula.pseudo_atoms(f),
        "satisfies": lambda: folp.satisfies(M, g),
        # past the cache: a program compiled afresh
        "_compiled": lambda: folp._compiled.__wrapped__((g, phi), 2),
        "check_axioms": lambda: folp.check_axioms(M, phi, psi, "x"),
        "random_formula": lambda: sampling.random_formula(random.Random(3),
                                                          12),
        "corpus": lambda: sampling.corpus(1, 5),
    }


@pytest.mark.parametrize("name", list(_calls()))
def test_calls_leave_no_reference_cycles(name):
    # so a node dies when its last reference goes, not at a collection
    call = _calls()[name]
    call()  # warm: caches filled on the first call are not garbage
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_threads_never_build_twin_nodes():
    formula._RECENT.clear()
    gc.collect()
    before = len(formula._INTERN)
    barrier = threading.Barrier(4, timeout=30)
    built = [None] * 4

    def build(slot):
        barrier.wait()
        built[slot] = [Nabla(And(Atom(f"twin{i}"), Not(Atom(f"twin{i}"))))
                       for i in range(500)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=build, args=(slot,))
                   for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(f is g for fs in built[1:] for f, g in zip(fs, built[0]))
    assert len(formula._INTERN) == before + 2000
    del built
    formula._RECENT.clear()
    gc.collect()
    assert len(formula._INTERN) == before


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
    assert algebra._first_failure(Not(conj), units, 1) == 2 ** 17 - 1
    assert 2 ** 17 > algebra._BLOCK_ELEMENTS
