"""Finite model checking for the first-order logic of the plausible.

Structures are finite first-order structures whose domain carries a
pseudo-topology; the plausibility quantifier ``P x. phi`` holds when the
set defined by phi is one of the opens.

The language shares the formula core of ``formula``: its connectives are
``Not``, ``And``, ``Or``, ``Implies`` and ``Iff``, its nodes are interned,
``formula.render`` prints it and ``parse_fo`` runs the shared parser.  The
grammar keeps the constants ``true`` and ``false`` and adds ``forall x.``,
``exists x.``, ``P x.`` (each scoping as far to the right as possible),
predicate application ``R(t, ...)`` and equality ``t1 = t2``; ``#`` is not
part of it.

Formulas are evaluated as definable sets.  ``_compiled`` walks a tuple of
formulas once and writes the source of one Python function per (formulas,
domain size), compiled once and cached, so a sweep of one sentence over
thousands of structures pays no per-node dispatch.  Each node is read in
its scope, the variables bound around it, innermost first.  On a domain
of size d, assignment i of a scope of k variables gives ``scope[j]``
digit k - 1 - j of i in base d.  A term's value lists its element at each
of the d^k assignments and a formula's value is the d^k-bit mask of those
where it holds.  A binder's variable is the most significant digit of its
body, so the body's mask is d chunks of d^k bits: ``forall`` ANDs them,
``exists`` ORs them and ``P`` asks, at each assignment, whether the d-bit
set gathered from the chunks is open.  Time is O(d^k) per atom, as for an
interpreter that tries one assignment at a time, but where such an
interpreter holds O(k) values, each value here holds d^k bits or
elements, k the binder depth; a scope of more than 2^20 assignments
raises ``EvaluationError`` before anything is run.

Each distinct value is assigned to one local of the program, with sizes,
digit positions and chunk shifts written in as integers and names as
globals, never as source text.  A bound name reads as ``_column`` of its
digit position, so alpha-equivalent nodes, such as ``P x. R(x)`` and
``P y. R(y)``, share one local.  Connectives, ``forall``, ``exists`` and
``P`` on a sentence are inline bit operations; atoms, free names and
``P`` under a binder call small helpers that raise ``EvaluationError``
where the run reaches them.  The mask of a relation on bound names
depends on its table alone, so it is memoised (``_relation_mask``).
``check_axioms`` returns one shared ``AxiomReport`` per tuple of verdicts.

A structure checks every field before it is built, and holds read-only
copies of its tables, so a caller's later edit of a dict it passed in
changes nothing.  Each relation table is kept as a frozenset, checked
once per (domain size, table, name), as ``pseudotopology`` checks each
family once, so structures that share tables share the check.
"""

from __future__ import annotations

import functools
import itertools
import re
from types import MappingProxyType
from typing import Iterator, Optional

from . import formula, pseudotopology
from .formula import (BINARY, And, Binder, Bottom, Formula, Iff, Implies,
                      Not, Or, Top, render)
from .pseudotopology import PseudoTopology, _is_int, _record


# ---------------------------------------------------------------------------
# terms and formulas

class Name(Formula):
    """A variable or constant; which one is resolved at evaluation time."""
    __slots__ = _fields = ("name",)

    def _head(self) -> str:
        return self.name


def _application(name: str, args: tuple) -> str:
    return f"{name}({', '.join(render(a) for a in args)})"


class App(Formula):
    """A function applied to terms."""
    __slots__ = _fields = ("func", "args")

    def _head(self) -> str:
        return _application(self.func, self.args)


class Rel(Formula):
    __slots__ = _fields = ("name", "args")

    def _head(self) -> str:
        return _application(self.name, self.args) if self.args else self.name


class Eq(Formula):
    __slots__ = _fields = ("left", "right")

    def _head(self) -> str:
        return f"{render(self.left)} = {render(self.right)}"


class Forall(Binder):
    __slots__ = ()
    _word = "forall"


class Exists(Binder):
    __slots__ = ()
    _word = "exists"


class Plaus(Binder):
    __slots__ = ()
    _word = "P"


def _names(f: Formula) -> set[str]:
    """Every name in f, free or bound, binders' variables included; the
    symbols of relations and functions are not names."""
    if isinstance(f, Name):
        return {f.name}
    names = {f.var} if isinstance(f, Binder) else set()
    for field in f._fields:
        value = getattr(f, field)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Formula):
                names |= _names(child)
    return names


def rename_bound(f: Formula, old: str, new: str) -> Formula:
    """Replace free occurrences of a name (used for alphabetic variants)."""
    if isinstance(f, Name):
        return Name(new) if f.name == old else f
    if isinstance(f, Binder) and f.var == old:
        return f
    fields = []
    for field in f._fields:
        value = getattr(f, field)
        if isinstance(value, tuple):
            value = tuple(rename_bound(a, old, new) for a in value)
        elif isinstance(value, Formula):
            value = rename_bound(value, old, new)
        fields.append(value)
    return type(f)(*fields)


# ---------------------------------------------------------------------------
# structures

class EvaluationError(ValueError):
    pass


class PlausibleStructure(_record(
        "domain_size relations functions constants omega")):
    __slots__ = ()

    def __new__(cls, domain_size: int, relations: dict, functions: dict,
                constants: dict, omega: PseudoTopology):
        if not _is_int(domain_size) or domain_size < 1:
            raise ValueError(f"domain_size must be a positive integer, "
                             f"got {domain_size!r}")
        if omega.universe_size != domain_size:
            raise ValueError("opens-family universe must match the domain")
        if not (verdict := pseudotopology.validate(omega)):
            raise ValueError(f"invalid opens-family: {verdict.axiom}")
        tables = {}
        for name, table in relations.items():
            try:  # a frozenset comes back as itself, its id kept
                tables[name] = table = frozenset(table)
            except TypeError:  # not an iterable of hashable rows
                raise ValueError(f"relation {name} rows must be tuples of "
                                 "integers") from None
            _check_table(domain_size, table, id(table), name)
        graphs = {}
        for name, graph in functions.items():
            if not all(isinstance(t, tuple) and all(map(_is_int, t))
                       for t in graph) or not all(map(_is_int,
                                                      graph.values())):
                raise ValueError(f"function {name} graph must map tuples "
                                 "of integers to integers")
            arities = {len(t) for t in graph}
            if len(arities) != 1:
                raise ValueError(f"function {name} graph must be total and "
                                 "of one arity")
            if any(not 0 <= v < domain_size for t in graph for v in t):
                raise ValueError(f"function {name} argument out of range")
            if len(graph) != domain_size ** arities.pop():
                raise ValueError(f"function {name} graph is not total")
            if any(not 0 <= v < domain_size for v in graph.values()):
                raise ValueError(f"function {name} value out of range")
            graphs[name] = MappingProxyType(dict(graph))
        for name, v in constants.items():
            if not _is_int(v):
                raise ValueError(f"constant {name} must be an integer, "
                                 f"got {v!r}")
            if not 0 <= v < domain_size:
                raise ValueError(f"constant {name} out of range")
        return tuple.__new__(cls, (
            domain_size, MappingProxyType(tables), MappingProxyType(graphs),
            MappingProxyType(dict(constants)), omega))

    def to_json(self) -> dict:
        return {
            "domain_size": self.domain_size,
            "relations": {n: sorted(list(t) for t in table)
                          for n, table in sorted(self.relations.items())},
            "functions": {n: sorted([*k, v] for k, v in graph.items())
                          for n, graph in sorted(self.functions.items())},
            "constants": dict(sorted(self.constants.items())),
            "omega": sorted(self.omega.opens),
        }

    @classmethod
    def from_json(cls, doc) -> "PlausibleStructure":
        """The structure a ``to_json`` document describes.  A document of
        the wrong shape or types raises ValueError naming the key."""
        if not isinstance(doc, dict):
            raise ValueError(f"model must be a JSON object, got "
                             f"{type(doc).__name__}")
        for key in ("domain_size", "omega"):
            if key not in doc:
                raise ValueError(f"model has no {key!r}")
        size = doc["domain_size"]
        if not _is_int(size) or size < 1:
            raise ValueError(f"'domain_size' must be a positive integer, "
                             f"got {size!r}")
        omega = doc["omega"]
        if not isinstance(omega, list) or not all(map(_is_int, omega)):
            raise ValueError("'omega' must be a list of integers")
        relations = {name: _json_rows(table, f"relations.{name}")
                     for name, table in _json_object(doc, "relations").items()}
        functions = {}
        for name, graph in _json_object(doc, "functions").items():
            rows = _json_rows(graph, f"functions.{name}")
            if not all(rows):
                raise ValueError(f"'functions.{name}' rows must end in the "
                                 "value")
            graph = functions[name] = {}
            for row in rows:
                if row[:-1] in graph:
                    raise ValueError(f"'functions.{name}' lists the "
                                     f"argument {row[:-1]} twice")
                graph[row[:-1]] = row[-1]
        constants = _json_object(doc, "constants")
        for name, value in constants.items():
            if not _is_int(value):
                raise ValueError(f"'constants.{name}' must be an integer, "
                                 f"got {value!r}")
        return cls(domain_size=size, relations=relations,
                   functions=functions, constants=constants,
                   omega=PseudoTopology(size, omega))


@functools.lru_cache(maxsize=256)
def _check_table(domain_size: int, table: frozenset, identity: int,
                 name: str) -> None:
    """Raise ValueError if the relation table is wrong on the domain.
    Memoised per table and name, as ``pseudotopology.validate`` is per
    family: a sweep builds thousands of structures on a few dozen tables.
    The cache stores no error, so a bad table raises on every call.

    ``identity`` is ``id(table)``: a table of bools equals the table of
    ints (True == 1), so equality alone would let one pass as the other.
    An entry holds its table, so no other table takes that id while the
    entry lives."""
    if not all(isinstance(t, tuple) and all(map(_is_int, t))
               for t in table):
        raise ValueError(f"relation {name} rows must be tuples of integers")
    if len({len(t) for t in table}) > 1:
        raise ValueError(f"mixed arity in relation {name}")
    if any(not 0 <= v < domain_size for t in table for v in t):
        raise ValueError(f"relation {name} tuple out of range")


def _json_object(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"{key!r} must be a JSON object")
    return value


def _json_rows(value, key: str) -> list[tuple[int, ...]]:
    if not isinstance(value, list) or not all(
            isinstance(row, list) and all(map(_is_int, row))
            for row in value):
        raise ValueError(f"{key!r} must be a list of lists of integers")
    return [tuple(row) for row in value]


# ---------------------------------------------------------------------------
# satisfaction over definable sets

def _name(env: dict[str, int], constants: dict[str, int], name: str,
          size: int) -> list[int]:
    if name in env:
        return [env[name]] * size
    if name in constants:
        return [constants[name]] * size
    raise EvaluationError(f"unbound name {name!r}")


def _relation(relations: dict, name: str, size: int, *args) -> int:
    table = relations.get(name)
    if not table:
        return 0
    if (arity := len(next(iter(table)))) != len(args):
        raise EvaluationError(f"relation {name} expects {arity} arguments")
    return _mask([row in table
                  for row in (zip(*args) if args else [()] * size)])


@functools.lru_cache(maxsize=1024)
def _relation_mask(table: Optional[frozenset], name: str, d: int, k: int,
                   digits: tuple[int, ...]) -> int:
    """``_relation`` where every argument is a bound name, given by its
    digit position in a scope of k names: the mask depends only on the
    table (None when there is none), so it is memoised.  A wrong arity
    raises EvaluationError on every call: the cache stores no error."""
    return _relation({name: table}, name, d ** k,
                     *(_column(d, k, j) for j in digits))


def _column(d: int, k: int, j: int) -> tuple[int, ...]:
    """The value of name j of a scope of k names, innermost first, at each
    of the d^k assignments: digit k - 1 - j in base d, so each point
    d^(k-1-j) times running, that period repeated d^j times."""
    period = itertools.chain.from_iterable(
        itertools.repeat(v, d ** (k - 1 - j)) for v in range(d))
    return tuple(period) * d ** j


def _function(functions: dict, name: str, size: int, *args) -> list[int]:
    graph = functions.get(name, {})
    rows = zip(*args) if args else [()] * size
    try:
        return [graph[row] for row in rows]
    except KeyError as error:
        raise EvaluationError(f"no function value for "
                              f"{name}{error.args[0]}") from None


def _equal(left: list[int], right: list[int]) -> int:
    return _mask([a == b for a, b in zip(left, right)])


def _plausible(body: int, opens: frozenset[int], d: int, size: int) -> int:
    # at assignment i, bit b of the gathered set is bit i of chunk b, which
    # is character b * size + i of the body's binary text read backwards
    bits = format(body, "b")[::-1].ljust(d * size, "0")
    return _mask([int(bits[i:d * size:size][::-1], 2) in opens
                  for i in range(size)])


# the binary digit of each truth value, as a byte
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(truths: list[bool]) -> int:
    """The mask whose bit i is truths[i], built in one linear pass: int
    reads base 2 in linear time, free of the limit on digits."""
    return int(bytes(truths)[::-1].translate(_DIGITS), 2)


# the text of a connective's value, from its operands' variables and the
# mask of all assignments
_CONNECTIVES = {Not: "{full} ^ {0}", And: "{0} & {1}", Or: "{0} | {1}",
                Implies: "({full} ^ {0}) | {1}", Iff: "{full} ^ {0} ^ {1}"}

# the most assignments a value may range over: a mask of at most 128 KiB,
# a term's list of elements of at most 8 MiB
_MAX_ASSIGNMENTS = 1 << 20

# the widest scope whose relation masks are memoised: a mask of at most
# 8 KiB, built from digit columns of at most half a MiB
_MAX_CACHED_ASSIGNMENTS = 1 << 16


@functools.lru_cache(maxsize=256)
def _compiled(formulas: tuple[Formula, ...], d: int):
    """The formulas as one Python function for domain size d.  ``run(M,
    env)`` takes a structure M of that size and an assignment env to free
    names, and returns the value of each formula.

    ``emit`` walks each node once per scope and place (term or formula),
    children first, so the run raises each error where it reaches it, and
    returns the variable that holds the node's value.  A local ``v<i>`` is
    keyed by the text it assigns, and each text names its size or takes
    it from its operands (but ``0``, which is empty at every width), so
    equal texts are equal values; each global ``k<j>`` is one distinct
    name.  So a program holds only text, names and small integers, and
    every program is cached: digit columns (``_column``) and masks wider
    than 128 bits (``((1 << size) - 1)``) are built as it runs.  A
    relation on bound names reads ``_relation_mask`` of its stored table,
    the one memo gated by width (``_MAX_CACHED_ASSIGNMENTS``).
    A scope of more than ``_MAX_ASSIGNMENTS`` assignments raises
    EvaluationError here, before any value of that width is built."""
    consts: dict[str, str] = {}  # name -> its global
    assigned: dict[str, str] = {}  # text -> its local, in program order

    def const(value) -> str:
        return consts.setdefault(value, f"k{len(consts)}")

    @functools.cache  # a shared subformula is walked once
    def emit(g: Formula, scope: tuple[str, ...], term: bool = False) -> str:
        if isinstance(g, (Name, App)) != term:
            raise AssertionError(f"misplaced node {g!r}")
        size = d ** len(scope)
        if size > _MAX_ASSIGNMENTS:
            raise EvaluationError(
                f"{len(scope)} nested binders on {d} points make {size} "
                f"assignments, more than {_MAX_ASSIGNMENTS}")
        full = f"((1 << {size}) - 1)"
        if isinstance(g, Name) and g.name in scope:
            value = f"_column({d}, {len(scope)}, {scope.index(g.name)})"
        elif isinstance(g, Name):
            value = f"_name(env, constants, {const(g.name)}, {size})"
        elif isinstance(g, Rel) and size <= _MAX_CACHED_ASSIGNMENTS and all(
                isinstance(a, Name) and a.name in scope for a in g.args):
            digits = tuple(scope.index(a.name) for a in g.args)
            value = (f"_relation_mask(relations.get({const(g.name)}), "
                     f"{const(g.name)}, {d}, {len(scope)}, {digits})")
        elif isinstance(g, (App, Rel)):
            args = "".join(f", {emit(a, scope, True)}" for a in g.args)
            value = (f"_function(functions, {const(g.func)}, {size}{args})"
                     if isinstance(g, App) else
                     f"_relation(relations, {const(g.name)}, {size}{args})")
        elif isinstance(g, Eq):
            value = (f"_equal({emit(g.left, scope, True)}, "
                     f"{emit(g.right, scope, True)})")
        elif isinstance(g, (Not, *BINARY)):
            operands = (emit(getattr(g, field), scope) for field in g._fields)
            value = _CONNECTIVES[type(g)].format(*operands, full=full)
        elif isinstance(g, Binder):
            # the bound variable is the most significant digit of the body
            x = emit(g.body, (g.var, *scope))
            # chunk b holds the body where the bound variable is b
            chunks = [f"{x} >> {b * size}" if b else x for b in range(d)]
            if isinstance(g, Plaus):
                value = (f"_plausible({x}, opens, {d}, {size})" if scope
                         else f"int({x} in opens)")
            elif isinstance(g, Forall):
                value = f"{' & '.join(chunks)} & {full}"
            else:
                value = f"({' | '.join(chunks)}) & {full}"
        elif isinstance(g, (Top, Bottom)):
            value = full if isinstance(g, Top) else "0"
        else:
            raise AssertionError(g)
        return assigned.setdefault(value, f"v{len(assigned)}")

    try:
        results = [emit(f, ()) for f in formulas]
    finally:
        del emit  # a recursive closure is a reference cycle
    source = "\n".join([
        "def run(M, env):",
        "    relations, functions = M.relations, M.functions",
        "    constants, opens = M.constants, M.omega.opens",
        *(f"    {local} = {value}" for value, local in assigned.items()),
        f"    return ({''.join(f'{local}, ' for local in results)})"])
    namespace = {helper.__name__: helper for helper in (
        _name, _column, _relation, _relation_mask, _function, _equal,
        _plausible)}
    namespace.update((name, value) for value, name in consts.items())
    exec(compile(source, "<folp program>", "exec"), namespace)
    return namespace.pop("run")  # its globals must not hold it


def satisfies(M: PlausibleStructure, f: Formula,
              assignment: Optional[dict[str, int]] = None) -> bool:
    """Tarskian satisfaction; the plausibility quantifier asks whether the
    definable set is open.

    The function ``_compiled`` writes for ``(f,)`` and M's domain size
    runs once on M (see the module docstring), and the sentence f's value
    is a 1-bit mask.  Each atom is evaluated at all d^k assignments of the
    k variables bound around it, in O(d^k) time, and each distinct value,
    a d^k-bit mask or a term's d^k elements, is kept until the run ends.
    So an unbound name or a wrong arity anywhere in f raises
    EvaluationError, whichever operand would decide first.  So does an
    assigned value that is not a point of M, as a structure's constants
    must be."""
    env = assignment or {}
    for name, value in env.items():
        if not _is_int(value):
            raise EvaluationError(f"assignment to {name!r} must be an "
                                  f"integer, got {value!r}")
        if not 0 <= value < M.domain_size:
            raise EvaluationError(f"assignment to {name!r} out of range")
    (value,) = _compiled((f,), M.domain_size)(M, env)
    return bool(value)


class AxiomReport(_record("a1 a2 a3 a4 a5 a6")):
    """Verdicts for six quantifier schemas on one instance pair.

    a1-a4 and a6 are axioms of the logic of the plausible. a5 is the
    monotonicity schema ``forall x (phi -> psi) -> (P x. phi -> P x. psi)``,
    which holds only where the opens-family is closed upward (principal
    spaces, for example); it is not an axiom over pseudo-topologies.

    a1 and a2 are checked in the corrected reading with the plain
    conjunction / disjunction inside the quantifier (the printed forms nest
    a quantified sentence inside its own matrix, which cannot be what is
    meant)."""
    __slots__ = ()


def check_axioms(M: PlausibleStructure, phi: Formula, psi: Formula,
                 x: str) -> AxiomReport:
    """Evaluate the six quantifier schemas for the given instance pair.

    a5 is the monotonicity schema, not an axiom over pseudo-topologies:
    it fails exactly where the set phi defines is open and lies inside the
    set psi defines, which is not open (see ``AxiomReport``)."""
    a1, a2, a3, a4, a5, plaus, variant = _axiom_program(
        phi, psi, x, M.domain_size)(M, {})
    # a sentence's value is a 1-bit mask, 0 or 1
    return _REPORTS[a1 | a2 << 1 | a3 << 2 | a4 << 3 | a5 << 4
                    | (plaus == variant) << 5]


# the 64 reports, indexed by their verdicts a1..a6 as bits 0..5: every
# call with the same verdicts returns the same immutable report
_REPORTS = tuple(AxiomReport(*(bool(i >> j & 1) for j in range(6)))
                 for i in range(64))


@functools.lru_cache(maxsize=256)
def _axiom_program(phi: Formula, psi: Formula, x: str, d: int):
    # The compiled instances of one pair, found in one lookup: a sweep
    # checks a pair on thousands of structures, and this four-field key
    # hashes faster than the seven instances (a tuple rehashes each time).
    return _compiled(_instances(phi, psi, x), d)


def _instances(phi: Formula, psi: Formula, x: str) -> tuple[Formula, ...]:
    # every name of phi, bound ones too: renaming x to a name bound inside
    # phi would let that binder capture it
    used = _names(phi) | {x}
    fresh = next(f"v{i}" for i in itertools.count()
                 if f"v{i}" not in used)
    return (Implies(And(Plaus(x, phi), Plaus(x, psi)),
                    Plaus(x, And(phi, psi))),
            Implies(And(Plaus(x, phi), Plaus(x, psi)),
                    Plaus(x, Or(phi, psi))),
            Implies(Forall(x, phi), Plaus(x, phi)),
            Implies(Plaus(x, phi), Exists(x, phi)),
            Implies(Forall(x, Implies(phi, psi)),
                    Implies(Plaus(x, phi), Plaus(x, psi))),
            Plaus(x, phi),
            Plaus(fresh, rename_bound(phi, x, fresh)))


def unary_structures(max_domain: int) -> Iterator[PlausibleStructure]:
    """Every structure with one opens-family on a domain of size 1 to
    max_domain and two unary relations R and S, domain by domain, in
    ``enumerate_spaces`` order, then by the bitmasks of R and S.  A
    max_domain out of range raises ValueError at the call."""
    if not _is_int(max_domain) \
            or not 1 <= max_domain <= pseudotopology.MAX_UNIVERSE:
        raise ValueError(f"max_domain must be in 1.."
                         f"{pseudotopology.MAX_UNIVERSE}, got {max_domain!r}")
    tables = {d: [frozenset((i,) for i in range(d) if m >> i & 1)
                  for m in range(1 << d)] for d in range(1, max_domain + 1)}
    return (PlausibleStructure(d, {"R": r, "S": s}, {}, {}, omega)
            for d in tables for omega in pseudotopology.enumerate_spaces(d)
            for r, s in itertools.product(tables[d], repeat=2))


# ---------------------------------------------------------------------------
# parsing

class _Parser(formula._Parser):
    """The shared connective parser plus binders, terms and equality."""

    token_re = re.compile(r"\s*(?:(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)"
                          r"|(?P<op><->|->|[~#&|().,=]))")
    ident_label = "identifier"
    prefix = {"~": Not}

    def primary(self) -> Formula:
        value = self.peek()[1]
        if value in ("true", "false"):
            self.take("ident")
            return Top() if value == "true" else Bottom()
        binder = {"forall": Forall, "exists": Exists}.get(value)
        tokens, i = self.tokens, self.i
        if value == "P" and tokens[i + 1][0] == "ident" \
                and tokens[i + 2][0] == ".":
            binder = Plaus
        if binder is not None:
            self.take("ident")
            var = self.take("ident")[1]
            self.take(".")
            return binder(var, self.formula())
        t = self.term()
        if self.peek()[0] == "=":
            self.take("=")
            return Eq(t, self.term())
        return Rel(t.func, t.args) if isinstance(t, App) else Rel(t.name, ())

    def term(self) -> Formula:
        name = self.take("ident")[1]
        if self.peek()[0] == "(":
            self.take("(")
            args = [self.term()]
            while self.peek()[0] == ",":
                self.take(",")
                args.append(self.term())
            self.take(")")
            return App(name, tuple(args))
        return Name(name)


def parse_fo(text: str) -> Formula:
    return _Parser(text).parse()
