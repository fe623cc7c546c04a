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

Formulas are evaluated as definable sets.  ``_program`` compiles a tuple
of formulas once into straight-line code with one value slot per distinct
(subterm or subformula, scope), the scope being the variables bound around
the node, innermost last; ``_run`` runs it once per structure.  On a domain
of size d, assignment i of a scope of k variables gives ``scope[j]`` digit
j of i in base d.  A term's slot lists its element at each of the d^k
assignments and a formula's slot is the d^k-bit mask of those where it
holds.  A binder's variable is the most significant digit of its body, so
the body's mask is d chunks of d^k bits: ``forall`` ANDs them, ``exists``
ORs them and ``P`` asks, at each assignment, whether the d-bit set gathered
from the chunks is open.  Time is O(d^k) per atom, as for an interpreter
that tries one assignment at a time, but where such an interpreter holds
O(k) values, each slot here holds d^k bits or elements, k the binder depth.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Iterator, Optional

from . import formula, pseudotopology
from .formula import (BINARY, And, Binder, Bottom, Formula, Iff, Implies,
                      Not, Or, Top, render)
from .pseudotopology import PseudoTopology


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


def free_names(f: Formula) -> set[str]:
    """Names not bound by a quantifier (constants included; they are
    resolved against the structure); terms are formulas here too."""
    if isinstance(f, Name):
        return {f.name}
    if isinstance(f, (Rel, App)):
        return set().union(*(free_names(a) for a in f.args))
    if isinstance(f, (Top, Bottom)):
        return set()
    if isinstance(f, Not):
        return free_names(f.child)
    if isinstance(f, (Eq, *BINARY)):
        return free_names(f.left) | free_names(f.right)
    if isinstance(f, Binder):
        return free_names(f.body) - {f.var}
    raise AssertionError(f)


def rename_bound(f: Formula, old: str, new: str) -> Formula:
    """Replace free occurrences of a name (used for alphabetic variants)."""
    def term(t: Formula) -> Formula:
        if isinstance(t, Name):
            return Name(new) if t.name == old else t
        return App(t.func, tuple(term(a) for a in t.args))

    if isinstance(f, Rel):
        return Rel(f.name, tuple(term(a) for a in f.args))
    if isinstance(f, Eq):
        return Eq(term(f.left), term(f.right))
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, Not):
        return Not(rename_bound(f.child, old, new))
    if isinstance(f, BINARY):
        return type(f)(rename_bound(f.left, old, new),
                       rename_bound(f.right, old, new))
    if isinstance(f, Binder):
        if f.var == old:
            return f
        return type(f)(f.var, rename_bound(f.body, old, new))
    raise AssertionError(f)


# ---------------------------------------------------------------------------
# structures

class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class PlausibleStructure:
    domain_size: int
    relations: dict[str, frozenset[tuple[int, ...]]]
    functions: dict[str, dict[tuple[int, ...], int]]
    constants: dict[str, int]
    omega: PseudoTopology

    def __post_init__(self):
        if self.omega.universe_size != self.domain_size:
            raise ValueError("opens-family universe must match the domain")
        verdict = pseudotopology.validate(self.omega)
        if not verdict:
            raise ValueError(f"invalid opens-family: {verdict.axiom}")
        for name, table in self.relations.items():
            arities = {len(t) for t in table}
            if len(arities) > 1:
                raise ValueError(f"mixed arity in relation {name}")
            for t in table:
                if any(not 0 <= v < self.domain_size for v in t):
                    raise ValueError(f"relation {name} tuple out of range")
        for name, graph in self.functions.items():
            arities = {len(t) for t in graph}
            if len(arities) != 1:
                raise ValueError(f"function {name} graph must be total and "
                                 "of one arity")
            arity = arities.pop()
            expected = self.domain_size ** arity
            if len(graph) != expected:
                raise ValueError(f"function {name} graph is not total")
            if any(not 0 <= v < self.domain_size for v in graph.values()):
                raise ValueError(f"function {name} value out of range")
        for name, v in self.constants.items():
            if not 0 <= v < self.domain_size:
                raise ValueError(f"constant {name} out of range")

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
        relations = {name: frozenset(_json_rows(table, f"relations.{name}"))
                     for name, table in _json_object(doc, "relations").items()}
        functions = {}
        for name, graph in _json_object(doc, "functions").items():
            rows = _json_rows(graph, f"functions.{name}")
            if not all(rows):
                raise ValueError(f"'functions.{name}' rows must end in the "
                                 "value")
            functions[name] = {row[:-1]: row[-1] for row in rows}
        constants = _json_object(doc, "constants")
        for name, value in constants.items():
            if not _is_int(value):
                raise ValueError(f"'constants.{name}' must be an integer, "
                                 f"got {value!r}")
        return cls(domain_size=size, relations=relations,
                   functions=functions, constants=dict(constants),
                   omega=PseudoTopology(size, frozenset(omega)))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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

@functools.lru_cache(maxsize=256)
def _program(formulas: tuple[Formula, ...]) -> tuple[tuple, tuple[int, ...]]:
    """The formulas as straight-line code over value slots, and the slot
    of each.  Each instruction (node class, k, x, y) appends the value of
    one distinct (node, scope) pair, children first, where k is the length
    of the scope; x and y are the child slots, or for ``Name`` the name and
    the digit it reads (-1 when free), for ``App`` and ``Rel`` the symbol
    and the argument slots."""
    slots: dict[tuple, int] = {}
    code: list[tuple] = []

    def emit(g: Formula, scope: tuple[str, ...], term: bool = False) -> int:
        slot = slots.get((g, scope))
        if slot is not None:
            return slot
        if isinstance(g, (Name, App)) != term:
            raise AssertionError(f"misplaced node {g!r}")
        x = y = None
        if isinstance(g, Name):
            # the innermost binder of the name decides
            x, y = g.name, max((j for j, v in enumerate(scope)
                                if v == g.name), default=-1)
        elif isinstance(g, (App, Rel)):
            x = g.func if isinstance(g, App) else g.name
            y = tuple(emit(a, scope, True) for a in g.args)
        elif isinstance(g, Eq):
            x, y = emit(g.left, scope, True), emit(g.right, scope, True)
        elif isinstance(g, BINARY):
            x, y = emit(g.left, scope), emit(g.right, scope)
        elif isinstance(g, Not):
            x = emit(g.child, scope)
        elif isinstance(g, Binder):
            # the bound variable is the most significant digit of the body
            x = emit(g.body, (*scope, g.var))
        elif not isinstance(g, (Top, Bottom)):
            raise AssertionError(g)
        code.append((type(g), len(scope), x, y))
        slot = slots[g, scope] = len(code) - 1
        return slot

    results = tuple(emit(f, ()) for f in formulas)
    return tuple(code), results


@functools.lru_cache(maxsize=64)
def _digits(d: int, k: int, j: int) -> tuple[int, ...]:
    """Digit j in base d of each assignment 0 .. d^k - 1."""
    return tuple(i // d ** j % d for i in range(d ** k))


def _run(code: tuple, M: PlausibleStructure, env: dict[str, int]) -> list:
    """The slot values of a ``_program`` on M: a term's slot lists its
    element at each assignment of its scope, a formula's slot is the
    bitmask of the assignments where it holds."""
    d, opens = M.domain_size, M.omega.opens
    values: list = []
    append = values.append
    for kind, k, x, y in code:
        size = d ** k
        full = (1 << size) - 1
        if kind is Not:
            append(full ^ values[x])
        elif kind is And:
            append(values[x] & values[y])
        elif kind is Or:
            append(values[x] | values[y])
        elif kind is Implies:
            append((full ^ values[x]) | values[y])
        elif kind is Iff:
            append(full ^ values[x] ^ values[y])
        elif kind is Name:
            if y >= 0:
                append(_digits(d, k, y))
            elif x in env:
                append([env[x]] * size)
            elif x in M.constants:
                append([M.constants[x]] * size)
            else:
                raise EvaluationError(f"unbound name {x!r}")
        elif kind is Rel:
            table = M.relations.get(x, frozenset())
            if table and (arity := len(next(iter(table)))) != len(y):
                raise EvaluationError(f"relation {x} expects {arity} "
                                      "arguments")
            rows = zip(*(values[i] for i in y)) if y else [()] * size
            append(sum(1 << i for i, row in enumerate(rows) if row in table))
        elif kind is App:
            graph = M.functions.get(x, {})
            rows = zip(*(values[i] for i in y)) if y else [()] * size
            try:
                append([graph[row] for row in rows])
            except KeyError as error:
                raise EvaluationError(f"no function value for "
                                      f"{x}{error.args[0]}") from None
        elif kind is Plaus and size == 1:
            append(int(values[x] in opens))
        elif kind in (Forall, Exists, Plaus):
            # chunk b holds the body where the bound variable is b
            body = values[x]
            chunks = [body >> b * size & full for b in range(d)]
            if kind is Forall:
                append(functools.reduce(operator.and_, chunks))
            elif kind is Exists:
                append(functools.reduce(operator.or_, chunks))
            else:
                append(sum(1 << i for i in range(size)
                           if sum((c >> i & 1) << b
                                  for b, c in enumerate(chunks)) in opens))
        elif kind is Eq:
            append(sum(1 << i for i, (a, b)
                       in enumerate(zip(values[x], values[y])) if a == b))
        else:
            append(full if kind is Top else 0)
    return values


def satisfies(M: PlausibleStructure, f: Formula,
              assignment: Optional[dict[str, int]] = None) -> bool:
    """Tarskian satisfaction; the plausibility quantifier asks whether the
    definable set is open.

    The program of ``(f,)`` runs once on M (see the module docstring), and
    the sentence f's value is a 1-bit mask.  Each atom is evaluated at all
    d^k assignments of the k variables bound around it, in O(d^k) time,
    and each node's d^k-bit mask, or a term's d^k elements, is kept until
    the run ends.  So an unbound name or a wrong arity anywhere in f raises
    EvaluationError, whichever operand would decide first."""
    code, (slot,) = _program((f,))
    return bool(_run(code, M, assignment or {})[slot])


@dataclass(frozen=True)
class AxiomReport:
    """Verdicts for six quantifier schemas on one instance pair.

    a1-a4 and a6 are axioms of the logic of the plausible. a5 is the
    monotonicity schema ``forall x (phi -> psi) -> (P x. phi -> P x. psi)``,
    which holds only where the opens-family is closed upward (principal
    spaces, for example); it is not an axiom over pseudo-topologies, and
    ``all_hold()`` includes it.

    a1 and a2 are checked in the corrected reading with the plain
    conjunction / disjunction inside the quantifier (the printed forms nest
    a quantified sentence inside its own matrix, which cannot be what is
    meant)."""
    a1: bool
    a2: bool
    a3: bool
    a4: bool
    a5: bool
    a6: bool

    def all_hold(self) -> bool:
        return all((self.a1, self.a2, self.a3, self.a4, self.a5, self.a6))


def check_axioms(M: PlausibleStructure, phi: Formula, psi: Formula,
                 x: str) -> AxiomReport:
    """Evaluate the six quantifier schemas for the given instance pair.

    a5 is the monotonicity schema, not an axiom over pseudo-topologies:
    it fails exactly where the set phi defines is open and lies inside the
    set psi defines, which is not open (see ``AxiomReport``)."""
    code, slots = _program(_instances(phi, psi, x))
    values = _run(code, M, {})
    a1, a2, a3, a4, a5, plaus, variant = (values[slot] for slot in slots)
    return AxiomReport(*map(bool, (a1, a2, a3, a4, a5)), plaus == variant)


@functools.lru_cache(maxsize=256)
def _instances(phi: Formula, psi: Formula, x: str) -> tuple[Formula, ...]:
    # Built once per instance pair: a sweep checks one pair on thousands
    # of structures, and interning makes each fresh build a table miss.
    used = free_names(phi) | {x}
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
    if not 1 <= max_domain <= pseudotopology.MAX_UNIVERSE:
        raise ValueError(f"max_domain must be in "
                         f"1..{pseudotopology.MAX_UNIVERSE}, got {max_domain}")
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
