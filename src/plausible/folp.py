"""Finite model checking for the first-order logic of the plausible.

Structures are finite first-order structures whose domain carries a
pseudo-topology; the plausibility quantifier ``P x. phi`` holds when the
set defined by phi is one of the opens.

Formula grammar extends the propositional one with ``forall x.``,
``exists x.``, ``P x.`` (each scoping as far to the right as possible),
predicate application ``R(t, ...)`` and equality ``t1 = t2``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Optional

from . import pseudotopology
from .formula import ParseError
from .pseudotopology import PseudoTopology


# ---------------------------------------------------------------------------
# terms and formulas

@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Name(Term):
    """A variable or constant; which one is resolved at evaluation time."""
    name: str


@dataclass(frozen=True)
class App(Term):
    func: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class FOFormula:
    def __str__(self) -> str:
        return render_fo(self)


@dataclass(frozen=True)
class Rel(FOFormula):
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Eq(FOFormula):
    left: Term
    right: Term


@dataclass(frozen=True)
class FNot(FOFormula):
    child: FOFormula


@dataclass(frozen=True)
class FAnd(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOr(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FImplies(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FIff(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class Forall(FOFormula):
    var: str
    body: FOFormula


@dataclass(frozen=True)
class Exists(FOFormula):
    var: str
    body: FOFormula


@dataclass(frozen=True)
class Plaus(FOFormula):
    var: str
    body: FOFormula


_BINARY = (FAnd, FOr, FImplies, FIff)
_QUANT = (Forall, Exists, Plaus)


def term_names(t: Term) -> set[str]:
    if isinstance(t, Name):
        return {t.name}
    return set().union(*(term_names(a) for a in t.args)) if t.args else set()


def free_names(f: FOFormula) -> set[str]:
    """Names not bound by a quantifier (constants included; they are
    resolved against the structure)."""
    if isinstance(f, Rel):
        return set().union(*(term_names(a) for a in f.args)) if f.args else set()
    if isinstance(f, Eq):
        return term_names(f.left) | term_names(f.right)
    if isinstance(f, FNot):
        return free_names(f.child)
    if isinstance(f, _BINARY):
        return free_names(f.left) | free_names(f.right)
    if isinstance(f, _QUANT):
        return free_names(f.body) - {f.var}
    raise AssertionError(f)


def rename_bound(f: FOFormula, old: str, new: str) -> FOFormula:
    """Replace free occurrences of a name (used for alphabetic variants)."""
    def term(t: Term) -> Term:
        if isinstance(t, Name):
            return Name(new) if t.name == old else t
        return App(t.func, tuple(term(a) for a in t.args))

    if isinstance(f, Rel):
        return Rel(f.name, tuple(term(a) for a in f.args))
    if isinstance(f, Eq):
        return Eq(term(f.left), term(f.right))
    if isinstance(f, FNot):
        return FNot(rename_bound(f.child, old, new))
    if isinstance(f, _BINARY):
        return type(f)(rename_bound(f.left, old, new),
                       rename_bound(f.right, old, new))
    if isinstance(f, _QUANT):
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
    def from_json(cls, doc: dict) -> "PlausibleStructure":
        return cls(
            domain_size=doc["domain_size"],
            relations={n: frozenset(tuple(t) for t in table)
                       for n, table in doc.get("relations", {}).items()},
            functions={n: {tuple(row[:-1]): row[-1] for row in graph}
                       for n, graph in doc.get("functions", {}).items()},
            constants=dict(doc.get("constants", {})),
            omega=PseudoTopology(doc["domain_size"],
                                 frozenset(doc["omega"])),
        )


# ---------------------------------------------------------------------------
# satisfaction

def _eval_term(M: PlausibleStructure, t: Term, env: dict[str, int]) -> int:
    if isinstance(t, Name):
        if t.name in env:
            return env[t.name]
        if t.name in M.constants:
            return M.constants[t.name]
        raise EvaluationError(f"unbound name {t.name!r}")
    args = tuple(_eval_term(M, a, env) for a in t.args)
    try:
        return M.functions[t.func][args]
    except KeyError:
        raise EvaluationError(f"no function value for {t.func}{args}") from None


def satisfies(M: PlausibleStructure, f: FOFormula,
              assignment: Optional[dict[str, int]] = None) -> bool:
    """Tarskian satisfaction; the plausibility quantifier asks whether the
    definable set is open."""
    env = dict(assignment or {})

    def sat(g: FOFormula, env: dict[str, int]) -> bool:
        if isinstance(g, Rel):
            table = M.relations.get(g.name, frozenset())
            values = tuple(_eval_term(M, a, env) for a in g.args)
            if table:
                arity = len(next(iter(table)))
                if arity != len(values):
                    raise EvaluationError(
                        f"relation {g.name} expects {arity} arguments")
            return values in table
        if isinstance(g, Eq):
            return _eval_term(M, g.left, env) == _eval_term(M, g.right, env)
        if isinstance(g, FNot):
            return not sat(g.child, env)
        if isinstance(g, FAnd):
            return sat(g.left, env) and sat(g.right, env)
        if isinstance(g, FOr):
            return sat(g.left, env) or sat(g.right, env)
        if isinstance(g, FImplies):
            return (not sat(g.left, env)) or sat(g.right, env)
        if isinstance(g, FIff):
            return sat(g.left, env) == sat(g.right, env)
        if isinstance(g, (Forall, Exists, Plaus)):
            hits = [b for b in range(M.domain_size)
                    if sat(g.body, {**env, g.var: b})]
            if isinstance(g, Forall):
                return len(hits) == M.domain_size
            if isinstance(g, Exists):
                return bool(hits)
            mask = sum(1 << b for b in hits)
            return mask in M.omega.opens
        raise AssertionError(g)

    return sat(f, env)


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
    note: str = "a1/a2 checked in the corrected reading"

    def all_hold(self) -> bool:
        return all((self.a1, self.a2, self.a3, self.a4, self.a5, self.a6))


def check_axioms(M: PlausibleStructure, phi: FOFormula, psi: FOFormula,
                 x: str) -> AxiomReport:
    """Evaluate the six quantifier schemas for the given instance pair.

    a5 is the monotonicity schema, not an axiom over pseudo-topologies:
    it fails exactly where the set phi defines is open and lies inside the
    set psi defines, which is not open (see ``AxiomReport``)."""
    a1 = satisfies(M, FImplies(FAnd(Plaus(x, phi), Plaus(x, psi)),
                               Plaus(x, FAnd(phi, psi))))
    a2 = satisfies(M, FImplies(FAnd(Plaus(x, phi), Plaus(x, psi)),
                               Plaus(x, FOr(phi, psi))))
    a3 = satisfies(M, FImplies(Forall(x, phi), Plaus(x, phi)))
    a4 = satisfies(M, FImplies(Plaus(x, phi), Exists(x, phi)))
    a5 = satisfies(M, FImplies(Forall(x, FImplies(phi, psi)),
                               FImplies(Plaus(x, phi), Plaus(x, psi))))
    used = free_names(phi) | {x}
    fresh = next(f"v{i}" for i in itertools.count()
                 if f"v{i}" not in used)
    a6 = satisfies(M, Plaus(x, phi)) == satisfies(
        M, Plaus(fresh, rename_bound(phi, x, fresh)))
    return AxiomReport(a1, a2, a3, a4, a5, a6)


# ---------------------------------------------------------------------------
# parsing and printing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<op><->|->|[~#&|().,=]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped),
                             ("identifier", "operator"))
        if m.group("ident"):
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append((m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def take(self, kind):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[1]!r}" if tok[1]
                             else "unexpected end of input", tok[2], (kind,))
        self.i += 1
        return tok

    def _quantifier(self):
        kind, value, _ = self.peek()
        if kind != "ident":
            return None
        if value in ("forall", "exists"):
            return {"forall": Forall, "exists": Exists}[value]
        if value == "P" and self.peek(1)[0] == "ident" \
                and self.peek(2)[0] == ".":
            return Plaus
        return None

    def formula(self) -> FOFormula:
        ctor = self._quantifier()
        if ctor is not None:
            self.take("ident")
            var = self.take("ident")[1]
            self.take(".")
            return ctor(var, self.formula())
        left = self.implication()
        if self.peek()[0] == "<->":
            self.take("<->")
            return FIff(left, self.formula())
        return left

    def implication(self) -> FOFormula:
        left = self.disjunction()
        if self.peek()[0] == "->":
            self.take("->")
            return FImplies(left, self.implication())
        return left

    def disjunction(self) -> FOFormula:
        left = self.conjunction()
        while self.peek()[0] == "|":
            self.take("|")
            left = FOr(left, self.conjunction())
        return left

    def conjunction(self) -> FOFormula:
        left = self.unary()
        while self.peek()[0] == "&":
            self.take("&")
            left = FAnd(left, self.unary())
        return left

    def unary(self) -> FOFormula:
        if self.peek()[0] == "~":
            self.take("~")
            return FNot(self.unary())
        ctor = self._quantifier()
        if ctor is not None:
            self.take("ident")
            var = self.take("ident")[1]
            self.take(".")
            return ctor(var, self.formula())
        return self.atomic()

    def term(self) -> Term:
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

    def atomic(self) -> FOFormula:
        if self.peek()[0] == "(":
            self.take("(")
            inner = self.formula()
            self.take(")")
            return inner
        t = self.term()
        if self.peek()[0] == "=":
            self.take("=")
            return Eq(t, self.term())
        if isinstance(t, App):
            return Rel(t.func, t.args)
        return Rel(t.name, ())


def parse_fo(text: str) -> FOFormula:
    parser = _Parser(_tokenize(text))
    f = parser.formula()
    parser.take("end")
    return f


def render_term(t: Term) -> str:
    if isinstance(t, Name):
        return t.name
    return f"{t.func}({', '.join(render_term(a) for a in t.args)})"


_FO_PREC = {FIff: 1, FImplies: 2, FOr: 3, FAnd: 4, FNot: 5}
_FO_OPS = {FIff: "<->", FImplies: "->", FOr: "|", FAnd: "&"}


def render_fo(f: FOFormula) -> str:
    def prec(g):
        return _FO_PREC.get(type(g), 6)

    if isinstance(f, Rel):
        if not f.args:
            return f.name
        return f"{f.name}({', '.join(render_term(a) for a in f.args)})"
    if isinstance(f, Eq):
        return f"{render_term(f.left)} = {render_term(f.right)}"
    if isinstance(f, FNot):
        child = render_fo(f.child)
        if prec(f.child) < prec(f) or isinstance(f.child, _QUANT):
            child = f"({child})"
        return "~" + child
    if isinstance(f, _QUANT):
        word = {Forall: "forall", Exists: "exists", Plaus: "P"}[type(f)]
        return f"{word} {f.var}. {render_fo(f.body)}"
    p = prec(f)
    left, right = render_fo(f.left), render_fo(f.right)
    if isinstance(f, (FIff, FImplies)):
        if prec(f.left) <= p or isinstance(f.left, _QUANT):
            left = f"({left})"
        if prec(f.right) < p:
            right = f"({right})"
    else:
        if prec(f.left) < p or isinstance(f.left, _QUANT):
            left = f"({left})"
        if prec(f.right) <= p or isinstance(f.right, _QUANT):
            right = f"({right})"
    return f"{left} {_FO_OPS[type(f)]} {right}"
