"""Propositional language with the plausibility operator: AST, parser, printer.

Connectives: ~ (negation), & (conjunction), | (disjunction), -> (implication),
<-> (biconditional), # (plausibility), constants true / false.  Formulas are
immutable and interned (hash-consed): building a formula returns the one
live node with the same constructor and children, so equality is identity,
which coincides with syntactic equality, and hashing takes constant time.
Nothing is normalized implicitly.
"""

from __future__ import annotations

import itertools
import re
import threading
import weakref

_ATOM_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")

_KEYWORDS = {"true", "false"}


_INTERN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# Taken on a miss only, so two threads cannot build twin nodes.
_INTERN_LOCK = threading.Lock()


class Formula:
    """Base of the interned node classes.

    ``cls(*fields)`` returns the one live node with those fields, so two
    formulas are equal exactly when they are the same object, and equality
    and hashing are the constant-time ones of ``object``.  The intern table
    holds nodes weakly: a formula nobody references leaves it.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _INTERN.get(key)
        if node is None:
            with _INTERN_LOCK:
                node = _INTERN.get(key)
                if node is None:
                    if len(fields) != len(cls._fields):
                        raise TypeError(f"{cls.__name__} takes "
                                        f"{len(cls._fields)} arguments")
                    node = object.__new__(cls)
                    for name, value in zip(cls._fields, fields):
                        object.__setattr__(node, name, value)
                    _INTERN[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copies and unpickled formulas go back through the intern table
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        return render(self)


class Atom(Formula):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str):
        if not _ATOM_RE.fullmatch(name) or name in _KEYWORDS:
            raise ValueError(f"bad atom name: {name!r}")
        return super().__new__(cls, name)


class Bottom(Formula):
    __slots__ = ()


class Top(Formula):
    __slots__ = ()


class Not(Formula):
    __slots__ = _fields = ("child",)


class Nabla(Formula):
    __slots__ = _fields = ("child",)


class And(Formula):
    __slots__ = _fields = ("left", "right")


class Or(Formula):
    __slots__ = _fields = ("left", "right")


class Implies(Formula):
    __slots__ = _fields = ("left", "right")


class Iff(Formula):
    __slots__ = _fields = ("left", "right")


BINARY = (And, Or, Implies, Iff)
UNARY = (Not, Nabla)


def size(f: Formula) -> int:
    """Node count of the syntax tree."""
    if isinstance(f, BINARY):
        return 1 + size(f.left) + size(f.right)
    if isinstance(f, UNARY):
        return 1 + size(f.child)
    return 1


def depth(f: Formula) -> int:
    if isinstance(f, BINARY):
        return 1 + max(depth(f.left), depth(f.right))
    if isinstance(f, UNARY):
        return 1 + depth(f.child)
    return 1


def atoms(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, BINARY):
        return atoms(f.left) | atoms(f.right)
    if isinstance(f, UNARY):
        return atoms(f.child)
    return set()


def negate(f: Formula) -> Formula:
    """Syntactic negation; never strips double negations."""
    return Not(f)


def erase_nabla(f: Formula) -> Formula:
    """Homomorphic copy with every plausibility operator dropped."""
    if isinstance(f, Nabla):
        return erase_nabla(f.child)
    if isinstance(f, Not):
        return Not(erase_nabla(f.child))
    if isinstance(f, BINARY):
        return type(f)(erase_nabla(f.left), erase_nabla(f.right))
    return f


# ---------------------------------------------------------------------------
# parsing

class ParseError(ValueError):
    """Carries the byte offset of the failure and the tokens expected there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...]):
        super().__init__(f"{message} at offset {offset} (expected {', '.join(expected)})")
        self.offset = offset
        self.expected = expected


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)|(?P<op><->|->|[~#&|()]))"
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
            off = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", off,
                             ("atom", "operator"))
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

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[1]!r}" if tok[1] else "unexpected end of input",
                             tok[2], (kind,))
        self.i += 1
        return tok

    def formula(self) -> Formula:
        left = self.implication()
        if self.peek()[0] == "<->":
            self.take("<->")
            return Iff(left, self.formula())
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "->":
            self.take("->")
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek()[0] == "|":
            self.take("|")
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek()[0] == "&":
            self.take("&")
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        kind = self.peek()[0]
        if kind == "~":
            self.take("~")
            return Not(self.unary())
        if kind == "#":
            self.take("#")
            return Nabla(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        kind, value, offset = self.peek()
        if kind == "(":
            self.take("(")
            inner = self.formula()
            self.take(")")
            return inner
        if kind == "ident":
            self.take("ident")
            if value == "true":
                return Top()
            if value == "false":
                return Bottom()
            return Atom(value)
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input",
                         offset, ("atom", "true", "false", "~", "#", "("))


def parse(text: str) -> Formula:
    parser = _Parser(_tokenize(text))
    f = parser.formula()
    parser.take("end")
    return f


# ---------------------------------------------------------------------------
# printing

_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Nabla: 5}
_OPS = {Iff: "<->", Implies: "->", Or: "|", And: "&"}
_RIGHT_ASSOC = (Iff, Implies)


def _prec(f: Formula) -> int:
    return _PREC.get(type(f), 6)


def render(f: Formula) -> str:
    """Minimal-parenthesis rendering; parse(render(f)) == f."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, UNARY):
        op = "~" if isinstance(f, Not) else "#"
        child = render(f.child)
        if _prec(f.child) < _prec(f):
            child = f"({child})"
        return op + child
    p = _prec(f)
    left, right = render(f.left), render(f.right)
    if isinstance(f, _RIGHT_ASSOC):
        if _prec(f.left) <= p:
            left = f"({left})"
        if _prec(f.right) < p:
            right = f"({right})"
    else:
        if _prec(f.left) < p:
            left = f"({left})"
        if _prec(f.right) <= p:
            right = f"({right})"
    return f"{left} {_OPS[type(f)]} {right}"


# ---------------------------------------------------------------------------
# classical evaluation

def pseudo_atoms(f: Formula) -> list[Formula]:
    """Atoms and maximal #-subformulas, the evaluation units for the
    classical fragment.  Atoms come first, lexicographically; #-subformulas
    follow in first-occurrence order."""
    names: list[str] = []
    nablas: list[Formula] = []

    def walk(g: Formula):
        if isinstance(g, Nabla):
            if g not in nablas:
                nablas.append(g)
            return
        if isinstance(g, Atom):
            if g.name not in names:
                names.append(g.name)
        elif isinstance(g, BINARY):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, Not):
            walk(g.child)

    walk(f)
    return [Atom(n) for n in sorted(names)] + nablas


def _eval_classical(f: Formula, env: dict[Formula, bool]) -> bool:
    if f in env:
        return env[f]
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not _eval_classical(f.child, env)
    if isinstance(f, And):
        return _eval_classical(f.left, env) and _eval_classical(f.right, env)
    if isinstance(f, Or):
        return _eval_classical(f.left, env) or _eval_classical(f.right, env)
    if isinstance(f, Implies):
        return (not _eval_classical(f.left, env)) or _eval_classical(f.right, env)
    if isinstance(f, Iff):
        return _eval_classical(f.left, env) == _eval_classical(f.right, env)
    raise AssertionError(f"unevaluated node {f!r}")


def is_classical_tautology(f: Formula) -> bool:
    """True iff f holds under every Boolean assignment to its atoms and its
    maximal #-subformulas (the latter treated as opaque units)."""
    units = pseudo_atoms(f)
    for bits in itertools.product((False, True), repeat=len(units)):
        if not _eval_classical(f, dict(zip(units, bits))):
            return False
    return True
