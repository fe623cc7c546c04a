"""The formula core: interned syntax trees, one parser, one printer.

One core serves both languages of the package.  The propositional language
has the connectives ~ (negation), & (conjunction), | (disjunction),
-> (implication), <-> (biconditional), # (plausibility) and the constants
true / false.  The first-order language of ``folp`` reuses the same
connective nodes and adds its own leaves and binders (``Binder``); its
parser subclasses ``_Parser`` and ``render`` prints both.

Formulas are immutable and interned (hash-consed): building a formula
returns the one live node with the same constructor and children, so
equality is identity, which coincides with syntactic equality, and hashing
takes constant time.  Nothing is normalized implicitly.  A node lives
while it is referenced, or while it is among the last 1024 nodes built
(see ``Formula``).  The parser tokenizes in one pass, then climbs
precedences over a table of the binary connectives.

Evaluation lives in ``algebra``: ``algebra.evaluate`` is the one-model
reference, and one bit-vector evaluator serves both the countermodel
search and ``is_classical_tautology`` here, which loads ``algebra`` on its
first call.
"""

from __future__ import annotations

import collections
import re
import threading
import weakref

_ATOM_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")

_INTERN: dict[tuple, weakref.ref] = {}
_INTERN_LOCK = threading.Lock()
_remove_dead = weakref._remove_dead_weakref
# the last nodes built, kept alive on purpose (see ``Formula``): on a
# stream of small formulas, 1024 of them halve the intern misses per item
_RECENT = collections.deque(maxlen=1024)


def _intern(cls, key: tuple) -> Formula:
    """The miss path of ``cls(*key[1:])``."""
    if len(key) - 1 != len(cls._fields):
        raise TypeError(f"{cls.__name__} takes {len(cls._fields)} arguments")
    with _INTERN_LOCK:
        ref = _INTERN.get(key)  # again: another thread may have built it
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, key[1:]):
                object.__setattr__(node, name, value)
            _INTERN[key] = weakref.ref(
                node, lambda _, key=key: _remove_dead(_INTERN, key))
            _RECENT.append(node)
    return node


class Formula:
    """Base of the interned node classes.

    ``cls(*fields)`` returns the one live node with those fields, so two
    formulas are equal exactly when they are the same object, and equality
    and hashing are the constant-time ones of ``object``.  The intern table
    maps ``(cls, *fields)`` to a weak reference: a hit is one dict probe, a
    miss takes a lock, so two threads never build twin nodes.  A dead
    node's callback drops its entry unless a new node has taken it, and
    without the lock (it may run during a miss).

    One rule decides how long a node lives: while it is referenced, or
    while it is among the last 1024 nodes built, which the ring
    ``_RECENT`` holds.  No call into the package leaves a reference cycle
    behind, so a node leaves the table as soon as both end.

    For the printer each class carries ``_prec``, how tightly it binds
    (leaves bind tightest), and each leaf prints itself with ``_head``.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()
    _prec = 6

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _INTERN.get(key)
        node = ref() if ref is not None else None
        return _intern(cls, key) if node is None else node

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
        try:  # the table first; the name is checked on a miss only
            ref = _INTERN.get((cls, name))
        except TypeError:  # an unhashable name
            ref = None
        node = ref() if ref is not None else None
        if node is None:
            if not isinstance(name, str) or not _ATOM_RE.fullmatch(name) \
                    or name in ("true", "false"):
                raise ValueError(f"bad atom name: {name!r}")
            node = _intern(cls, (cls, name))
        return node

    def _head(self) -> str:
        return self.name


class Bottom(Formula):
    __slots__ = ()

    def _head(self) -> str:
        return "false"


class Top(Formula):
    __slots__ = ()

    def _head(self) -> str:
        return "true"


class Not(Formula):
    __slots__ = _fields = ("child",)
    _prec, _op = 5, "~"


class Nabla(Formula):
    __slots__ = _fields = ("child",)
    _prec, _op = 5, "#"


class And(Formula):
    __slots__ = _fields = ("left", "right")
    _prec, _op = 4, "&"


class Or(Formula):
    __slots__ = _fields = ("left", "right")
    _prec, _op = 3, "|"


class Implies(Formula):
    __slots__ = _fields = ("left", "right")
    _prec, _op = 2, "->"


class Iff(Formula):
    __slots__ = _fields = ("left", "right")
    _prec, _op = 1, "<->"


class Binder(Formula):
    """A variable-binding prefix ``word var.`` whose body extends as far
    to the right as possible; the first-order quantifiers subclass it and
    set ``_word``."""

    __slots__ = _fields = ("var", "body")
    _prec = 0


BINARY = (And, Or, Implies, Iff)
UNARY = (Not, Nabla)
_RIGHT_ASSOC = (Implies, Iff)


def size(f: Formula) -> int:
    """Node count of the syntax tree."""
    if isinstance(f, BINARY):
        return 1 + size(f.left) + size(f.right)
    if isinstance(f, UNARY):
        return 1 + size(f.child)
    return 1


def atoms(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, BINARY):
        return atoms(f.left) | atoms(f.right)
    if isinstance(f, UNARY):
        return atoms(f.child)
    return set()


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


class _Parser:
    """Precedence climbing over the binary connectives, then prefix
    operators and parentheses.  ``parse`` uses this class as it is; a
    language subclass supplies only what differs: its token pattern (two
    groups, identifier and operator), the label of its identifiers in
    tokenizer errors, its prefix operators and its primaries."""

    token_re = re.compile(
        r"\s*(?:(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)|(?P<op><->|->|[~#&|()]))")
    ident_label = "atom"
    prefix = {"~": Not, "#": Nabla}
    binary = {"<->": Iff, "->": Implies, "|": Or, "&": And}

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.i = 0

    def _tokenize(self, text: str) -> list[tuple[str, str, int]]:
        # a match that starts past the last one skipped a bad character
        tokens = []
        pos = 0
        for m in self.token_re.finditer(text):
            if m.start() != pos:
                break
            pos = m.end()
            ident, op = m.groups()
            tokens.append(("ident", ident, pos - len(ident)) if ident
                          else (op, op, pos - len(op)))
        stripped = text[pos:].lstrip()
        if stripped:
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped),
                             (self.ident_label, "operator"))
        tokens.append(("end", "", len(text)))
        return tokens

    def parse(self) -> Formula:
        f = self.formula()
        self.take("end")
        return f

    def peek(self):
        return self.tokens[self.i]

    def error(self, expected: tuple[str, ...]) -> ParseError:
        _, value, offset = self.peek()
        return ParseError(f"unexpected {value!r}" if value
                          else "unexpected end of input", offset, expected)

    def take(self, kind):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise self.error((kind,))
        self.i += 1
        return tok

    def formula(self, weakest: int = 1) -> Formula:
        """The longest formula ahead joining unary operands by binary
        connectives of ``_prec`` at least ``weakest``; -> and <-> group to
        the right, & and | to the left."""
        left = self.unary()
        while True:
            op = self.binary.get(self.tokens[self.i][0])
            if op is None or op._prec < weakest:
                return left
            self.i += 1
            left = op(left, self.formula(op._prec + (op not in _RIGHT_ASSOC)))

    def unary(self) -> Formula:
        kind = self.tokens[self.i][0]
        op = self.prefix.get(kind)
        if op is not None:
            self.i += 1
            return op(self.unary())
        if kind == "(":
            self.i += 1
            inner = self.formula()
            self.take(")")
            return inner
        return self.primary()

    def primary(self) -> Formula:
        kind, value, _ = self.tokens[self.i]
        if kind != "ident":
            raise self.error(("atom", "true", "false", "~", "#", "("))
        self.i += 1
        if value == "true":
            return Top()
        if value == "false":
            return Bottom()
        return Atom(value)


def parse(text: str) -> Formula:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing

def render(f: Formula) -> str:
    """Minimal-parenthesis rendering of either language: parse(render(f))
    is f, and ``folp.parse_fo`` reads back first-order formulas.

    A binder is bracketed except as the right operand of -> or <-> with
    nothing after it, since its body extends as far right as possible."""
    return _render(f, True)


def _render(f: Formula, last: bool) -> str:
    # last: nothing follows f in the text
    if isinstance(f, BINARY):
        p = f._prec
        if isinstance(f, _RIGHT_ASSOC):
            left_bracket = f.left._prec <= p
            right_bracket = (not last if isinstance(f.right, Binder)
                             else f.right._prec < p)
        else:
            left_bracket = f.left._prec < p
            right_bracket = f.right._prec <= p
        left = _render(f.left, left_bracket)
        right = _render(f.right, right_bracket or last)
        if left_bracket:
            left = f"({left})"
        if right_bracket:
            right = f"({right})"
        return f"{left} {f._op} {right}"
    if isinstance(f, UNARY):
        bracket = f.child._prec < f._prec
        child = _render(f.child, bracket or last)
        return f._op + (f"({child})" if bracket else child)
    if isinstance(f, Binder):
        return f"{f._word} {f.var}. {_render(f.body, last)}"
    return f._head()


# ---------------------------------------------------------------------------
# classical evaluation (run by ``algebra``'s bit-vector evaluator)

def pseudo_atoms(f: Formula) -> list[Formula]:
    """Atoms and maximal #-subformulas, the evaluation units for the
    classical fragment.  Atoms come first, lexicographically; #-subformulas
    follow in first-occurrence order."""
    found: dict[str, Atom] = {}
    nablas: dict[Formula, None] = {}  # keeps the first-occurrence order
    stack = [f]  # left operands pop first
    while stack:
        g = stack.pop()
        if isinstance(g, Nabla):
            nablas[g] = None
        elif isinstance(g, Atom):
            found[g.name] = g
        elif isinstance(g, BINARY):
            stack += g.right, g.left
        elif isinstance(g, Not):
            stack.append(g.child)
    return [found[name] for name in sorted(found)] + list(nablas)


def is_classical_tautology(f: Formula) -> bool:
    """True iff f holds under every Boolean assignment to its atoms and its
    maximal #-subformulas (the latter treated as opaque units): the
    countermodel search's evaluation on the one-world frame, with those
    units in the place of atoms."""
    from . import algebra  # on first use: algebra is built on this module
    return algebra._first_failure(f, pseudo_atoms(f), 1) is None
