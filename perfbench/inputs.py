"""Seeded inputs for the benchmark, built without importing the program.

Formulas leave this module as text and first-order structures as bitmasks,
so a change to ``plausible.sampling`` or to the formula classes cannot
silently change the traffic the benchmark sends.

A formula tree here is a plain value: an atom or constant is its name
(``"p"``, ``"true"``), a unary node is ``(op, child)`` and a binary node is
``(op, left, right)``, with the operators spelled as in the concrete syntax.
"""

from __future__ import annotations

import itertools
import random

ATOMS = ("p", "q", "r")
SCHEMAS = ("AX1", "AX2", "AX3", "AX4")

CORPUS_MAX_SIZE = 16
RANDOM_THEOREMS = 1000
BINDING_MAX_SIZE = 6
FO_MAX_DOMAIN = 4

# Binding strength in the concrete syntax; atoms and constants bind tightest.
_PREC = {"<->": 1, "->": 2, "|": 3, "&": 4, "~": 5, "#": 5}
_RIGHT_ASSOC = ("<->", "->")


def _prec(tree) -> int:
    return 6 if isinstance(tree, str) else _PREC[tree[0]]


def to_text(tree) -> str:
    """Text with the fewest parentheses the grammar allows: ``->`` and
    ``<->`` group to the right, ``&`` and ``|`` to the left."""
    if isinstance(tree, str):
        return tree
    if len(tree) == 2:
        op, child = tree
        text = to_text(child)
        return op + (f"({text})" if _prec(child) < _PREC[op] else text)
    op, left, right = tree
    p = _PREC[op]
    left_text, right_text = to_text(left), to_text(right)
    right_assoc = op in _RIGHT_ASSOC
    if _prec(left) < p or (right_assoc and _prec(left) == p):
        left_text = f"({left_text})"
    if _prec(right) < p or (not right_assoc and _prec(right) == p):
        right_text = f"({right_text})"
    return f"{left_text} {op} {right_text}"


def random_tree(rng: random.Random, max_size: int, atoms=ATOMS):
    """One random formula of at most max_size nodes.

    Makes the same draws, in the same order, as
    ``plausible.sampling.random_formula`` did when this was written, so the
    stream keeps its traffic if the library's sampler changes; the tests
    pin the agreement at the ROADMAP seed.
    """
    budget = rng.randint(1, max_size)

    def build(n: int):
        if n <= 1:
            roll = rng.random()
            if roll < 0.85:
                return rng.choice(atoms)
            return "true" if roll < 0.925 else "false"
        kinds = ("~", "#") if n == 2 else ("~", "#", "&", "|", "->", "<->")
        kind = rng.choice(kinds)
        if kind in ("~", "#"):
            return (kind, build(n - 1))
        left = rng.randint(1, n - 2)
        return (kind, build(left), build(n - 1 - left))

    return build(budget)


def corpus_stream(seed: int, max_size: int = CORPUS_MAX_SIZE):
    """The corpus-mixed traffic: an endless stream of random formulas as
    text.  Its first n items are the seed's n-formula corpus."""
    rng = random.Random(seed)
    while True:
        yield to_text(random_tree(rng, max_size))



# ---------------------------------------------------------------------------
# theorem-sweep

def schema_instance(schema: str, a, b=None):
    """Tree of one instance of an axiom schema."""
    if schema == "AX1":
        return ("->", ("&", ("#", a), ("#", b)), ("#", ("&", a, b)))
    if schema == "AX2":
        return ("->", ("|", ("#", a), ("#", b)), ("#", ("|", a, b)))
    if schema == "AX3":
        return ("->", ("#", a), a)
    if schema == "AX4":
        return ("#", ("|", a, ("~", a)))
    raise ValueError(f"unknown schema {schema!r}")


def depth2_pool() -> list:
    """The 22 formulas of depth at most 2 over p and q."""
    pool = ["p", "q"]
    for a in ("p", "q"):
        pool.extend([("~", a), ("#", a)])
    for a, b in itertools.product(("p", "q"), repeat=2):
        pool.extend([("&", a, b), ("|", a, b), ("->", a, b), ("<->", a, b)])
    return pool


def _theorem(schema: str, a, b=None) -> tuple:
    """(schema, ((variable, binding text), ...), text of #instance)."""
    bindings = (("A", to_text(a)),) if b is None else \
        (("A", to_text(a)), ("B", to_text(b)))
    return schema, bindings, to_text(("#", schema_instance(schema, a, b)))


def depth2_theorems() -> list[tuple]:
    """Every AX1-AX4 instance over the depth-2 pool, in pool order."""
    pool = depth2_pool()
    out = []
    for a in pool:
        out.append(_theorem("AX3", a))
        out.append(_theorem("AX4", a))
        for b in pool:
            out.append(_theorem("AX1", a, b))
            out.append(_theorem("AX2", a, b))
    return out


def theorem_items(seed: int, count: int = RANDOM_THEOREMS) -> list[tuple]:
    """The depth-2 instances followed by ``count`` seeded random instances
    over p, q and r."""
    rng = random.Random(seed)
    out = depth2_theorems()
    for _ in range(count):
        schema = rng.choice(SCHEMAS)
        a = random_tree(rng, BINDING_MAX_SIZE)
        b = random_tree(rng, BINDING_MAX_SIZE) if schema in ("AX1", "AX2") \
            else None
        out.append(_theorem(schema, a, b))
    return out


# ---------------------------------------------------------------------------
# fo-sweep

def opens_families(domain: int) -> list[tuple[int, ...]]:
    """Every opens-family on a domain, by brute force over all families of
    nonempty masks that contain the full mask: kept when closed under
    pairwise intersection and union, the empty set excluded."""
    full = (1 << domain) - 1
    out = []
    for chosen in range(1 << (full - 1)):
        family = tuple(m for m in range(1, full) if chosen >> (m - 1) & 1) \
            + (full,)
        members = set(family)
        if all(a & b in members and a | b in members
               for a in family for b in family):
            out.append(family)
    return out


def fo_structures(seed: int, max_domain: int = FO_MAX_DOMAIN
                  ) -> list[tuple[int, tuple[int, ...], int, int]]:
    """Every unary structure (domain, opens, R mask, S mask) with domain up
    to max_domain, in an order shuffled by the seed."""
    out = [(d, family, rm, sm)
           for d in range(1, max_domain + 1)
           for family in opens_families(d)
           for rm, sm in itertools.product(range(1 << d), repeat=2)]
    random.Random(seed).shuffle(out)
    return out


def fo_expected(family, rm: int, sm: int) -> tuple[bool, ...]:
    """Independent verdicts for axioms a1..a6 on the pair R(x), S(x).

    a1-a4 and a6 follow from the closure laws and hold everywhere.  a5,
    forall x (R -> S) -> (P x. R -> P x. S), fails exactly when R is a
    subset of S, R is open and S is not.
    """
    a5 = not (rm & ~sm == 0 and rm in family and sm not in family)
    return (True, True, True, True, a5, True)
