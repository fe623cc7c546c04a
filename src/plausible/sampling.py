"""Formula pools for sweeps: seeded random formulas for the cross-oracle
sweeps, and the depth-2 candidates for the axiom closure sweep."""

from __future__ import annotations

import itertools
import random

from .formula import (And, Atom, Bottom, Formula, Iff, Implies, Nabla, Not,
                      Or, Top, size)

DEFAULT_ATOMS = ("p", "q", "r")


def random_formula(rng: random.Random, max_size: int = 12,
                   atom_names: tuple[str, ...] = DEFAULT_ATOMS) -> Formula:
    """One random formula of at most max_size nodes.  A max_size below 1
    raises ValueError."""
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    budget = rng.randint(1, max_size)

    def build(n: int) -> Formula:
        if n <= 1:
            roll = rng.random()
            if roll < 0.85:
                return Atom(rng.choice(atom_names))
            return Top() if roll < 0.925 else Bottom()
        kinds = ("not", "nabla") if n == 2 else \
            ("not", "nabla", "and", "or", "implies", "iff")
        kind = rng.choice(kinds)
        if kind == "not":
            return Not(build(n - 1))
        if kind == "nabla":
            return Nabla(build(n - 1))
        left_budget = rng.randint(1, n - 2)
        ctor = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
        return ctor(build(left_budget), build(n - 1 - left_budget))

    f = build(budget)
    assert size(f) <= max_size
    return f


def corpus(seed: int, count: int, max_size: int = 12,
           atom_names: tuple[str, ...] = DEFAULT_ATOMS) -> list[Formula]:
    """Deterministic list of random formulas.  A negative count or a
    max_size below 1 raises ValueError at the call."""
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    rng = random.Random(seed)
    return [random_formula(rng, max_size, atom_names) for _ in range(count)]


def depth2_candidates() -> list[Formula]:
    """The 22 formulas of depth at most 2 over the atoms p and q: the atoms,
    their negations and plausibilities, and each binary connective applied
    to each ordered pair of atoms."""
    p, q = Atom("p"), Atom("q")
    out: list[Formula] = [p, q]
    for a in (p, q):
        out.extend([Not(a), Nabla(a)])
    for a, b in itertools.product((p, q), repeat=2):
        out.extend([And(a, b), Or(a, b), Implies(a, b), Iff(a, b)])
    return out
