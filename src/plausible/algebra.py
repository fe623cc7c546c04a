"""Finite plausible algebras: the brute-force semantic oracle.

An algebra here is the powerset Boolean algebra on ``n_atoms`` generators
(elements are bitmasks) together with a table for the plausibility operator
``sharp``.  Every finite Boolean algebra is of this form up to isomorphism,
so nothing is lost at the scales we enumerate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .formula import (And, Atom, Bottom, Formula, Iff, Implies, Nabla, Not,
                      Or, Top)

MAX_ATOMS = 3


@dataclass(frozen=True)
class PlausibleAlgebra:
    n_atoms: int
    sharp: tuple[int, ...]

    @property
    def size(self) -> int:
        return 1 << self.n_atoms

    @property
    def top(self) -> int:
        return self.size - 1

    def to_json(self) -> dict:
        return {"n_atoms": self.n_atoms, "sharp": list(self.sharp)}

    @classmethod
    def from_json(cls, doc: dict) -> "PlausibleAlgebra":
        return cls(doc["n_atoms"], tuple(doc["sharp"]))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    axiom: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.ok


def validate(n_atoms: int, sharp) -> Verdict:
    """Check the defining laws of the plausibility operator:

    a1: #a & #b <= #(a & b)     a2: #a <= #(a | b)
    a3: #a <= a                 a4: #top = top
    """
    size = 1 << n_atoms
    top = size - 1
    sharp = tuple(sharp)
    if len(sharp) != size or any(not (0 <= s <= top) for s in sharp):
        raise ValueError(f"sharp table must list {size} elements in 0..{top}")
    for a in range(size):
        if sharp[a] & ~a & top:
            return Verdict(False, "a3", (a,))
    if sharp[top] != top:
        return Verdict(False, "a4", (top,))
    for a in range(size):
        for b in range(size):
            if (sharp[a] & sharp[b]) & ~sharp[a & b] & top:
                return Verdict(False, "a1", (a, b))
            if sharp[a] & ~sharp[a | b] & top:
                return Verdict(False, "a2", (a, b))
    return Verdict(True)


def _submasks_ascending(a: int) -> list[int]:
    return [s for s in range(a + 1) if s & ~a == 0]


def enumerate_algebras(n_atoms: int) -> Iterator[PlausibleAlgebra]:
    """All valid sharp tables on the 2^n_atoms-element algebra, in
    lexicographic table order.

    The search assigns sharp[0], sharp[1], ... in order, restricting each
    entry to submasks of its argument (a3) and pruning by monotonicity
    (equivalent to a2 on this lattice) and by the pairwise a1 law, both of
    which only mention already-assigned entries.  An n_atoms out of range
    raises ValueError at the call, before any table is built.
    """
    if not 0 <= n_atoms <= MAX_ATOMS:
        raise ValueError(f"n_atoms must be in 0..{MAX_ATOMS}, got {n_atoms}")
    size = 1 << n_atoms
    top = size - 1
    table = [0] * size

    def rec(a: int) -> Iterator[PlausibleAlgebra]:
        if a == size:
            alg = PlausibleAlgebra(n_atoms, tuple(table))
            assert validate(n_atoms, alg.sharp)
            yield alg
            return
        candidates = [top] if a == top else _submasks_ascending(a)
        for s in candidates:
            ok = True
            for b in range(a):
                if b & ~a == 0 and table[b] & ~s:
                    ok = False  # monotonicity: b <= a forces sharp[b] <= s
                    break
                if (s & table[b]) & ~table[a & b]:
                    ok = False  # a1 against an assigned entry
                    break
            if ok:
                table[a] = s
                yield from rec(a + 1)
        table[a] = 0

    return rec(0)


# ---------------------------------------------------------------------------
# evaluation

Valuation = dict[str, int]


class UnboundAtomError(KeyError):
    pass


def evaluate(f: Formula, alg: PlausibleAlgebra, valuation: Valuation) -> int:
    """Bottom-up evaluation; the plausibility operator maps through the
    sharp table, everything else through the Boolean structure."""
    top = alg.top
    if isinstance(f, Atom):
        try:
            return valuation[f.name]
        except KeyError:
            raise UnboundAtomError(f.name) from None
    if isinstance(f, Top):
        return top
    if isinstance(f, Bottom):
        return 0
    if isinstance(f, Not):
        return top ^ evaluate(f.child, alg, valuation)
    if isinstance(f, Nabla):
        return alg.sharp[evaluate(f.child, alg, valuation)]
    left = evaluate(f.left, alg, valuation)
    right = evaluate(f.right, alg, valuation)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Implies):
        return (top ^ left) | right
    if isinstance(f, Iff):
        return ((top ^ left) | right) & ((top ^ right) | left)
    raise AssertionError(f"unevaluated node {f!r}")


# Tables x valuations evaluated in one pass.  A size's tables are split into
# blocks of rows, and a row wider than this into chunks of valuations, so
# memory stays bounded however many atoms a formula has.
_BLOCK_ELEMENTS = 1 << 16


@functools.cache
def _sharp_tables(n_atoms: int) -> tuple[tuple[PlausibleAlgebra, ...],
                                         np.ndarray]:
    """The algebras of one size, in enumeration order, and their sharp
    tables as the rows of a read-only uint8 matrix."""
    algebras = tuple(enumerate_algebras(n_atoms))
    tables = np.array([alg.sharp for alg in algebras], dtype=np.uint8)
    tables.flags.writeable = False
    return algebras, tables


def _evaluate_tables(f: Formula, tables: np.ndarray, rows: np.ndarray,
                     grid: dict[str, np.ndarray], top: int):
    """Values of f for every sharp table (row of ``tables``) and every
    valuation (column of the ``grid`` arrays): an array or scalar that
    broadcasts to (tables, valuations).  ``rows`` is the column vector of
    row numbers, so ``#`` is a row-wise gather."""
    if isinstance(f, Atom):
        return grid[f.name]
    if isinstance(f, Top):
        return np.uint8(top)
    if isinstance(f, Bottom):
        return np.uint8(0)
    if isinstance(f, Not):
        return top ^ _evaluate_tables(f.child, tables, rows, grid, top)
    if isinstance(f, Nabla):
        return tables[rows, _evaluate_tables(f.child, tables, rows, grid, top)]
    left = _evaluate_tables(f.left, tables, rows, grid, top)
    right = _evaluate_tables(f.right, tables, rows, grid, top)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Implies):
        return (top ^ left) | right
    if isinstance(f, Iff):
        return top ^ left ^ right
    raise AssertionError(f"unevaluated node {f!r}")


def find_countermodel(f: Formula, max_atoms: int = MAX_ATOMS
                      ) -> Optional[tuple[PlausibleAlgebra, Valuation]]:
    """First (algebra, valuation) with value below top, or None.

    Enumeration order: algebra size ascending, sharp tables lexicographic,
    valuations lexicographic over the formula's atoms sorted by name.  The
    witness is therefore deterministic.

    All sharp tables of one size are evaluated together, as a matrix of
    tables by valuations, and the first entry below top in row-major order
    is the witness: the same one a loop over tables, then valuations, finds.
    Rows go in blocks, and overlong rows in chunks of valuations, of at
    most ``_BLOCK_ELEMENTS`` entries, in that same order.
    """
    if not 1 <= max_atoms <= MAX_ATOMS:
        raise ValueError(f"max_atoms must be between 1 and {MAX_ATOMS}")
    from .formula import atoms as formula_atoms
    names = sorted(formula_atoms(f))
    for n in range(1, max_atoms + 1):
        algebras, tables = _sharp_tables(n)
        top = (1 << n) - 1
        width = 1 << (n * len(names))
        n_rows = max(1, _BLOCK_ELEMENTS // width)
        n_cols = min(width, _BLOCK_ELEMENTS)
        for r0 in range(0, len(algebras), n_rows):
            block = tables[r0:r0 + n_rows]
            rows = np.arange(len(block))[:, None]
            for c0 in range(0, width, n_cols):
                index = np.arange(c0, min(c0 + n_cols, width))
                # digit i of the valuation index, first atom most significant
                grid = {name: ((index >> (n * (len(names) - 1 - i))) & top
                               ).astype(np.uint8)[None, :]
                        for i, name in enumerate(names)}
                values = _evaluate_tables(f, block, rows, grid, top)
                bad = np.flatnonzero(
                    np.broadcast_to(values, (len(block), len(index))) != top)
                if bad.size:
                    row, col = divmod(int(bad[0]), len(index))
                    valuation = {name: int(grid[name][0, col])
                                 for name in names}
                    return algebras[r0 + row], valuation
    return None


def is_valid_up_to(f: Formula, max_atoms: int = MAX_ATOMS) -> bool:
    return find_countermodel(f, max_atoms) is None


def plausible_elements(alg: PlausibleAlgebra) -> set[int]:
    """Nonzero fixed points of sharp; zero is excluded by definition even
    though sharp always fixes it."""
    return {a for a in range(alg.size) if a != 0 and alg.sharp[a] == a}


def countermodel_to_json(alg: PlausibleAlgebra, valuation: Valuation) -> dict:
    return {"algebra": alg.to_json(),
            "valuation": {name: valuation[name] for name in sorted(valuation)}}


def all_valuations(names: list[str], size: int) -> Iterator[Valuation]:
    """All valuations, in the same lexicographic order the search uses."""
    for values in itertools.product(range(size), repeat=len(names)):
        yield dict(zip(names, values))
