"""Finite plausible algebras: the brute-force semantic oracle.

An algebra here is the powerset Boolean algebra on ``n_atoms`` generators
(elements are bitmasks) together with the plausibility operator ``sharp``.
Every finite Boolean algebra is of this form up to isomorphism, so nothing
is lost at the scales we enumerate.

Read bit w of an element as world w.  The valid operators are exactly the
box operators of the reflexive relations on ``n_atoms`` worlds (Jonsson
and Tarski's representation), so a ``PlausibleAlgebra`` is stored as its
relation, and ``sharp`` is the relation's box table.  Both come from the
one frame layer in ``pseudotopology``: ``frames`` lists the relations and
``box`` gives the table of one.  ``enumerate_algebras`` lists the
2^(n^2 - n) relations in the lexicographic order of their tables.

``find_countermodel`` searches one relation per isomorphism class, the
first of each class in that order (``_searched``: 1/1/3/16 of the
1/1/4/64 tables), and all valuations of one size at once, with Python
ints as bit-vectors over one flat index: configuration i = (position in
that list) * 2^(n k) + valuation index for k atoms on n worlds, and a
formula's value is one bit-vector per world, bit i set where it holds at
that world, the worlds' vectors packed as lanes of one int.  The
witness is the one a search of every table finds: isomorphic tables fail
alike, so the first to fail in the full order is the first of its class.
The search walks the interned formula block by block, each distinct
subformula once per block (``_value``).  The same walk decides
``formula.is_classical_tautology``: the one-world frame is the 2-element
algebra, and the atoms and #-subformulas of the formula are its units.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Optional

from .formula import (And, Atom, Bottom, Formula, Iff, Implies, Nabla, Not,
                      Or, Top, atoms)
from .pseudotopology import _is_int, _record, box, frames

MAX_ATOMS = 3

Valuation = dict[str, int]


class PlausibleAlgebra(_record("n_atoms successors")):
    """The algebra of a reflexive relation on the worlds 0..n_atoms-1:
    ``successors[w]`` is the bitmask of the worlds v with w R v, and must
    contain w itself.  ``sharp[a]`` is the set of worlds all of whose
    successors lie in a, so a1, a2 and a4 hold by construction and a3 by
    reflexivity.  The fields are checked before the record is built, and
    successors is stored as a tuple."""
    __slots__ = ()

    def __new__(cls, n_atoms: int, successors):
        if not _is_int(n_atoms) or n_atoms < 0:
            raise ValueError(f"n_atoms must be a non-negative integer, "
                             f"got {n_atoms!r}")
        # a list would make the algebra unhashable
        successors = tuple(successors)
        if len(successors) != n_atoms or any(
                not _is_int(s) or not 0 <= s < 1 << n_atoms
                or not s >> w & 1 for w, s in enumerate(successors)):
            raise ValueError(f"successors must list {n_atoms} masks in "
                             f"0..{(1 << n_atoms) - 1}, each containing its "
                             f"own world")
        return tuple.__new__(cls, (n_atoms, successors))

    @property
    def sharp(self) -> tuple[int, ...]:
        return box(self.n_atoms, self.successors)

    def to_json(self) -> dict:
        return {"n_atoms": self.n_atoms, "sharp": list(self.sharp)}


@functools.cache
def _algebras(n_atoms: int) -> tuple[PlausibleAlgebra, ...]:
    return tuple(sorted((PlausibleAlgebra(n_atoms, successors)
                         for successors in frames(n_atoms)),
                        key=lambda alg: alg.sharp))


@functools.cache
def _searched(n_atoms: int) -> tuple[PlausibleAlgebra, ...]:
    """The first algebra of each isomorphism class, in ``_algebras`` order:
    1/1/3/16 of the 1/1/4/64 tables.  A class is the images of one
    relation under the n! permutations of the worlds, and isomorphic
    algebras refute the same formulas, so the search tries these alone."""
    seen = set()
    firsts = []
    for alg in _algebras(n_atoms):
        if alg.successors not in seen:
            firsts.append(alg)
            for p in itertools.permutations(range(n_atoms)):
                image = [0] * n_atoms
                for w, s in enumerate(alg.successors):
                    image[p[w]] = sum(1 << p[v] for v in range(n_atoms)
                                      if s >> v & 1)
                seen.add(tuple(image))
    return tuple(firsts)


def enumerate_algebras(n_atoms: int) -> Iterator[PlausibleAlgebra]:
    """All plausible algebras on the 2^n_atoms-element powerset, in
    lexicographic order of their sharp tables.

    A table satisfies a1-a4 exactly when it is the box table of a reflexive
    relation on n_atoms worlds (a finite Boolean algebra is complete, and
    a1 with a4 make sharp preserve every meet), and distinct relations give
    distinct tables.  So the algebras are the 2^(n^2 - n) reflexive
    relations of ``pseudotopology.frames``, sorted by table.  An n_atoms
    out of range raises ValueError at the call, before any algebra is
    built.
    """
    if not _is_int(n_atoms) or not 0 <= n_atoms <= MAX_ATOMS:
        raise ValueError(f"n_atoms must be in 0..{MAX_ATOMS}, "
                         f"got {n_atoms!r}")
    return iter(_algebras(n_atoms))


# Configurations evaluated in one pass, as bit-vectors: the searched
# tables x valuations of a size are cut into blocks of this many
# configurations, so that no world's lane of a bit-vector is longer than
# this however many atoms a formula has.  It must be a power of two, so
# that every block is an aligned window, whose start is a multiple of its
# length, or the whole size: 1 and 3 worlds have 1 and 16 tables, so
# their sizes are powers of two; 2 worlds have 3 tables, 3 * 4^k
# configurations, and 4^k is a multiple of the block length or the whole
# size is one block.
_BLOCK_ELEMENTS = 1 << 16


def _index_bit(bit: int, start: int, length: int) -> int:
    """Bit j, for j < length, set where ``start + j`` has ``bit`` set, for
    a window of ``_first_failure``: ``length`` a power of two dividing
    ``start``, or ``start`` 0 and ``length`` a multiple of 2^(bit + 1)."""
    if 1 << bit >= length:
        # the window lies in one run of equal bits
        return (1 << length) - 1 if start >> bit & 1 else 0
    # the window is whole periods of the pattern, so every block shares
    # one cached mask
    return _periodic_bit(bit, length)


@functools.lru_cache(maxsize=64)
def _periodic_bit(bit: int, length: int) -> int:
    # a bit at the start of each period of 2 half bits, times the pattern
    half = 1 << bit
    return ((1 << length) - 1) // ((1 << 2 * half) - 1) \
        * (((1 << half) - 1) << half)


@functools.lru_cache(maxsize=32)
def _block_masks(n: int, k: int, i0: int, length: int):
    """The bit-vectors of configurations i0 .. i0 + length - 1 of size n
    with k units, i = (position in ``_searched(n)``) * 2^(n k) + valuation
    index, one lane of ``length`` bits per world, world w in lane w.
    Cached: at most 32 blocks of at most k + n bit-vectors.

    Returns (digits, steps, full): ``digits[j]`` marks, in lane w, where
    world w is in the j-th unit's value, digit j of the valuation index
    (first unit most significant), which is bit n (k - 1 - j) + w of i;
    ``steps`` lists, for each offset d in 1..n-1 that some relation of the
    block uses, the lane shifts that bring world w + d (mod n) into lane w
    and the complement of the mask of the configurations whose relation
    has w R w + d, in lane w; ``full`` sets every lane.
    """
    digits = tuple(sum(_index_bit(n * (k - 1 - j) + w, i0, length)
                       << w * length for w in range(n))
                   for j in range(k))
    shift = n * k
    runs = []  # (the configurations of one table, its relation)
    for t in range(i0 >> shift, ((i0 + length - 1) >> shift) + 1):
        lo = max(i0, t << shift) - i0
        hi = min(i0 + length, (t + 1) << shift) - i0
        runs.append((((1 << (hi - lo)) - 1) << lo,
                     _searched(n)[t].successors))
    steps = []
    for d in range(1, n):
        edge = sum(run << w * length for w in range(n)
                   for run, successors in runs
                   if successors[w] >> (w + d) % n & 1)
        if edge:
            steps.append((d * length, (n - d) * length, ~edge))
    return digits, tuple(steps), (1 << n * length) - 1


def _value(g: Formula, values: dict[Formula, int], steps: tuple,
           full: int) -> int:
    """The bit-vector of g on one block (``_block_masks``), kept in
    ``values``, which starts with the units' digits, so that a shared
    subformula is evaluated once: lane w has bit i set where g holds at
    world w in configuration i.  ``#A`` keeps A at world w only where each
    edge w R v leads to a world v where A holds: for each offset d, A is
    ANDed with its lanes rotated by d, or-ed with the configurations whose
    relation lacks the edge w R w + d."""
    value = values.get(g)
    if value is None:
        kind = type(g)
        if kind is Not:
            value = full ^ _value(g.child, values, steps, full)
        elif kind is Nabla:
            a = value = _value(g.child, values, steps, full)
            for down, up, not_edge in steps:
                value &= not_edge | (a >> down | a << up) & full
        elif kind is And:
            value = (_value(g.left, values, steps, full)
                     & _value(g.right, values, steps, full))
        elif kind is Or:
            value = (_value(g.left, values, steps, full)
                     | _value(g.right, values, steps, full))
        elif kind is Implies:
            value = ((full ^ _value(g.left, values, steps, full))
                     | _value(g.right, values, steps, full))
        elif kind is Iff:
            value = (full ^ _value(g.left, values, steps, full)
                     ^ _value(g.right, values, steps, full))
        elif kind is Top:
            value = full
        elif kind is Bottom:
            value = 0
        else:
            raise AssertionError(f"unevaluated node {g!r}")
        values[g] = value
    return value


def _first_failure(f: Formula, units: list[Formula],
                   n: int) -> Optional[int]:
    """The lowest configuration of size n (``_block_masks``) where f fails
    at some world, or None.  The units are the subformulas whose values
    are the digits of the valuation index: atoms, and for a classical
    check also #-subformulas."""
    k = len(units)
    total = len(_searched(n)) << n * k
    # only a search of one block is cached: a longer one meets its blocks
    # once each, in order, so a cache would only keep them alive after it
    masks = _block_masks if total <= _BLOCK_ELEMENTS \
        else _block_masks.__wrapped__
    for i0 in range(0, total, _BLOCK_ELEMENTS):
        length = min(_BLOCK_ELEMENTS, total - i0)
        digits, steps, full = masks(n, k, i0, length)
        bad = full ^ _value(f, dict(zip(units, digits)), steps, full)
        for w in range(1, n):
            bad |= bad >> w * length
        bad &= (1 << length) - 1
        if bad:
            return i0 + (bad & -bad).bit_length() - 1
    return None


def find_countermodel(f: Formula, max_atoms: int = MAX_ATOMS
                      ) -> Optional[tuple[PlausibleAlgebra, Valuation]]:
    """First (algebra, valuation) with value below top, or None.

    Enumeration order: algebra size ascending, sharp tables lexicographic,
    valuations lexicographic over the formula's atoms sorted by name.  The
    witness is therefore deterministic.

    Only the first table of each isomorphism class is tried, and the
    witness is still the first of the full order: if table T fails first
    in that order, the first member of T's class fails too (permute the
    valuation) and comes no later, so it is T.

    Each size is one flat run of configurations i = table * 2^(n k) +
    valuation index (see the module docstring), the table's position in
    ``_searched(n)`` being the high bits of i and the atoms' values its low
    bits, n per atom.  So the lowest i where some world fails, found block
    by block in ascending order, is the witness a loop over tables, then
    valuations, finds.
    """
    if not _is_int(max_atoms) or not 1 <= max_atoms <= MAX_ATOMS:
        raise ValueError(f"max_atoms must be between 1 and {MAX_ATOMS}, "
                         f"got {max_atoms!r}")
    names = sorted(atoms(f))
    units = [Atom(name) for name in names]
    k = len(names)
    for n in range(1, max_atoms + 1):
        i = _first_failure(f, units, n)
        if i is not None:
            top = (1 << n) - 1
            return _searched(n)[i >> n * k], {
                name: i >> n * (k - 1 - j) & top
                for j, name in enumerate(names)}
    return None


def countermodel_to_json(alg: PlausibleAlgebra, valuation: Valuation) -> dict:
    return {"algebra": alg.to_json(),
            "valuation": {name: valuation[name] for name in sorted(valuation)}}

