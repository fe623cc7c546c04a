"""Finite plausible algebras: the brute-force semantic oracle.

An algebra here is the powerset Boolean algebra on ``n_atoms`` generators
(elements are bitmasks) together with a table for the plausibility operator
``sharp``.  Every finite Boolean algebra is of this form up to isomorphism,
so nothing is lost at the scales we enumerate.

Read bit w of an element as world w.  The valid tables are exactly the box
operators of the reflexive relations on ``n_atoms`` worlds, which come from
the one frame layer in ``pseudotopology``: ``frames`` lists the relations
and ``box`` gives the table of one.  ``from_frame`` checks a relation and
wraps its box, the ``successors`` of a table give the relation back, and
``enumerate_algebras`` lists the tables of the 2^(n^2 - n) relations in
lexicographic order.

``find_countermodel`` searches all tables and valuations of one size at
once, with Python ints as bit-vectors over one flat index: configuration
i = table * 2^(n k) + valuation index for k atoms on n worlds, and a
formula's value is one bit-vector per world, bit i set where it holds at
that world, the worlds' vectors packed as lanes of one int.  The formula is
compiled once into straight-line code (``_program``) and run block by block
(``_block_masks``, ``_run``).  The same program decides
``formula.is_classical_tautology``: the one-world frame is the 2-element
algebra, and the atoms and #-subformulas of the formula are its units.
``evaluate`` is the plain one-algebra, one-valuation reference.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .formula import (BINARY, UNARY, And, Atom, Bottom, Formula, Iff,
                      Implies, Nabla, Not, Or, Top, atoms)
from .pseudotopology import Verdict, box, frames

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

    @property
    def successors(self) -> tuple[int, ...]:
        """The relation whose box table this is, as ``from_frame`` takes
        it: w R v exactly when w is not in sharp(top minus v)."""
        return tuple(sum(1 << v for v in range(self.n_atoms)
                         if not self.sharp[self.top ^ 1 << v] >> w & 1)
                     for w in range(self.n_atoms))

    def to_json(self) -> dict:
        return {"n_atoms": self.n_atoms, "sharp": list(self.sharp)}


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


def from_frame(n_atoms: int, successors) -> PlausibleAlgebra:
    """The box table of a reflexive relation on the worlds 0..n_atoms-1.

    Element a is the set of worlds w with bit w set; ``successors[w]`` is
    the bitmask of the worlds v with w R v, and must contain w itself.
    ``sharp[a]`` is the set of worlds all of whose successors lie in a
    (``pseudotopology.box``), so a1, a2 and a4 hold by construction and a3
    by reflexivity.
    """
    size = 1 << n_atoms
    successors = tuple(successors)
    if len(successors) != n_atoms or any(
            not 0 <= s < size or not s >> w & 1
            for w, s in enumerate(successors)):
        raise ValueError(f"successors must list {n_atoms} masks in "
                         f"0..{size - 1}, each containing its own world")
    return PlausibleAlgebra(n_atoms, box(n_atoms, successors))


@functools.cache
def _algebras(n_atoms: int) -> tuple[PlausibleAlgebra, ...]:
    return tuple(sorted((from_frame(n_atoms, successors)
                         for successors in frames(n_atoms)),
                        key=lambda alg: alg.sharp))


def enumerate_algebras(n_atoms: int) -> Iterator[PlausibleAlgebra]:
    """All valid sharp tables on the 2^n_atoms-element algebra, in
    lexicographic table order.

    A table satisfies a1-a4 exactly when it is the box table of a reflexive
    relation on n_atoms worlds (a finite Boolean algebra is complete, and
    a1 with a4 make sharp preserve every meet), and distinct relations give
    distinct tables.  So the tables are ``from_frame`` of the
    2^(n^2 - n) reflexive relations of ``pseudotopology.frames``, sorted.
    An n_atoms out of range raises ValueError at the call, before any
    table is built.
    """
    if not 0 <= n_atoms <= MAX_ATOMS:
        raise ValueError(f"n_atoms must be in 0..{MAX_ATOMS}, got {n_atoms}")
    return iter(_algebras(n_atoms))


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


# Configurations evaluated in one pass, as bit-vectors: the tables x
# valuations of a size are cut into blocks of this many configurations, so
# that no world's lane of a bit-vector is longer than this however many
# atoms a formula has.
_BLOCK_ELEMENTS = 1 << 16


def _repeat(pattern: int, period: int, count: int) -> int:
    """``count`` copies of a ``period``-bit pattern, end to end."""
    out = shift = 0
    while True:
        if count & 1:
            out |= pattern << shift
            shift += period
        count >>= 1
        if not count:
            return out
        pattern |= pattern << period
        period *= 2


def _index_bit(bit: int, start: int, length: int) -> int:
    """Bit j, for j < length, set where ``start + j`` has ``bit`` set."""
    half = 1 << bit
    if half >= length:
        # the window meets at most two runs of equal bits
        first = min(length, half - start % half)
        out = (1 << first) - 1 if start >> bit & 1 else 0
        if (start + first) >> bit & 1:
            out |= ((1 << (length - first)) - 1) << first
        return out
    # the pattern has period 2 * half, so every block that starts at the
    # same phase shares one cached mask
    return _periodic_bit(bit, start % (2 * half), length)


@functools.lru_cache(maxsize=64)
def _periodic_bit(bit: int, phase: int, length: int) -> int:
    half = 1 << bit
    periods = (phase + length + 2 * half - 1) // (2 * half)
    ones = ((1 << half) - 1) << half
    return _repeat(ones, 2 * half, periods) >> phase & ((1 << length) - 1)


@functools.lru_cache(maxsize=32)
def _block_masks(n: int, k: int, i0: int, length: int):
    """The bit-vectors of configurations i0 .. i0 + length - 1 of size n
    with k units, i = table * 2^(n k) + valuation index, one lane of
    ``length`` bits per world, world w in lane w.  Cached: at most 32
    blocks of at most k + n bit-vectors.

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
                     _algebras(n)[t].successors))
    steps = []
    for d in range(1, n):
        edge = sum(run << w * length for w in range(n)
                   for run, successors in runs
                   if successors[w] >> (w + d) % n & 1)
        if edge:
            steps.append((d * length, (n - d) * length, ~edge))
    return digits, tuple(steps), _repeat((1 << length) - 1, length, n)


def _program(f: Formula, units: list[Formula]) -> tuple[list[tuple], int]:
    """f as straight-line code over value slots, and the slot of f.  Slots
    0 .. len(units) - 1 hold the units, the subformulas whose values are
    the digits of the valuation index (atoms, and for a classical check
    also #-subformulas); the next two hold true and false, and each
    instruction (node class, slot, slot) appends the value of one distinct
    subformula, children first."""
    slots = {unit: i for i, unit in enumerate(units)}
    slots[Top()] = len(units)
    slots[Bottom()] = len(units) + 1
    code: list[tuple] = []

    def emit(g: Formula) -> int:
        slot = slots.get(g)
        if slot is None:
            if isinstance(g, UNARY):
                code.append((type(g), emit(g.child), 0))
            elif isinstance(g, BINARY):
                code.append((type(g), emit(g.left), emit(g.right)))
            else:
                raise AssertionError(f"unevaluated node {g!r}")
            slot = slots[g] = len(slots)
        return slot

    return code, emit(f)


def _run(code: list[tuple], digits: tuple[int, ...], steps: tuple,
         full: int) -> list[int]:
    """The slot values of a ``_program`` on one block (``_block_masks``):
    lane w of a value has bit i set where its subformula holds at world w
    in configuration i.  ``#A`` keeps A at world w only where each edge
    w R v leads to a world v where A holds: for each offset d, A is ANDed
    with its lanes rotated by d, or-ed with the configurations whose
    relation lacks the edge w R w + d."""
    values = [*digits, full, 0]
    append = values.append
    for kind, i, j in code:
        a = values[i]
        if kind is Not:
            append(full ^ a)
        elif kind is Nabla:
            out = a
            for down, up, not_edge in steps:
                out &= not_edge | (a >> down | a << up) & full
            append(out)
        elif kind is And:
            append(a & values[j])
        elif kind is Or:
            append(a | values[j])
        elif kind is Implies:
            append((full ^ a) | values[j])
        elif kind is Iff:
            append(full ^ a ^ values[j])
        else:
            raise AssertionError(f"unevaluated node class {kind!r}")
    return values


def _first_failure(code: list[tuple], result: int, n: int,
                   k: int) -> Optional[int]:
    """The lowest configuration of size n with k units (``_block_masks``)
    where slot ``result`` of the program fails at some world, or None."""
    total = len(_algebras(n)) << n * k
    # only a search of one block is cached: a longer one meets its blocks
    # once each, in order, so a cache would only keep them alive after it
    masks = _block_masks if total <= _BLOCK_ELEMENTS \
        else _block_masks.__wrapped__
    for i0 in range(0, total, _BLOCK_ELEMENTS):
        length = min(_BLOCK_ELEMENTS, total - i0)
        digits, steps, full = masks(n, k, i0, length)
        bad = full ^ _run(code, digits, steps, full)[result]
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

    Each size is one flat run of configurations i = table * 2^(n k) +
    valuation index (see the module docstring): the table is the high bits
    of i and the atoms' values its low bits, n per atom.  So the lowest i
    where some world fails, found block by block in ascending order, is the
    witness a loop over tables, then valuations, finds.
    """
    if not 1 <= max_atoms <= MAX_ATOMS:
        raise ValueError(f"max_atoms must be between 1 and {MAX_ATOMS}")
    names = sorted(atoms(f))
    k = len(names)
    code, result = _program(f, [Atom(name) for name in names])
    for n in range(1, max_atoms + 1):
        i = _first_failure(code, result, n, k)
        if i is not None:
            top = (1 << n) - 1
            return _algebras(n)[i >> n * k], {
                name: i >> n * (k - 1 - j) & top
                for j, name in enumerate(names)}
    return None


def countermodel_to_json(alg: PlausibleAlgebra, valuation: Valuation) -> dict:
    return {"algebra": alg.to_json(),
            "valuation": {name: valuation[name] for name in sorted(valuation)}}


def all_valuations(names: list[str], size: int) -> Iterator[Valuation]:
    """All valuations, in the same lexicographic order the search uses."""
    for values in itertools.product(range(size), repeat=len(names)):
        yield dict(zip(names, values))
