"""Finite plausible algebras: the brute-force semantic oracle.

An algebra here is the powerset Boolean algebra on ``n_atoms`` generators
(elements are bitmasks) together with a table for the plausibility operator
``sharp``.  Every finite Boolean algebra is of this form up to isomorphism,
so nothing is lost at the scales we enumerate.

Read bit w of an element as world w.  The valid tables are exactly the box
operators of the reflexive relations on ``n_atoms`` worlds: ``from_frame``
builds one from the successor masks of a relation, the ``successors`` of a
table give the relation back, and ``enumerate_algebras`` lists the tables
of the 2^(n^2 - n) reflexive relations in lexicographic order.

``find_countermodel`` searches all tables and valuations of one size at
once, with Python ints as bit-vectors: configuration i = row * width +
valuation index, and a formula's value is one bit-vector per world, bit i
set where it holds at that world, the worlds' vectors packed as lanes of
one int (see ``_block_masks`` and ``_run``).  ``evaluate`` is the plain
one-algebra, one-valuation reference.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .formula import (BINARY, UNARY, And, Atom, Bottom, Formula, Iff,
                      Implies, Nabla, Not, Or, Top)

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


def from_frame(n_atoms: int, successors) -> PlausibleAlgebra:
    """The box table of a reflexive relation on the worlds 0..n_atoms-1.

    Element a is the set of worlds w with bit w set; ``successors[w]`` is
    the bitmask of the worlds v with w R v, and must contain w itself.
    ``sharp[a]`` is the set of worlds all of whose successors lie in a, so
    a1, a2 and a4 hold by construction and a3 by reflexivity.
    """
    size = 1 << n_atoms
    successors = tuple(successors)
    if len(successors) != n_atoms or any(
            not 0 <= s < size or not s >> w & 1
            for w, s in enumerate(successors)):
        raise ValueError(f"successors must list {n_atoms} masks in "
                         f"0..{size - 1}, each containing its own world")
    return PlausibleAlgebra(n_atoms, tuple(
        sum(1 << w for w, s in enumerate(successors) if s & ~a == 0)
        for a in range(size)))


@functools.cache
def _algebras(n_atoms: int) -> tuple[PlausibleAlgebra, ...]:
    # one successor mask per world, each containing its world
    options = [[s for s in range(1 << n_atoms) if s >> w & 1]
               for w in range(n_atoms)]
    return tuple(sorted((from_frame(n_atoms, successors)
                         for successors in itertools.product(*options)),
                        key=lambda alg: alg.sharp))


def enumerate_algebras(n_atoms: int) -> Iterator[PlausibleAlgebra]:
    """All valid sharp tables on the 2^n_atoms-element algebra, in
    lexicographic table order.

    A table satisfies a1-a4 exactly when it is the box table of a reflexive
    relation on n_atoms worlds (a finite Boolean algebra is complete, and
    a1 with a4 make sharp preserve every meet), and distinct relations give
    distinct tables.  So the tables are ``from_frame`` of the
    2^(n^2 - n) reflexive relations, sorted.  An n_atoms out of range
    raises ValueError at the call, before any table is built.
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


# Tables x valuations evaluated in one pass, as bit-vectors.  A size's
# tables are split into blocks of rows, and a row wider than this into
# chunks of valuations, so that no world's lane of a bit-vector is longer
# than this however many atoms a formula has.
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
    # the pattern has period 2 * half, so every chunk of a long row that
    # starts at the same phase shares one cached mask
    return _periodic_bit(bit, start % (2 * half), length)


@functools.lru_cache(maxsize=64)
def _periodic_bit(bit: int, phase: int, length: int) -> int:
    half = 1 << bit
    periods = (phase + length + 2 * half - 1) // (2 * half)
    ones = ((1 << half) - 1) << half
    return _repeat(ones, 2 * half, periods) >> phase & ((1 << length) - 1)


def _block_masks(n: int, n_names: int, r0: int, n_rows: int, c0: int,
                 n_cols: int):
    """The bit-vectors of one block: tables r0 .. r0 + n_rows - 1 of size n
    by valuations c0 .. c0 + n_cols - 1, configuration i = row * n_cols +
    col, one lane of n_rows * n_cols bits per world, world w in lane w.

    Returns (digits, steps, full): ``digits[j]`` marks, in lane w, where
    world w is in the value of the j-th atom (digit j of the valuation
    index, first atom most significant); ``steps`` lists, for each offset
    d in 1..n-1 that some relation uses, the lane shifts that bring world
    w + d (mod n) into lane w and the complement of the mask that has, in
    lane w, the rows whose relation has w R w + d; ``full`` sets every lane.
    """
    lane = n_rows * n_cols
    row = (1 << n_cols) - 1
    frames = [alg.successors for alg in _algebras(n)[r0:r0 + n_rows]]
    digits = tuple(
        sum(_repeat(_index_bit(n * (n_names - 1 - j) + w, c0, n_cols),
                    n_cols, n_rows) << w * lane for w in range(n))
        for j in range(n_names))
    steps = []
    for d in range(1, n):
        edge = sum(row << (w * lane + r * n_cols)
                   for w in range(n) for r, successors in enumerate(frames)
                   if successors[w] >> (w + d) % n & 1)
        if edge:
            steps.append((d * lane, (n - d) * lane, ~edge))
    return digits, tuple(steps), _repeat((1 << lane) - 1, lane, n)


@functools.lru_cache(maxsize=32)
def _row_block_masks(n: int, n_names: int, r0: int, n_rows: int):
    """``_block_masks`` for a block of whole rows, cached: at most 32
    blocks of at most n_names + n bit-vectors of at most n lanes of
    ``_BLOCK_ELEMENTS`` bits each."""
    return _block_masks(n, n_names, r0, n_rows, 0, 1 << (n * n_names))


def _program(f: Formula, names: list[str]) -> tuple[list[tuple], int]:
    """f as straight-line code over value slots, and the slot of f.  Slots
    0 .. len(names) - 1 hold the atoms, the next two true and false, and
    each instruction (node class, slot, slot) appends the value of one
    distinct subformula, children first."""
    slots = {Atom(name): i for i, name in enumerate(names)}
    slots[Top()] = len(names)
    slots[Bottom()] = len(names) + 1
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
    with its lanes rotated by d, or-ed with the rows that lack the edge
    w R w + d."""
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


def find_countermodel(f: Formula, max_atoms: int = MAX_ATOMS
                      ) -> Optional[tuple[PlausibleAlgebra, Valuation]]:
    """First (algebra, valuation) with value below top, or None.

    Enumeration order: algebra size ascending, sharp tables lexicographic,
    valuations lexicographic over the formula's atoms sorted by name.  The
    witness is therefore deterministic.

    All sharp tables of one size are evaluated together, bit-parallel over
    their frames (see ``from_frame``): configuration i = row * width +
    valuation index, where width is the number of valuations, and a
    formula's value is one bit-vector per world, bit i set where the
    formula holds at that world; the n worlds' vectors sit side by side as
    lanes of one int.  Atoms are digit masks of the valuation index, the
    Boolean connectives are int operations, and ``#A`` at world w keeps
    A_w only in the rows where A holds at every successor of w.  The
    lowest bit where some world fails is the first entry below top in
    row-major order: the same witness a loop over tables, then valuations,
    finds.  Rows go in blocks, and overlong rows in chunks of valuations,
    of at most ``_BLOCK_ELEMENTS`` bits per lane, in that same order; only
    the masks of blocks of whole rows are cached.  The formula is compiled
    once (``_program``) and run on every block.
    """
    if not 1 <= max_atoms <= MAX_ATOMS:
        raise ValueError(f"max_atoms must be between 1 and {MAX_ATOMS}")
    from .formula import atoms as formula_atoms
    names = sorted(formula_atoms(f))
    k = len(names)
    code, result = _program(f, names)
    for n in range(1, max_atoms + 1):
        algebras = _algebras(n)
        top = (1 << n) - 1
        width = 1 << (n * k)
        n_rows = max(1, _BLOCK_ELEMENTS // width)
        n_cols = min(width, _BLOCK_ELEMENTS)
        for r0 in range(0, len(algebras), n_rows):
            rows = min(n_rows, len(algebras) - r0)
            for c0 in range(0, width, n_cols):
                cols = min(n_cols, width - c0)
                if cols == width:
                    digits, steps, full = _row_block_masks(n, k, r0, rows)
                else:
                    digits, steps, full = _block_masks(n, k, r0, rows, c0,
                                                       cols)
                value = _run(code, digits, steps, full)[result]
                lane = rows * cols
                held = value
                for w in range(1, n):
                    held &= value >> w * lane
                bad = (1 << lane) - 1 & ~held
                if bad:
                    row, col = divmod((bad & -bad).bit_length() - 1, cols)
                    index = c0 + col
                    valuation = {name: index >> (n * (k - 1 - j)) & top
                                 for j, name in enumerate(names)}
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
