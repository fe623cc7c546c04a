"""Pseudo-topological spaces (E, Omega) at desk scale.

Omega is a family of subsets of a finite universe, stored as bitmasks,
closed under pairwise intersection and union, containing the whole universe
and excluding the empty set.  Weaker than a topology in general: no
arbitrary unions, and the empty set is banned outright.  But on a finite
universe Omega plus the empty set is a topology, the up-sets of the
preorder in which w reaches v when every open containing w contains v.  So
``enumerate_spaces`` generates the spaces from the reflexive relations on
the points, as ``algebra.enumerate_algebras`` generates its tables from
frames, and the interior map of a space (#a the union of the opens inside
a) is ``algebra.from_frame`` of its preorder.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

MAX_UNIVERSE = 4


@dataclass(frozen=True)
class PseudoTopology:
    universe_size: int
    opens: frozenset[int]

    @property
    def full(self) -> int:
        return (1 << self.universe_size) - 1

    def to_json(self) -> dict:
        return {"universe_size": self.universe_size, "opens": sorted(self.opens)}

    @classmethod
    def from_json(cls, doc: dict) -> "PseudoTopology":
        return cls(doc["universe_size"], frozenset(doc["opens"]))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    axiom: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def validate(space: PseudoTopology) -> Verdict:
    """E1: closed under pairwise intersection; E2: closed under pairwise
    union; E3: the universe is open; E4: the empty set is not."""
    full = space.full
    for a in space.opens:
        if a & ~full:
            raise ValueError(f"open {a} out of range for universe of "
                             f"size {space.universe_size}")
    if 0 in space.opens:
        return Verdict(False, "E4", (0,))
    if full not in space.opens:
        return Verdict(False, "E3", (full,))
    members = space.opens
    for a in members:
        for b in members:
            if a & b not in members:
                return Verdict(False, "E1", (a, b))
            if a | b not in members:
                return Verdict(False, "E2", (a, b))
    return Verdict(True)


@functools.cache
def _spaces(universe_size: int) -> tuple[PseudoTopology, ...]:
    full = (1 << universe_size) - 1
    # one successor mask per point, each containing its point
    options = [[s for s in range(full + 1) if s >> w & 1]
               for w in range(universe_size)]
    families = set()  # bit a set where mask a is open
    for successors in itertools.product(*options):
        image = [0]  # image[a]: the successors of the points of a
        family = 0
        for a in range(1, full + 1):
            low = a & -a
            image.append(image[a ^ low] | successors[low.bit_length() - 1])
            family |= (image[a] == a) << a
        families.add(family)
    spaces = (PseudoTopology(universe_size, frozenset(
        a for a in range(1, full + 1) if family >> a & 1))
        for family in families)
    # by membership of mask 1, then of mask 2 and so on, exclusion first
    return tuple(sorted(filter(validate, spaces), key=lambda space: sum(
        1 << full - m for m in space.opens)))


def enumerate_spaces(universe_size: int) -> Iterator[PseudoTopology]:
    """Every valid opens-family, in a deterministic order.

    The nonempty up-sets of each reflexive relation on the points, the
    sets a with every successor of a point of a in a.  A relation has the
    up-sets of its transitive closure, so these families are exactly the
    finite topologies without the empty set; ``validate`` keeps those
    without two disjoint opens (E1 with E4).  Listed by membership of
    masks 1..full, exclusion before inclusion.  A universe_size out of
    range raises ValueError at the call, before any space is built.
    """
    if not 1 <= universe_size <= MAX_UNIVERSE:
        # the empty universe has no space: E3 and E4 would conflict
        raise ValueError(f"universe_size must be in 1..{MAX_UNIVERSE}, "
                         f"got {universe_size}")
    return iter(_spaces(universe_size))
