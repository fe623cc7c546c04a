"""Pseudo-topological spaces (E, Omega) at desk scale.

Omega is a family of subsets of a finite universe, stored as bitmasks,
closed under pairwise intersection and union, containing the whole universe
and excluding the empty set.  Weaker than a topology in general: no
arbitrary unions, and the empty set is banned outright.  But on a finite
universe Omega plus the empty set is a topology, the up-sets of the
preorder in which w reaches v when every open containing w contains v.
This module is the one frame layer of the package: ``frames`` lists the
reflexive relations on n points and ``box`` gives the box map of one.  A
space's opens are the nonzero fixed points of its relation's box, which
is its interior map.  In ``algebra`` a plausible algebra is stored as
such a relation, and the box map is its sharp table.
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

    def __post_init__(self):
        size = self.universe_size
        if not _is_int(size) or size < 1:
            raise ValueError(f"universe_size must be a positive integer, "
                             f"got {size!r}")
        # a plain set would make the space unhashable
        if type(self.opens) is not frozenset:
            try:
                opens = frozenset(self.opens)
            except TypeError:  # not an iterable of hashable members
                raise ValueError(f"opens must be integers, got "
                                 f"{self.opens!r}") from None
            object.__setattr__(self, "opens", opens)

    def to_json(self) -> dict:
        return {"universe_size": self.universe_size, "opens": sorted(self.opens)}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    axiom: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def validate(space: PseudoTopology) -> Verdict:
    """E1: closed under pairwise intersection; E2: closed under pairwise
    union; E3: the universe is open; E4: the empty set is not.  The
    verdict is memoised per family: a sweep builds thousands of
    structures on a few hundred families.  An open that is not an integer
    or out of range raises ValueError on every call."""
    # a space's opens are a frozenset already (see PseudoTopology)
    return _validate(space.universe_size, space.opens, id(space.opens))


@functools.lru_cache(maxsize=256)
def _validate(universe_size: int, members: frozenset[int],
              identity: int) -> Verdict:
    # identity is id(members): {True, 3} equals {1, 3}, so equality alone
    # would let one pass as the other.  An entry holds its family, so no
    # other family takes that id while the entry lives.
    full = (1 << universe_size) - 1
    for a in members:
        if not _is_int(a):
            raise ValueError(f"open {a!r} must be an integer")
        if a & ~full:
            raise ValueError(f"open {a} out of range for universe of "
                             f"size {universe_size}")
    if 0 in members:
        return Verdict(False, "E4", (0,))
    if full not in members:
        return Verdict(False, "E3", (full,))
    for a in members:
        for b in members:
            if a & b not in members:
                return Verdict(False, "E1", (a, b))
            if a | b not in members:
                return Verdict(False, "E2", (a, b))
    return Verdict(True)


def frames(n: int) -> Iterator[tuple[int, ...]]:
    """The 2^(n^2 - n) reflexive relations on the points 0..n-1, each as
    its successor masks (bit v of ``successors[w]`` set when w reaches v,
    bit w always set), in ``itertools.product`` order."""
    return itertools.product(*([s for s in range(1 << n) if s >> w & 1]
                               for w in range(n)))


def box(n: int, successors) -> tuple[int, ...]:
    """The box map of a relation on n points, given by its successor
    masks: entry a is the set of points all of whose successors lie in a.
    Its fixed points are the up-sets of the relation."""
    return tuple(sum(1 << w for w, s in enumerate(successors) if s & ~a == 0)
                 for a in range(1 << n))


@functools.cache
def _spaces(universe_size: int) -> tuple[PseudoTopology, ...]:
    full = (1 << universe_size) - 1
    families = {frozenset(a for a, inside in enumerate(
        box(universe_size, successors)) if a and inside == a)
        for successors in frames(universe_size)}
    spaces = (PseudoTopology(universe_size, opens) for opens in families)
    # by membership of mask 1, then of mask 2 and so on, exclusion first
    return tuple(sorted(filter(validate, spaces), key=lambda space: sum(
        1 << full - m for m in space.opens)))


def enumerate_spaces(universe_size: int) -> Iterator[PseudoTopology]:
    """Every valid opens-family, in a deterministic order.

    The nonzero fixed points of the ``box`` of each relation of
    ``frames``: its nonempty up-sets.  A relation has the up-sets of its
    transitive closure, so these families are exactly the finite
    topologies without the empty set; ``validate`` keeps those without two
    disjoint opens (E1 with E4).  Listed by membership of masks 1..full,
    exclusion before inclusion.  A universe_size out of range raises
    ValueError at the call, before any space is built.
    """
    if not 1 <= universe_size <= MAX_UNIVERSE:
        # the empty universe has no space: E3 and E4 would conflict
        raise ValueError(f"universe_size must be in 1..{MAX_UNIVERSE}, "
                         f"got {universe_size}")
    return iter(_spaces(universe_size))
