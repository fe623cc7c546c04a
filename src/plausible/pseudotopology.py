"""Pseudo-topological spaces (E, Omega) at desk scale.

Omega is a family of subsets of a finite universe, stored as bitmasks,
closed under pairwise intersection and union, containing the whole universe
and excluding the empty set.  Weaker than a topology: no arbitrary unions,
and the empty set is banned outright.
"""

from __future__ import annotations

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


def enumerate_spaces(universe_size: int) -> Iterator[PseudoTopology]:
    """Every valid opens-family, in a deterministic order.

    Depth-first over candidate masks 1..full in ascending order, deciding
    exclusion before inclusion.  Pruning: two included opens may not be
    disjoint, their intersection (a smaller mask, already decided) must be
    included, and a mask required as a union of included opens may not be
    excluded when its turn comes.  A universe_size out of range raises
    ValueError at the call, before any space is built.
    """
    if not 1 <= universe_size <= MAX_UNIVERSE:
        # the empty universe has no space: E3 and E4 would conflict
        raise ValueError(f"universe_size must be in 1..{MAX_UNIVERSE}, "
                         f"got {universe_size}")
    full = (1 << universe_size) - 1
    masks = list(range(1, full + 1))

    def rec(i: int, chosen: list[int], required: frozenset[int]
            ) -> Iterator[PseudoTopology]:
        if i == len(masks):
            yield PseudoTopology(universe_size, frozenset(chosen))
            return
        m = masks[i]
        # exclude m (never allowed for the full mask, E3)
        if m != full and m not in required:
            yield from rec(i + 1, chosen, required)
        # include m
        new_required = set(required)
        ok = True
        for c in chosen:
            inter, union = c & m, c | m
            if inter == 0:
                ok = False  # would force the empty set open (E1 vs E4)
                break
            if inter < m and inter not in chosen:
                ok = False  # intersection was already rejected
                break
            if union > m:
                new_required.add(union)
        if ok:
            chosen.append(m)
            yield from rec(i + 1, chosen, frozenset(new_required))
            chosen.pop()

    return rec(0, [], frozenset())


def pairwise_nondisjoint(space: PseudoTopology) -> bool:
    """No two opens are disjoint.  A theorem for valid spaces, exposed so it
    can be verified exhaustively."""
    members = sorted(space.opens)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a & b == 0:
                return False
    return True


def principal_space(universe_size: int, point: int) -> PseudoTopology:
    """All subsets containing the given point."""
    full = (1 << universe_size) - 1
    return PseudoTopology(universe_size,
                          frozenset(m for m in range(1, full + 1)
                                    if m >> point & 1))

