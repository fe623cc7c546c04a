import hashlib
import itertools
import json

import pytest

from plausible.pseudotopology import (MAX_UNIVERSE, PseudoTopology, box,
                                      enumerate_spaces, frames, validate)

# [DERIVED] counts pinned against the brute force below (sizes 1..4)
SPACE_COUNTS = {1: 1, 2: 3, 3: 16, 4: 145}

# [DERIVED] sha256 of json.dumps([s.to_json() for s in enumerate_spaces(n)]),
# frozen from the depth-first search that enumerated the spaces before they
# were generated from preorders.  The order is the one `enum-spaces`,
# `folp.unary_structures` and the first-order sweeps list the spaces in.
SPACE_FINGERPRINTS = {
    1: "c92014395f4ad73f4486532d16d9075e86063863c094e0cad695cc08eeec8b6d",
    2: "fbc5ae75eb1d49bfedabfd4cdd36b6a207be69d500905bf8c38809f43149a7c5",
    3: "35b678565fa9cd3f8388c0d370c3026f3028497121af01f29fd73bb0a16be4d2",
    4: "2a063173fe6dbe57b5643c42fe132cefe32ef4ec0728e202b15938cb5d2b1b85",
}


def space(universe_size, opens):
    return PseudoTopology(universe_size, frozenset(opens))


def test_validate_examples():
    assert validate(space(2, [3]))
    assert validate(space(2, [1, 3]))
    v = validate(space(2, [1, 2, 3]))
    assert not v.ok and v.axiom == "E1"
    v = validate(space(2, [1]))
    assert not v.ok and v.axiom == "E3"
    v = validate(space(2, [0, 3]))
    assert not v.ok and v.axiom == "E4"
    with pytest.raises(ValueError):
        validate(space(1, [2]))


def test_validate_memo_keeps_its_contract():
    # a plain set is accepted, equal families share one verdict, and an
    # open out of range raises however often it is asked
    assert validate(PseudoTopology(2, {1, 3}))
    assert validate(space(2, [1, 2, 3])) == validate(space(2, {1, 2, 3}))
    for _ in range(3):
        with pytest.raises(ValueError, match="out of range"):
            validate(space(1, [1, 2]))


def test_validate_catches_missing_union():
    # intersections fine, union 7 of 3 and 5 missing
    v = validate(space(3, [1, 3, 5, 7]))
    assert v.ok
    v = validate(space(4, [1, 3, 5, 15]))
    assert not v.ok and v.axiom == "E2" and set(v.witness) == {3, 5}


def test_counts_are_pinned():
    for size, count in SPACE_COUNTS.items():
        assert sum(1 for _ in enumerate_spaces(size)) == count


def test_enumeration_order_is_pinned():
    for size, fingerprint in SPACE_FINGERPRINTS.items():
        text = json.dumps([s.to_json() for s in enumerate_spaces(size)])
        assert hashlib.sha256(text.encode()).hexdigest() == fingerprint


def test_enumeration_matches_brute_force():
    for size in (1, 2, 3, 4):
        full = (1 << size) - 1
        masks = range(1, full + 1)
        expected = set()
        for r in range(len(list(masks)) + 1):
            for combo in itertools.combinations(masks, r):
                cand = space(size, combo)
                if validate(cand):
                    expected.add(cand.opens)
        got = [s.opens for s in enumerate_spaces(size)]
        assert len(got) == len(set(got))
        assert set(got) == expected


def test_box_examples():
    # one point: the identity; two points, 0 R 1 only: #{1} = {1}, #{0} = {}
    assert box(1, (1,)) == (0, 1)
    assert box(2, (3, 2)) == (0, 0, 2, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_box_fixed_points_are_the_up_sets(n):
    for successors in frames(n):
        up_sets = {a for a in range(1, 1 << n)
                   if all(not a >> w & 1 or a >> v & 1
                          for w in range(n) for v in range(n)
                          if successors[w] >> v & 1)}
        fixed = {a for a, inside in enumerate(box(n, successors))
                 if a and inside == a}
        assert fixed == up_sets


def test_size_two_families():
    families = sorted(sorted(s.opens) for s in enumerate_spaces(2))
    assert families == [[1, 3], [2, 3], [3]]


def test_enumeration_rejects_oversized_request():
    with pytest.raises(ValueError):
        enumerate_spaces(MAX_UNIVERSE + 1)
    with pytest.raises(ValueError):
        enumerate_spaces(0)


def test_all_enumerated_spaces_validate():
    for size in range(1, MAX_UNIVERSE + 1):
        for s in enumerate_spaces(size):
            assert validate(s)


def test_pairwise_nondisjoint_theorem():
    for size in range(1, MAX_UNIVERSE + 1):
        for s in enumerate_spaces(size):
            assert all(a & b for a in s.opens for b in s.opens)


def test_no_space_holds_two_disjoint_singletons():
    for s in enumerate_spaces(3):
        singletons = [m for m in s.opens if bin(m).count("1") == 1]
        assert len(singletons) <= 1


def test_principal_spaces():
    def principal_space(size, point):
        return PseudoTopology(size, frozenset(m for m in range(1 << size)
                                              if m >> point & 1))

    s = principal_space(3, 0)
    assert validate(s)
    assert s.opens == frozenset([1, 3, 5, 7])
    for size in range(1, MAX_UNIVERSE + 1):
        for point in range(size):
            assert validate(principal_space(size, point))


def test_json_round_trip():
    for s in enumerate_spaces(3):
        doc = s.to_json()
        assert space(doc["universe_size"], doc["opens"]) == s
    doc = space(2, [1, 3]).to_json()
    assert doc == {"universe_size": 2, "opens": [1, 3]}

