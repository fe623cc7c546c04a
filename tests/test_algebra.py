import gc
import itertools
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from plausible import algebra
from plausible.algebra import (MAX_ATOMS, PlausibleAlgebra,
                               countermodel_to_json, enumerate_algebras,
                               find_countermodel)
from plausible.folp import parse_fo
from plausible.formula import (And, Atom, Bottom, Iff, Implies, Nabla, Not,
                               Or, Top, atoms, erase_nabla,
                               is_classical_tautology, parse)
from plausible.pseudotopology import frames

from conftest import evaluate, validate_algebra as validate

# [DERIVED] pinned independently of the enumerator, see below
ALGEBRA_COUNTS = {1: 1, 2: 4, 3: 64}


def test_validate_accepts_sharp_identity():
    for n in range(1, MAX_ATOMS + 1):
        size = 1 << n
        assert validate(n, tuple(range(size)))


def test_validate_rejects_with_named_axiom():
    # sharp(1) = 1 but sharp(3) = 0 breaks monotonicity, i.e. a2
    v = validate(2, (0, 1, 0, 0))
    assert not v.ok and v.axiom in ("a2", "a4")
    v = validate(1, (0, 0))
    assert not v.ok and v.axiom == "a4"
    v = validate(1, (1, 1))
    assert not v.ok and v.axiom == "a3"
    with pytest.raises(ValueError):
        validate(1, (0,))
    with pytest.raises(ValueError):
        validate(1, (0, 5))


def test_enumeration_counts_are_pinned():
    for n, count in ALGEBRA_COUNTS.items():
        assert sum(1 for _ in enumerate_algebras(n)) == count


def test_enumeration_matches_brute_force_n2():
    size, top = 4, 3
    found = []
    for table in itertools.product(range(size), repeat=size):
        if validate(2, table):
            found.append(table)
    assert len(found) == ALGEBRA_COUNTS[2]
    assert [a.sharp for a in enumerate_algebras(2)] == sorted(found)


def test_enumeration_is_lexicographic():
    for n in (2, 3):
        tables = [a.sharp for a in enumerate_algebras(n)]
        assert tables == sorted(tables)
        assert len(set(tables)) == len(tables)


def test_enumeration_rejects_oversized_request():
    with pytest.raises(ValueError):
        enumerate_algebras(MAX_ATOMS + 1)
    with pytest.raises(ValueError):
        enumerate_algebras(-1)


def _reflexive_relations(n):
    """Every reflexive relation on n worlds as successor masks, built from
    the subsets of the off-diagonal pairs."""
    pairs = [(w, v) for w in range(n) for v in range(n) if w != v]
    for chosen in range(1 << len(pairs)):
        successors = [1 << w for w in range(n)]
        for bit, (w, v) in enumerate(pairs):
            if chosen >> bit & 1:
                successors[w] |= 1 << v
        yield successors


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_frames_are_the_reflexive_relations(n):
    listed = list(frames(n))
    assert len(listed) == 2 ** (n * n - n)
    assert set(listed) == {tuple(s) for s in _reflexive_relations(n)}
    assert all(s >> w & 1 for successors in listed
               for w, s in enumerate(successors))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frames_give_the_tables(n):
    tables = sorted(PlausibleAlgebra(n, successors).sharp
                    for successors in _reflexive_relations(n))
    assert len(tables) == 2 ** (n * n - n) == ALGEBRA_COUNTS[n]
    assert tables == [a.sharp for a in enumerate_algebras(n)]
    top = (1 << n) - 1
    for alg in enumerate_algebras(n):
        assert validate(n, alg.sharp)
        # the table gives its relation back: w R v exactly when w is not
        # in sharp(top minus v), so distinct relations have distinct tables
        assert tuple(sum(1 << v for v in range(n)
                         if not alg.sharp[top ^ 1 << v] >> w & 1)
                     for w in range(n)) == alg.successors


def test_algebra_record_checks_its_relation():
    # one world: the identity; two worlds, 0 R 1 only: #{1} = {1}, #{0} = {}
    assert PlausibleAlgebra(1, [1]).sharp == (0, 1)
    alg = PlausibleAlgebra(2, [3, 2])
    assert alg.sharp == (0, 0, 2, 3)
    # a list is stored as a tuple, so the record hashes
    assert alg.successors == (3, 2)
    assert hash(alg) == hash(PlausibleAlgebra(2, (3, 2)))
    # not reflexive at world 0, then world 1; out of range; wrong length;
    # a mask that is not an integer (a bool is not one either)
    for n, successors in ((1, [0]), (2, [1, 1]), (1, [3]), (2, [1, 2, 4]),
                          (2, (1.0, 3)), (2, ("1", 3)), (2, (True, 3))):
        with pytest.raises(ValueError, match=f"^successors must list {n} "):
            PlausibleAlgebra(n, successors)
    with pytest.raises(ValueError, match="^n_atoms must be a non-negative "
                                         "integer, got True$"):
        PlausibleAlgebra(True, (1,))


def test_evaluate_examples():
    alg = PlausibleAlgebra(1, (1,))
    assert evaluate(parse("#p -> p"), alg, {"p": 0}) == 1
    assert evaluate(parse("#p"), alg, {"p": 0}) == 0
    assert evaluate(parse("true"), alg, {}) == 1
    assert evaluate(parse("false"), alg, {}) == 0


def test_evaluate_unbound_atom():
    alg = PlausibleAlgebra(1, (1,))
    with pytest.raises(KeyError):
        evaluate(parse("p"), alg, {})


def test_evaluate_reads_frames_beyond_the_search():
    # the 4-world chain 0 R 1 R 2 R 3 with p at worlds 0-2 refutes
    # ##p -> ###p at world 0, yet no frame of at most 3 worlds does: no
    # fixed bound of the search is complete for KT
    f = parse("##p -> ###p")
    chain = PlausibleAlgebra(4, (0b0011, 0b0110, 0b1100, 0b1000))
    assert not evaluate(f, chain, {"p": 0b0111}) & 1
    assert find_countermodel(f, 3) is None


def test_evaluate_is_linear_in_worlds():
    # the 64-world chain w R w + 1, whose table would have 2**64 entries,
    # with p false only at world 63: #^d p holds below world 63 - d
    n = 64
    chain = PlausibleAlgebra(n, tuple(3 << w & (1 << n) - 1
                                      for w in range(n)))
    f = Atom("p")
    for d in range(n):
        assert evaluate(f, chain, {"p": (1 << 63) - 1}) \
            == (1 << 63 - d) - 1
        f = Nabla(f)


@pytest.mark.parametrize("text", ["forall x. R(x)", "R(x)"])
@pytest.mark.parametrize("entry", [
    lambda f: evaluate(f, PlausibleAlgebra(1, (1,)), {}),
    find_countermodel,
    is_classical_tautology,
], ids=["evaluate", "find_countermodel", "is_classical_tautology"])
def test_first_order_nodes_are_not_evaluated(entry, text):
    f = parse_fo(text)
    with pytest.raises(AssertionError,
                       match=f"^unevaluated node {re.escape(repr(f))}$"):
        entry(f)


@pytest.mark.parametrize("cls", [Not, Nabla])
def test_deep_chains_are_evaluated(cls):
    # the walk takes one frame per level: 800 levels stay under the
    # default recursion limit with pytest's own frames beneath them
    f = Atom("p")
    for _ in range(800):
        f = cls(f)
    assert find_countermodel(f) is not None
    assert not is_classical_tautology(f)


def test_shared_subformulas_are_walked_once():
    # f_(k+1) = f_k & #f_k has 2k + 1 distinct subformulas but a tree of
    # over 2^k nodes, which no walk of the tree finishes at k = 60
    f = Atom("p")
    g = Or(f, Not(f))
    for _ in range(60):
        f, g = And(f, Nabla(f)), Or(g, Nabla(g))
    assert atoms(f) == atoms(g) == {"p"}
    assert find_countermodel(f, 3) == (PlausibleAlgebra(1, (1,)), {"p": 0})
    assert find_countermodel(g, 3) is None


def test_countermodel_examples():
    alg, valuation = find_countermodel(parse("#p"))
    assert alg == PlausibleAlgebra(1, (1,))
    assert valuation == {"p": 0}

    alg, valuation = find_countermodel(parse("#p -> #q"))
    assert alg == PlausibleAlgebra(1, (1,))
    assert valuation == {"p": 1, "q": 0}

    assert find_countermodel(parse("#p -> p")) is None
    assert find_countermodel(parse("#(p | ~p)")) is None

    # a bare leaf is the formula's own value slot
    assert find_countermodel(parse("true")) is None
    assert find_countermodel(parse("false")) == (PlausibleAlgebra(1, (1,)),
                                                 {})
    assert find_countermodel(parse("p"))[1] == {"p": 0}


def _first_countermodel_by_loop(f, max_atoms):
    """The reference: a plain loop over algebras, then valuations."""
    names = sorted(atoms(f))
    for n in range(1, max_atoms + 1):
        for alg in enumerate_algebras(n):
            # valuations in lexicographic order, as the search tries them
            for values in itertools.product(range(1 << n),
                                            repeat=len(names)):
                valuation = dict(zip(names, values))
                if evaluate(f, alg, valuation) != (1 << n) - 1:
                    return alg, valuation
    return None


def _check_against_loop(f, max_atoms):
    hit = find_countermodel(f, max_atoms)
    assert hit == _first_countermodel_by_loop(f, max_atoms)
    if hit is not None:
        alg, valuation = hit
        assert evaluate(f, alg, valuation) != (1 << alg.n_atoms) - 1
    return hit


_formulas = st.recursive(
    st.one_of(st.sampled_from([Atom(n) for n in "pqrs"]),
              st.just(Top()), st.just(Bottom())),
    lambda children: st.one_of(
        children.map(Not), children.map(Nabla),
        st.tuples(st.sampled_from([And, Or, Implies, Iff]), children,
                  children).map(lambda t: t[0](t[1], t[2]))),
    max_leaves=10)


@settings(deadline=None)
@given(_formulas, st.integers(1, 2),
       st.sampled_from([2, 8, 64, algebra._BLOCK_ELEMENTS]))
# table 1 is refuted at an earlier valuation than table 0
@example(parse("q | p | #~(#p & q)"), 2, 2)
def test_countermodel_matches_loop(f, max_atoms, block_elements):
    """Small caps cut the flat run of configurations into blocks that
    split tables and, where a table has more valuations than the cap, its
    valuations; the witness must not depend on where the blocks fall.
    f <-> erase(f) holds in the 2-element algebra, where # is the identity,
    so its search goes on to the larger algebras."""
    with mock.patch.object(algebra, "_BLOCK_ELEMENTS", block_elements):
        _check_against_loop(f, max_atoms)
        _check_against_loop(Iff(f, erase_nabla(f)), max_atoms)


def test_countermodel_matches_loop_across_blocks():
    # Five atoms give 8**5 valuations per table at size 8, so the 16
    # searched tables of that size take 8 blocks of 2 tables; the first
    # witness is searched table 2 (table 3 of all 64, where world 0 sees
    # the two worlds of a cluster that does not see it), in the second
    # block.
    f = parse("r & ~#~(p & #~r) -> #~(~p & #~r) | (a & b & c & ~a)")
    alg, _ = _check_against_loop(f, 3)
    assert alg.sharp == (0, 0, 0, 0, 0, 0, 6, 7)
    assert algebra._searched(3).index(alg) * 8 ** 5 \
        >= algebra._BLOCK_ELEMENTS


def test_countermodel_matches_loop_across_blocks_on_two_worlds():
    # 2 worlds have 3 searched tables, so a size is 3 * 4**k
    # configurations, no power of two; with eight atoms each table is one
    # whole block.  Symmetry (B) fails first on searched table 1, where
    # world 1 does not see world 0, in the second block.
    f = parse("(p -> #~#~p) | (a & b & c & d & e & g & h & ~a)")
    alg, valuation = _check_against_loop(f, 2)
    assert alg.sharp == (0, 0, 2, 3)
    assert valuation["p"] == 1
    assert 3 * 4 ** 8 > algebra._BLOCK_ELEMENTS
    assert algebra._searched(2).index(alg) * 4 ** 8 \
        >= algebra._BLOCK_ELEMENTS


def test_countermodel_on_the_valuation_chunk_path():
    # [DERIVED] witness found by the earlier matrix search: six atoms give
    # 8**6 valuations per table at size 8, more than the cap, so each
    # table spans several blocks; table 0 holds everywhere, table 1 fails
    # in its fourth block, at valuation index 221232
    f = parse("#~(~f & (d -> e | g) | (~b | ~a))"
              " -> ##~(~f & (d -> e | g) | (~b | ~a))")
    alg, valuation = find_countermodel(f)
    assert alg.sharp == (0, 0, 0, 0, 0, 0, 2, 7)
    assert valuation == {"a": 6, "b": 6, "d": 0, "e": 0, "f": 6, "g": 0}
    assert evaluate(f, alg, valuation) != 7
    assert 8 ** 6 > algebra._BLOCK_ELEMENTS


def test_long_searches_leave_no_block_masks_cached():
    # a valid six-atom formula scans the 64 blocks of size 8 once each, in
    # order, so they are built uncached; a search of one block, as every
    # search of at most three atoms is, still hits the cache when repeated
    f = parse("(a & b & c & d & e & g) -> a")
    algebra._searched(3)  # the tables stay cached for good: build them first
    tracemalloc.start()
    try:
        assert find_countermodel(f) is None
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20
    g = parse("#(p & q & r) -> #p")
    assert find_countermodel(g) is None
    hits = algebra._block_masks.cache_info().hits
    assert find_countermodel(g) is None
    assert algebra._block_masks.cache_info().hits == hits + MAX_ATOMS


def test_index_bit_masks_match_their_definition():
    # the atom masks of an aligned block of valuations, inside one run of
    # a high bit or across whole periods of a low one
    for bit in range(6):
        for length in (1, 2, 4, 8, 16, 32, 64):
            for start in range(0, 256, length):
                expected = sum(1 << j for j in range(length)
                               if (start + j) >> bit & 1)
                assert algebra._index_bit(bit, start, length) == expected


def _isomorphic(r, s):
    """Whether some permutation of the worlds maps the edges of relation r
    (successor masks) onto those of s."""
    n = len(r)

    def edges(successors):
        return {(w, v) for w, v in itertools.product(range(n), repeat=2)
                if successors[w] >> v & 1}

    return any({(p[w], p[v]) for w, v in edges(r)} == edges(s)
               for p in itertools.permutations(range(n)))


def test_search_tries_the_first_table_of_each_isomorphism_class():
    for n, count in ((1, 1), (2, 3), (3, 16)):
        tables = list(enumerate_algebras(n))
        searched = algebra._searched(n)
        assert len(searched) == count
        positions = [tables.index(alg) for alg in searched]
        assert positions == sorted(positions)
        for position, alg in zip(positions, searched):
            assert not any(_isomorphic(earlier.successors, alg.successors)
                           for earlier in tables[:position])
        for alg in tables:
            assert sum(_isomorphic(alg.successors, first.successors)
                       for first in searched) == 1


def test_block_masks_match_their_definition():
    # digits and edges of whole sizes and of aligned blocks, which span
    # whole searched tables or lie inside one, configuration i = table *
    # 2**(n k) + valuation index; the search cuts a size into windows of
    # a power-of-two length, or takes it whole
    for n in (1, 2, 3):
        frames = [alg.successors for alg in algebra._searched(n)]
        for k in (0, 1, 2):
            total = len(frames) << n * k
            for length, i0 in itertools.product(
                    (total, total // 2, 4, 1), (0, 4, total // 2)):
                if not 0 < length <= total - i0 or i0 % length \
                        or length != total and length & length - 1:
                    continue
                digits, steps, full = algebra._block_masks(n, k, i0, length)

                def lane(mask, w):
                    return mask >> w * length & ((1 << length) - 1)

                def where(test):
                    return sum(1 << b for b in range(length) if test(i0 + b))

                assert full == (1 << n * length) - 1
                for j, w in itertools.product(range(k), range(n)):
                    assert lane(digits[j], w) == where(
                        lambda i: i >> n * (k - 1 - j) + w & 1)
                edges = {down // length: ~not_edge
                         for down, _, not_edge in steps}
                for d, w in itertools.product(range(1, n), range(n)):
                    assert lane(edges.get(d, 0), w) == where(
                        lambda i: frames[i >> n * k][w] >> (w + d) % n & 1)


def test_countermodel_is_deterministic():
    f = parse("#(p | q) -> (#p | #q)")
    first = find_countermodel(f)
    assert first is not None
    assert find_countermodel(f) == first
    alg, valuation = first
    assert alg.sharp == (0, 0, 0, 3)
    assert valuation == {"p": 1, "q": 2}


def test_countermodel_json_shape():
    alg, valuation = find_countermodel(parse("#p -> #q"))
    doc = countermodel_to_json(alg, valuation)
    assert doc == {"algebra": {"n_atoms": 1, "sharp": [0, 1]},
                   "valuation": {"p": 1, "q": 0}}


def test_is_valid_up_to():
    assert find_countermodel(parse("(#p & #q) -> #(p & q)"), 3) is None
    # the conjunction law is in fact an equivalence over these algebras
    assert find_countermodel(parse("#(p & q) <-> (#p & #q)"), 3) is None
    assert find_countermodel(parse("p -> #p"), 2) is not None


def test_plausible_elements():
    def plausible_elements(alg):
        return {a for a, inside in enumerate(alg.sharp) if a and inside == a}

    assert plausible_elements(PlausibleAlgebra(1, (1,))) == {1}
    # only top is a fixed point in the most selective n=2 algebra
    least = next(iter(enumerate_algebras(2)))
    assert plausible_elements(least) == {3}
    for alg in enumerate_algebras(2):
        assert 3 in plausible_elements(alg)
        assert 0 not in plausible_elements(alg)


@given(st.integers(0, 63))
def test_sharp_tables_are_interior_like(seed):
    """Every enumerated n=2 operator is deflationary, monotone and fixes
    top; this restates a1..a4 pointwise as a sanity net."""
    algebras = list(enumerate_algebras(2))
    sharp = algebras[seed % len(algebras)].sharp
    for a in range(4):
        assert sharp[a] & ~a & 3 == 0
        for b in range(4):
            if a & ~b == 0:
                assert sharp[a] & ~sharp[b] & 3 == 0
    assert sharp[3] == 3
