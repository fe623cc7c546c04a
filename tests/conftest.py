import pytest
from hypothesis import strategies as st

from plausible.algebra import find_countermodel
from plausible.formula import (BINARY, And, Atom, Bottom, Iff, Implies,
                               Nabla, Not, Or, Top)
from plausible.hilbert import LIBRARY, parse_proof
from plausible.pseudotopology import Verdict
from plausible.sampling import corpus
from plausible.tableau import prove

CORPUS_SEED = 20250824
CORPUS_SIZE = 500

# the parsed proof lines and premises of every shipped library proof
LIBRARY_PROOFS = {name: parse_proof(text) for name, text in LIBRARY.items()}


def formula_strategy():
    """Random formulas over p, q, r of at most 12 leaves."""
    base = st.one_of(
        st.sampled_from([Atom("p"), Atom("q"), Atom("r")]),
        st.just(Bottom()),
        st.just(Top()),
    )
    return st.recursive(
        base,
        lambda children: st.one_of(
            children.map(Not),
            children.map(Nabla),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(children, children).map(lambda t: Implies(*t)),
            st.tuples(children, children).map(lambda t: Iff(*t)),
        ),
        max_leaves=12,
    )


@pytest.fixture(scope="session")
def cross_oracle_sweep():
    """(formula, tableau verdict, countermodel) for the shared random
    corpus; computed once per session."""
    formulas = corpus(CORPUS_SEED, CORPUS_SIZE)
    return [(f, prove([], f).verdict, find_countermodel(f, max_atoms=3))
            for f in formulas]


# ---------------------------------------------------------------------------
# reference oracles, independent of the countermodel search

def validate_algebra(n_atoms, sharp):
    """Check the defining laws of the plausibility operator on a table of
    the 2^n_atoms-element powerset algebra:

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


class UnboundAtomError(KeyError):
    pass


def evaluate(f, alg, valuation):
    """The set of worlds of the frame ``alg`` where f holds, bottom-up:
    ``#A`` holds at w when every successor of w lies in A, so a level
    costs time linear in the worlds, however large the table would be."""
    top = (1 << alg.n_atoms) - 1
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
        a = evaluate(f.child, alg, valuation)
        return sum(1 << w for w, s in enumerate(alg.successors)
                   if s & ~a == 0)
    if not isinstance(f, BINARY):
        raise AssertionError(f"unevaluated node {f!r}")
    left = evaluate(f.left, alg, valuation)
    right = evaluate(f.right, alg, valuation)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Implies):
        return (top ^ left) | right
    return ((top ^ left) | right) & ((top ^ right) | left)
