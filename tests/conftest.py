import pytest

from plausible.algebra import find_countermodel
from plausible.hilbert import LIBRARY, parse_proof
from plausible.sampling import corpus
from plausible.tableau import prove

CORPUS_SEED = 20250824
CORPUS_SIZE = 500

# the parsed proof lines and premises of every shipped library proof
LIBRARY_PROOFS = {name: parse_proof(text) for name, text in LIBRARY.items()}


@pytest.fixture(scope="session")
def cross_oracle_sweep():
    """(formula, tableau verdict, countermodel) for the shared random
    corpus; computed once per session."""
    formulas = corpus(CORPUS_SEED, CORPUS_SIZE)
    return [(f, prove([], f).verdict, find_countermodel(f, max_atoms=3))
            for f in formulas]
