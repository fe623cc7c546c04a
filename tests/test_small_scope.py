"""Every one-atom formula up to 7 nodes, run through the tableau and the
countermodel search (the small-scope check: all small inputs, not a
sample).

A gap is a formula the tableau leaves open and no algebra of at most 3
atoms refutes.  The gaps are pinned by name until the tableau's KT rule
decides them, and no formula may be closed but refuted.
"""

from plausible.algebra import find_countermodel
from plausible.formula import BINARY, UNARY, Atom, render
from plausible.tableau import prove

MAX_SIZE = 7


def _formulas_by_size(max_size):
    """Entry n lists every formula of exactly n nodes over the atom p,
    ordered by constructor (``~``, ``#``, then the binary connectives in
    ``BINARY`` order), then by the left operand's size, then children."""
    by_size = [[], [Atom("p")]]
    for n in range(2, max_size + 1):
        level = [ctor(g) for ctor in UNARY for g in by_size[n - 1]]
        level += [ctor(a, b) for ctor in BINARY for left in range(1, n - 1)
                  for a in by_size[left] for b in by_size[n - 1 - left]]
        by_size.append(level)
    return by_size


def test_counts_follow_the_recurrence():
    counts = [len(level) for level in _formulas_by_size(MAX_SIZE)]
    assert counts == [0, 1, 2, 8, 32, 144, 672, 3264]
    for n in range(2, MAX_SIZE + 1):
        assert counts[n] == 2 * counts[n - 1] + 4 * sum(
            counts[i] * counts[n - 1 - i] for i in range(1, n - 1))
    assert sum(counts) == 4123


def test_no_formula_is_closed_but_refuted_and_the_gaps_are_pinned():
    closed_but_refuted, gaps = [], []
    for level in _formulas_by_size(MAX_SIZE):
        for f in level:
            closed = prove([], f).verdict == "closed"
            refuted = find_countermodel(f, 3) is not None
            if closed and refuted:
                closed_but_refuted.append(render(f))
            elif not closed and not refuted:
                gaps.append(render(f))
    assert closed_but_refuted == []
    assert gaps == [
        "~#~(p -> #p)", "~#~(p <-> #p)", "~#~(#p <-> p)", "~#(p & ~#p)",
        "~#(~#p & p)", "~#(p <-> ~#p)", "~#(p <-> #~p)", "~#(~p <-> #p)",
        "~#(#p <-> ~p)", "~#(~#p <-> p)", "~#(#~p <-> p)"]
