"""Acceptance suite.

Each test prints one PASS/FAIL line for its criterion (run with -s to see
them interleaved; pytest shows the captured output on failure).
"""

import hashlib
import itertools
import json

from plausible.algebra import (PlausibleAlgebra, countermodel_to_json,
                               enumerate_algebras, find_countermodel)
from plausible.folp import (Forall, Name, PlausibleStructure, Plaus, Rel,
                            check_axioms, parse_fo, satisfies,
                            unary_structures)
from plausible.formula import (Atom, Iff, Implies, Nabla, erase_nabla,
                               is_classical_tautology, parse, render)
from plausible.hilbert import check_proof, instantiate
from plausible.pseudotopology import (PseudoTopology, enumerate_spaces,
                                      validate as validate_space)
from plausible.sampling import corpus, depth2_candidates
from plausible.tableau import is_valid, prove

from conftest import (CORPUS_SEED, CORPUS_SIZE, LIBRARY_PROOFS, evaluate,
                      validate_algebra)


def _report(number, name, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {mark}{suffix}")


# ---------------------------------------------------------------------------
# criterion 1: axiom closure over depth-2 instances

def test_criterion_1_axiom_closure():
    candidates = depth2_candidates()
    assert len(candidates) == 22
    failures = []
    total = 0
    for a in candidates:
        for schema in ("AX3", "AX4"):
            f = instantiate(schema, {"A": a})
            total += 1
            if prove([], f).verdict != "closed":
                failures.append(render(f))
        for b in candidates:
            for schema in ("AX1", "AX2"):
                f = instantiate(schema, {"A": a, "B": b})
                total += 1
                if prove([], f).verdict != "closed":
                    failures.append(render(f))
    ok = not failures
    _report(1, "axiom closure", ok, f"{total - len(failures)}/{total} closed")
    assert ok, failures[:5]


# ---------------------------------------------------------------------------
# criterion 2: worked tableaux

def test_criterion_2_worked_tableaux():
    checks = [is_valid(parse("~#(p & ~p)")),
              is_valid(parse("#(#p -> #p)"))]
    lifted = sum(is_valid(Nabla(check_proof(*proof).proved))
                 for proof in LIBRARY_PROOFS.values())
    checks.append(lifted == 20)
    ok = all(checks)
    _report(2, "worked tableaux", ok,
            f"validity transfer on {lifted}/20 library theorems")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: Hilbert and tableau agree on the library

def test_criterion_3_hilbert_tableau_agreement():
    bad = []
    for name, (lines, premises) in LIBRARY_PROOFS.items():
        result = check_proof(lines, premises)
        if not (result.ok and result.is_theorem):
            bad.append((name, "check_proof"))
        elif prove([], result.proved).verdict != "closed":
            bad.append((name, "tableau"))
    ok = not bad
    _report(3, "Hilbert/tableau agreement", ok,
            f"{20 - len(bad)}/20 proofs agree")
    assert ok, bad


# ---------------------------------------------------------------------------
# criteria 4-6: corpus cross-checks

def test_criterion_4_soundness_cross_check(cross_oracle_sweep):
    bad = [render(f) for f, verdict, cm in cross_oracle_sweep
           if verdict == "closed" and cm is not None]
    _report(4, "soundness cross-check", not bad,
            f"{len(cross_oracle_sweep)} formulas, {len(bad)} violations")
    assert not bad, bad[:5]


def test_criterion_5_refutation_cross_check(cross_oracle_sweep):
    bad = [render(f) for f, verdict, cm in cross_oracle_sweep
           if cm is not None and verdict != "open"]
    _report(5, "refutation cross-check", not bad,
            f"{len(cross_oracle_sweep)} formulas, {len(bad)} violations")
    assert not bad, bad[:5]


def test_criterion_6_erasure_necessity(cross_oracle_sweep):
    bad = [render(f) for f, verdict, _ in cross_oracle_sweep
           if verdict == "closed"
           and not is_classical_tautology(erase_nabla(f))]
    _report(6, "erasure necessity", not bad,
            f"{len(bad)} violations")
    assert not bad, bad[:5]


# ---------------------------------------------------------------------------
# criterion 7: algebra suite

def _brute_force_algebra_count(n):
    """Filter all a3-respecting tables (the unrestricted product is out of
    reach at n=3 and a3 is a pointwise condition, so nothing is skipped)."""
    size = 1 << n
    options = [[s for s in range(a + 1) if s & ~a == 0] for a in range(size)]
    return sum(bool(validate_algebra(n, table))
               for table in itertools.product(*options))


def test_criterion_7_algebra_suite():
    problems = []
    counts = {}
    p, q = Atom("p"), Atom("q")
    instances = [instantiate("AX1", {"A": p, "B": q}),
                 instantiate("AX2", {"A": p, "B": q}),
                 instantiate("AX3", {"A": p}),
                 instantiate("AX4", {"A": p})]
    for n in (1, 2, 3):
        algebras = list(enumerate_algebras(n))
        counts[n] = len(algebras)
        size = 1 << n
        for alg in algebras:
            sharp = alg.sharp
            if not validate_algebra(n, sharp):
                problems.append((n, sharp, "laws"))
            if sharp[0] != 0:
                problems.append((n, sharp, "sharp(0)"))
            for a in range(size):
                for b in range(size):
                    if a & ~b == 0 and sharp[a] & ~sharp[b]:
                        problems.append((n, sharp, "monotonicity"))
            for f in instances:
                for vp in range(size):
                    for vq in range(size):
                        if evaluate(f, alg, {"p": vp, "q": vq}) != size - 1:
                            problems.append((n, sharp, render(f)))
    if counts[1] != 1:
        problems.append(("count", 1, counts[1]))
    for n in (2, 3):
        expected = _brute_force_algebra_count(n)
        if counts[n] != expected:
            problems.append(("count", n, counts[n], expected))
    ok = not problems
    _report(7, "algebra suite", ok,
            f"counts {counts[1]}/{counts[2]}/{counts[3]}")
    assert ok, problems[:5]


# ---------------------------------------------------------------------------
# criterion 8: pseudo-topology suite

def _brute_force_space_count(size):
    full = (1 << size) - 1
    masks = list(range(1, full + 1))
    count = 0
    for r in range(len(masks) + 1):
        for combo in itertools.combinations(masks, r):
            if validate_space(PseudoTopology(size, frozenset(combo))):
                count += 1
    return count


def _interior(space):
    """The interior map of a space: #a is the union of the opens inside a."""
    table = []
    for a in range(1 << space.universe_size):
        inside = 0
        for o in space.opens:
            if o & ~a == 0:
                inside |= o
        table.append(inside)
    return tuple(table)


def _preorder(space):
    """successors[w]: the intersection of the opens containing w."""
    successors = []
    for w in range(space.universe_size):
        smallest = (1 << space.universe_size) - 1
        for o in space.opens:
            if o >> w & 1:
                smallest &= o
        successors.append(smallest)
    return successors


# [DERIVED] 4 and .2 hold in every space's interior algebra, but not in
# every plausible algebra: the first countermodels find_countermodel gives,
# each re-checked with evaluate
FOUR = parse("#p -> ##p")
DOT_TWO = parse("~#~#p -> #~#~p")
GAP_COUNTERMODELS = {FOUR: ((0, 0, 0, 0, 0, 0, 2, 7), 6),
                     DOT_TWO: ((0, 0, 0, 1, 4, 4, 4, 7), 3)}


def test_criterion_8_pseudotopology_suite():
    problems = []
    counts = {}
    for size in (1, 2, 3):
        counts[size] = sum(1 for _ in enumerate_spaces(size))
        if counts[size] != _brute_force_space_count(size):
            problems.append(("count", size))
    if counts[1] != 1 or counts[2] != 3:
        problems.append(("forced counts", counts[1], counts[2]))
    checked = 0
    for size in (1, 2, 3, 4):
        for space in enumerate_spaces(size):
            checked += 1
            if not all(a & b for a in space.opens for b in space.opens):
                problems.append(("disjoint pair", space))
            singles = [m for m in space.opens if bin(m).count("1") == 1]
            if len(singles) > 1:
                problems.append(("two singletons", space))
            # the interior map is a plausibility operator whose nonzero
            # fixed points are exactly the opens, the box operator of the
            # space's preorder
            interior = _interior(space)
            if not validate_algebra(size, interior):
                problems.append(("interior invalid", space))
            if {a for a, inside in enumerate(interior)
                    if a and inside == a} != space.opens:
                problems.append(("interior fixed points", space))
            frame = PlausibleAlgebra(size, _preorder(space))
            if interior != frame.sharp:
                problems.append(("interior is not the preorder's", space))
            for f in GAP_COUNTERMODELS:
                for p in range(1 << size):
                    if evaluate(f, frame, {"p": p}) != (1 << size) - 1:
                        problems.append((render(f), space, p))
    if checked != 165:
        problems.append(("spaces checked", checked))
    for f, (sharp, p) in GAP_COUNTERMODELS.items():
        found = find_countermodel(f)
        if found is None or (found[0].sharp, found[1]) != (sharp, {"p": p}) \
                or evaluate(f, *found) == 7:
            problems.append(("countermodel", render(f), found))
    ok = not problems
    _report(8, "pseudo-topology suite", ok,
            f"counts {counts[1]}/{counts[2]}/{counts[3]}, "
            f"{checked} spaces checked, interior maps valid and "
            f"preorder-generated, 4 and .2 hold in spaces but not in algebras")
    assert ok, problems[:5]


# ---------------------------------------------------------------------------
# criterion 9: first-order suite

def _extensionality(phi, psi):
    return Implies(Forall("x", Iff(phi, psi)),
                   Iff(Plaus("x", phi), Plaus("x", psi)))


def test_criterion_9_first_order_axioms():
    # The quantifier axioms of the logic of the plausible, on every
    # structure of domain <= 3: a1-a4 and a6 as check_axioms computes them,
    # and extensionality, forall x (phi <-> psi) -> (P x. phi <-> P x. psi).
    # Extensionality as the fifth axiom is recalled from Gracio's
    # axiomatisation (Logicas moduladas e raciocinio sob incerteza, 1999);
    # PAPER.md holds only the abstract, so the repository does not settle
    # its wording. It is checked on R(x)/S(x), and on R(x) against another
    # definition of the same set, where its antecedent always holds.
    #
    # check_axioms' a5 is the monotonicity schema
    # forall x (phi -> psi) -> (P x. phi -> P x. psi). It holds only where
    # the opens-family is closed upward, which a pseudo-topology need not
    # be, so it is not an axiom of this logic. Its failures are pinned
    # exactly: a5 fails iff R <= S, R is open and S is not, computed here
    # from bitmasks without folp.
    phi, psi = parse_fo("R(x)"), parse_fo("S(x)")
    instances = {"extensionality R/S": _extensionality(phi, psi),
                 "extensionality R/R|(R&S)": _extensionality(
                     phi, parse_fo("R(x) | (R(x) & S(x))"))}
    failures = {k: 0 for k in ("a1", "a2", "a3", "a4", "a6", *instances)}
    first = {}
    total = 0
    a5_failures = expected_failures = 0
    mismatch = None
    for M in unary_structures(3):
        total += 1
        report = check_axioms(M, phi, psi, "x")
        verdicts = {k: getattr(report, k) for k in ("a1", "a2", "a3", "a4",
                                                     "a6")}
        verdicts.update((k, satisfies(M, f)) for k, f in instances.items())
        for key, held in verdicts.items():
            if not held:
                failures[key] += 1
                first.setdefault(key, M.to_json())
        rm, sm = (sum(1 << i for (i,) in M.relations[n]) for n in "RS")
        opens = M.omega.opens
        expected = rm & ~sm == 0 and rm in opens and sm not in opens
        a5_failures += not report.a5
        expected_failures += expected
        if (not report.a5) != expected and mismatch is None:
            mismatch = M.to_json()
    bad = {k: v for k, v in failures.items() if v}
    ok = (total == 1076 and not bad and mismatch is None
          and expected_failures == 12)
    detail = (f"{total} structures; monotonicity fails on {a5_failures}, "
              f"expected {expected_failures} (R <= S, R open, S not open)")
    if bad:
        detail += "; " + ", ".join(f"{k} fails on {v}" for k, v in bad.items())
    _report("9a", "first-order axioms", ok, detail)
    assert total == 1076, total
    assert not bad, f"failures {bad}, first witnesses {first}"
    assert mismatch is None, (
        "monotonicity fails other than exactly where R <= S, R is open and "
        f"S is not; first structure where they differ: {mismatch}")
    assert expected_failures == 12, expected_failures


def test_criterion_9_degenerate_opens():
    problems = []
    for d in (1, 2, 3):
        full = (1 << d) - 1
        rel_masks = list(range(1 << d))
        trivial = PseudoTopology(d, frozenset([full]))
        for rm in rel_masks:
            rel = {"R": frozenset((i,) for i in range(d) if rm >> i & 1)}
            M = PlausibleStructure(d, rel, {}, {}, trivial)
            body = Rel("R", (Name("x"),))
            if satisfies(M, Plaus("x", body)) != satisfies(M, Forall("x", body)):
                problems.append(("universal", d, rm))
            for point in range(d):
                principal = frozenset(m for m in range(1 << d)
                                      if m >> point & 1)
                Mp = PlausibleStructure(d, rel, {}, {},
                                        PseudoTopology(d, principal))
                if satisfies(Mp, Plaus("x", body)) != bool(rm >> point & 1):
                    problems.append(("principal", d, rm, point))
    ok = not problems
    _report("9b", "degenerate opens-families", ok)
    assert ok, problems[:5]


# ---------------------------------------------------------------------------
# criterion 10: determinism

# [DERIVED] sha256 over rendered formula, verdict and countermodel for the
# whole shared corpus; frozen from two runs under different hash seeds
CORPUS_FINGERPRINT = \
    "e44fddbe91f6a800a704d624a787948665bb18ad015f426f97cd7cddb2a3bc1a"


def test_criterion_10_determinism():
    h = hashlib.sha256()
    for f in corpus(CORPUS_SEED, CORPUS_SIZE):
        result = prove([], f)
        cm = find_countermodel(f, max_atoms=3)
        doc = None if cm is None else countermodel_to_json(*cm)
        h.update(json.dumps([render(f), result.verdict, doc],
                            sort_keys=True).encode())
    fingerprint = h.hexdigest()

    f = parse("#(p | q) -> (#p | #q)")
    repeats = prove([], f).to_json() == prove([], f).to_json()
    enums = ([a.sharp for a in enumerate_algebras(2)]
             == [a.sharp for a in enumerate_algebras(2)]) and \
        ([s.to_json() for s in enumerate_spaces(3)]
         == [s.to_json() for s in enumerate_spaces(3)])

    ok = fingerprint == CORPUS_FINGERPRINT and repeats and enums
    _report(10, "determinism", ok, f"corpus sha256 {fingerprint[:12]}...")
    assert ok, fingerprint
