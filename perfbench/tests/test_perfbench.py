"""Tests of the benchmark's own generator, oracles and answer checks, at
small sizes.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from plausible.folp import (PlausibleStructure, check_axioms,  # noqa: E402
                            parse_fo)
from plausible.formula import Nabla, parse, render  # noqa: E402
from plausible.hilbert import instantiate  # noqa: E402
from plausible.pseudotopology import (PseudoTopology,  # noqa: E402
                                      enumerate_spaces)
from plausible.sampling import corpus  # noqa: E402


def corpus_texts(seed, count):
    return list(itertools.islice(inputs.corpus_stream(seed), count))


def test_generator_reproduces_the_roadmap_corpus():
    texts = corpus_texts(7, 3000)
    assert len(texts) == 3000
    assert [parse(t) for t in texts] == corpus(7, 3000, max_size=16)


def test_generated_text_is_the_canonical_rendering():
    for seed in (0, 1):
        for text in corpus_texts(seed, 300):
            assert render(parse(text)) == text


def test_seed_determines_the_inputs():
    assert corpus_texts(3, 50) == corpus_texts(3, 50)
    assert corpus_texts(3, 50) != corpus_texts(4, 50)
    assert inputs.theorem_items(3, 20) == inputs.theorem_items(3, 20)
    assert inputs.theorem_items(3, 20) != inputs.theorem_items(4, 20)
    one, two = inputs.fo_structures(1), inputs.fo_structures(2)
    assert one != two and sorted(one) == sorted(two)


def test_theorem_instances():
    assert len(inputs.depth2_theorems()) == 1012
    items = inputs.theorem_items(5, count=50)
    assert len(items) == 1062
    for schema, bindings, text in items:
        bound = {var: parse(t) for var, t in bindings}
        assert render(Nabla(instantiate(schema, bound))) == text


def test_opens_families_match_the_enumeration():
    counts = []
    for d in range(1, inputs.FO_MAX_DOMAIN + 1):
        families = inputs.opens_families(d)
        counts.append(len(families))
        assert {frozenset(f) for f in families} == \
            {s.opens for s in enumerate_spaces(d)}
    assert counts == [1, 3, 16, 145]
    assert len(inputs.fo_structures(0)) == 38196


def test_fo_oracle_at_domain_3():
    small = [s for s in inputs.fo_structures(0) if s[0] <= 3]
    assert len(small) == 1076
    phi, psi = parse_fo("R(x)"), parse_fo("S(x)")
    a5_failures = 0
    for d, family, rm, sm in small:
        expected = inputs.fo_expected(family, rm, sm)
        a5_failures += not expected[4]
        rel = {name: frozenset((i,) for i in range(d) if mask >> i & 1)
               for name, mask in (("R", rm), ("S", sm))}
        report = check_axioms(
            PlausibleStructure(d, rel, {}, {},
                               PseudoTopology(d, frozenset(family))),
            phi, psi, "x")
        assert (report.a1, report.a2, report.a3, report.a4, report.a5,
                report.a6) == expected
    assert a5_failures == 12


def _first_answer(workload, item):
    return workload.run(item, run.untraced)


def test_corpus_checks_catch_wrong_answers():
    w = workloads.CorpusMixed()
    text = "#p -> p"
    rendered, result, countermodel, taut = _first_answer(w, text)
    assert w.judge(text, (rendered, result, countermodel, taut))[1] is None
    assert w.judge(text, ("p", result, countermodel, taut))[1]
    assert w.judge(text, (rendered, result, object(), taut))[1]
    assert w.judge(text, (rendered, result, countermodel, False))[1]


def test_theorem_checks_catch_wrong_answers():
    w = workloads.TheoremSweep()
    item = inputs.depth2_theorems()[0]
    raw = _first_answer(w, item)
    assert w.judge(item, raw)[1] is None
    assert w.judge(item, raw[:5] + (object(),))[1]
    open_result = workloads.CorpusMixed().run("p", run.untraced)[1]
    assert w.judge(item, raw[:4] + (open_result, raw[5]))[1]
    assert w.judge(item[:2] + ("#p",), raw)[1]


def test_fo_checks_catch_wrong_answers():
    w = workloads.FoSweep()
    failing = next(s for s in w.items(0) if not inputs.fo_expected(*s[1:])[4])
    report = _first_answer(w, failing)
    assert w.judge(failing, report)[1] is None
    holding = next(s for s in w.items(0) if inputs.fo_expected(*s[1:])[4])
    assert w.judge(holding, report)[1]
    assert w.prologue(run.untraced) is None


def test_runs_yield_every_listed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.WORKLOADS)
    for cls in workloads.WORKLOADS.values():
        w = cls()
        plain = run.measure(w, 1, 0.05, traced=False)
        assert plain.failed == 0 and plain.judged
        e2e = run.end_to_end(plain, setup_s=0.1)
        assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
        traced = run.measure(w, 1, 0.05, traced=True)
        assert traced.failed == 0 and traced.best_traced
        layers, _ = run.per_layer(traced)
        assert {m["name"] for m in spec["per_layer"]} == set(layers)

