"""Benchmark of the plausible package: one caller, one process, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-mixed --seed 7 --seconds 40 --trace 0

The caller is a closed loop: it sends the next item only when the previous
answer is back, for ``--seconds`` seconds, and checks every answer.  A
workload's items are a list the loop passes over again and again (an
item's latency is then the fastest of its passes) or an endless stream
(each item runs once).

Every timing of an item or a layer is scaled to the machine's current
speed, gauged by a fixed reference loop run between items (see
``reference.py``); the report on standard error gives the scale factors,
so raw wall times can be recovered.  ``setup_s`` is the median raw wall
time of fresh interpreters started at even intervals through the run.  The
run keeps to one CPU, and so do the interpreters it starts.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` runs every item twice, once with spans around each call into
the program and once without, in alternating order, and prints the
per-layer metrics: self times from each item's fastest traced run, and the
tracing overhead against the untraced runs of the same items.  The spans
go to ``.bench_out/`` and a per-layer table to standard error.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when one failed, 2 on bad usage or a missing
package source.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 10
SHOWN = 5


def untraced(name, fn, *args):
    return fn(*args)


class Tracer:
    """Collects one span per call into the program during one item."""

    def __init__(self):
        self.spans: list[tuple[str, int, int]] = []

    def __call__(self, name, fn, *args):
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter_ns()))


class Measurement:
    """Scaled timings and outcomes of one run, by item index.

    Untraced runs keep one number per item, so that the benchmark's own
    memory stays small next to the program's in ``peak_rss_mb``."""

    def __init__(self):
        self.best = array("d")  # fastest untraced latency, ns; inf: none
        self.judged = 0          # items judged on their first untraced run
        self.decided = 0
        self.undecided: list = []
        # traced runs only: (latency, [(layer, duration)]) of the fastest
        # traced run, and the outcome record
        self.best_traced: dict[int, tuple[float, list]] = {}
        self.outcomes: dict[int, dict] = {}
        self.prologue_ns: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.budget_items: set[int] = set()
        self.passes = 0
        self.scales: list[float] = []
        self.dump: list[tuple] = []      # every traced span, raw, for the file
        # timings of the current window, waiting for its closing reference
        self.pending: list[tuple] = []
        self.window_start = time.perf_counter_ns()
        self.last_reference = reference.time_ns()

    def fail(self, where: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < SHOWN:
            self.errors.append(f"{where}: {message}")

    def close_window(self, force: bool = False) -> bool:
        """Once a window is long enough, time the reference loop and file
        the window's timings, scaled by the mean of the references that
        bound it."""
        now = time.perf_counter_ns()
        if not force and now - self.window_start < reference.WINDOW_NS:
            return False
        ref = reference.time_ns()
        scale = reference.NOMINAL_NS / ((self.last_reference + ref) / 2)
        self.scales.append(scale)
        self.last_reference = ref
        self.window_start = time.perf_counter_ns()
        for index, elapsed, spans in self.pending:
            if index is None:
                self.prologue_ns.append(elapsed * scale)
            elif spans is None:
                while len(self.best) <= index:
                    self.best.append(math.inf)
                self.best[index] = min(self.best[index], elapsed * scale)
            else:
                best = self.best_traced.get(index)
                if best is None or elapsed * scale < best[0]:
                    self.best_traced[index] = (
                        elapsed * scale,
                        [(name, (e - s) * scale) for name, s, e in spans])
        self.pending.clear()
        return True

    def restart_window(self) -> None:
        self.last_reference = reference.time_ns()
        self.window_start = time.perf_counter_ns()


def evaluate(workload, index: int, item, traced: bool, m: Measurement):
    call = Tracer() if traced else untraced
    m.attempted += 1
    start = time.perf_counter_ns()
    try:
        raw = workload.run(item, call)
    except Exception as exc:  # any failure of the program is a failed item
        if type(exc).__name__ == "BudgetExceeded":
            m.budget_items.add(index)
        m.fail(f"item {index}", f"{type(exc).__name__}: {exc}")
        return
    elapsed = time.perf_counter_ns() - start
    outcome, error = workload.judge(item, raw)
    if error is not None:
        m.fail(f"item {index}", error)
    if not traced and m.passes == 0:
        m.judged += 1
        m.decided += outcome["decided"]
        if not outcome["decided"] and len(m.undecided) < SHOWN:
            m.undecided.append(item)
    spans = None
    if traced:
        m.outcomes[index] = outcome
        spans = call.spans
        parent = len(m.dump)
        m.dump.append((parent, None, index, "item", start, start + elapsed))
        m.dump.extend((parent + k + 1, parent, index, name, s, e)
                      for k, (name, s, e) in enumerate(spans))
    m.pending.append((index, elapsed, spans))


def run_prologue(workload, traced: bool, m: Measurement) -> None:
    call = Tracer() if traced else untraced
    m.attempted += 1
    error = workload.prologue(call)
    if error is not None:
        m.fail("prologue", error)
    if traced:
        name, s, e = call.spans[0]
        m.pending.append((None, e - s, None))
        m.dump.append((len(m.dump), None, None, name, s, e))


def measure(workload, seed: int, seconds: float, traced: bool,
            setup: Setup | None = None) -> Measurement:
    """Run the closed loop for ``seconds``.  With ``setup``, its fresh
    interpreters start at even intervals between windows, so that their
    median spans the run's changes of machine speed."""
    items = workload.items(seed)
    m = Measurement()
    start = time.perf_counter()
    deadline = start + seconds
    next_setup = start
    while True:
        if workload.prologue is not None:
            run_prologue(workload, traced, m)
        for index, item in enumerate(items):
            if not traced:
                evaluate(workload, index, item, False, m)
            else:
                first = (m.passes + index) % 2 == 0
                evaluate(workload, index, item, not first, m)
                evaluate(workload, index, item, first, m)
            now = time.perf_counter()
            if now >= deadline:
                m.close_window(force=True)
                if setup is not None:
                    setup.top_up()
                return m
            if m.close_window() and setup is not None and now >= next_setup \
                    and len(setup.times) < SETUP_REPEATS:
                setup.sample()
                m.restart_window()
                next_setup += seconds / SETUP_REPEATS
        m.passes += 1


class Setup:
    """Wall times of a fresh interpreter importing the modules a workload
    calls.  They are not scaled: starting a process slows down differently
    from the reference loop."""

    def __init__(self, modules: tuple[str, ...]):
        self.cmd = [sys.executable, "-c", "import " + ", ".join(modules)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self._spawn()  # warm-up: writes the bytecode caches

    def _spawn(self) -> None:
        # No timeout: with one, the wait polls with sleeps of up to 50 ms,
        # which would quantise the timing.
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)

    def sample(self) -> None:
        start = time.perf_counter()
        self._spawn()
        self.times.append(time.perf_counter() - start)

    def top_up(self) -> None:
        while len(self.times) < SETUP_REPEATS:
            self.sample()

    def median_s(self) -> float:
        return statistics.median(self.times)


def p50_p99(values: list) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=100)[98]


def latencies_ms(m: Measurement) -> list[float]:
    """Each untraced item's latency: the fastest of its passes."""
    return [ns / 1e6 for ns in m.best if ns != math.inf]


def end_to_end(m: Measurement, setup_s: float) -> dict:
    latencies = latencies_ms(m)
    p50, p99 = p50_p99(latencies)
    return {
        "setup_s": setup_s,
        "items_per_s": len(latencies) / (sum(latencies) / 1e3),
        "item_p50_ms": p50,
        "item_p99_ms": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "decided_share": m.decided / m.judged,
    }


def per_layer(m: Measurement) -> tuple[dict, dict]:
    """Per-layer metrics and the self-time table, from each item's fastest
    traced run."""
    layer_ns: dict[str, float] = defaultdict(float)
    by_verdict: dict[str, float] = defaultdict(float)
    by_refuted: dict[bool, float] = defaultdict(float)
    prove_ms = []
    item_self_ns = 0.0
    for i, (latency, spans) in m.best_traced.items():
        outcome = m.outcomes[i]
        for name, ns in spans:
            layer_ns[name] += ns
            if name == "tableau.prove":
                by_verdict[outcome["verdict"]] += ns
                prove_ms.append(ns / 1e6)
            elif name == "algebra.search":
                by_refuted[outcome["refuted"]] += ns
        item_self_ns += latency - sum(ns for _, ns in spans)
    if m.prologue_ns:
        layer_ns["pseudotopology.enumerate"] = min(m.prologue_ns)
    table = dict(sorted(layer_ns.items()))
    table["(benchmark code in items)"] = item_self_ns
    outcomes = [m.outcomes[i] for i in m.best_traced]

    def count(key, value=True):
        return sum(o.get(key) == value for o in outcomes)

    def total(key):
        return sum(o.get(key, 0) for o in outcomes)

    refuted_n = count("refuted", True)
    exhausted_n = count("refuted", False)
    prove_p50, prove_p99 = p50_p99(prove_ms)
    both = [i for i in m.best_traced
            if i < len(m.best) and m.best[i] != math.inf]
    untraced_ns = sum(m.best[i] for i in both)
    traced_ns = sum(m.best_traced[i][0] for i in both)
    metrics = {
        "formula.parse_s": layer_ns["formula.parse"] / 1e9,
        "formula.render_s": layer_ns["formula.render"] / 1e9,
        "formula.tautology_s": layer_ns["formula.tautology"] / 1e9,
        "tableau.prove_s": layer_ns["tableau.prove"] / 1e9,
        "tableau.open_s": by_verdict["open"] / 1e9,
        "tableau.closed_s": by_verdict["closed"] / 1e9,
        "tableau.open_n": count("verdict", "open"),
        "tableau.closed_n": count("verdict", "closed"),
        "tableau.budget_n": len(m.budget_items),
        "tableau.prove_p50_ms": prove_p50,
        "tableau.prove_p99_ms": prove_p99,
        "tableau.tree_nodes": total("tree_nodes"),
        "algebra.search_s": layer_ns["algebra.search"] / 1e9,
        "algebra.refuted_s": by_refuted[True] / 1e9,
        "algebra.exhausted_s": by_refuted[False] / 1e9,
        "algebra.refuted_n": refuted_n,
        "algebra.exhausted_n": exhausted_n,
        "algebra.refuted_share": refuted_n / (refuted_n + exhausted_n)
        if refuted_n + exhausted_n else 0.0,
        "hilbert.check_s": layer_ns["hilbert.check"] / 1e9,
        "hilbert.lines": total("hilbert_lines"),
        "hilbert.accepted_n": count("accepted", True),
        "folp.structure_s": layer_ns["folp.structure"] / 1e9,
        "folp.check_s": layer_ns["folp.check"] / 1e9,
        "folp.structures_n": sum("a5_fail" in o for o in outcomes),
        "folp.a5_fail_n": count("a5_fail", True),
        "pseudotopology.enumerate_s":
            layer_ns["pseudotopology.enumerate"] / 1e9,
        "oracle.unconfirmed_open_n": count("unconfirmed_open", True),
        "trace.overhead_share": traced_ns / untraced_ns - 1
        if untraced_ns else 0.0,
    }
    return metrics, table


def machine() -> str:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {numpy}, {platform.machine()}")


def write_spans(workload: str, seed: int, m: Measurement) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as out:
        out.write(json.dumps({"workload": workload, "seed": seed,
                              "clock": "perf_counter_ns, unscaled",
                              "fields": ["id", "parent", "item", "name",
                                         "start", "end"]}) + "\n")
        for span in m.dump:
            out.write(json.dumps(span) + "\n")
    return path


def report(workload, seed: int, seconds: float, m: Measurement,
           table: dict | None, overhead: float | None) -> None:
    def say(text):
        print(text, file=sys.stderr)

    shape = "stream, each item once" if workload.stream else \
        f"{m.passes} full passes"
    say(f"workload {workload.name}, seed {seed}: {m.judged} items "
        f"({shape}) in {seconds} s, closed loop, 1 caller; {machine()}")
    say(f"attempted {m.attempted}, failed {m.failed}, error_rate "
        f"{m.failed / m.attempted:.6f}")
    say(f"scale to nominal speed: median {statistics.median(m.scales):.3f}, "
        f"range {min(m.scales):.3f}..{max(m.scales):.3f} over "
        f"{len(m.scales)} windows (raw time = scaled time / scale)")
    if m.judged > m.decided:
        say(f"undecided {m.judged - m.decided}: "
            + "; ".join(str(item) for item in m.undecided))
    for line in m.errors:
        say(f"FAILED {line}")
    latencies = sorted(latencies_ms(m))
    if len(latencies) > 1:
        q = statistics.quantiles(latencies, n=100)
        say(f"untraced item latency over {len(latencies)} items: p50 "
            f"{statistics.median(latencies):.4f} p90 {q[89]:.4f} p99 "
            f"{q[98]:.4f} max {latencies[-1]:.4f} ms")
    if table is not None:
        wall = sum(table.values())
        say(f"traced self time, fastest traced run per item "
            f"({wall / 1e9:.3f} s in all; tracing overhead {overhead:+.2%}):")
        for name, ns in table.items():
            share = ns / wall if wall else 0.0
            say(f"  {name:32s} {ns / 1e9:9.4f} s  {share:7.2%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "plausible" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'plausible'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(SRC))
    # One CPU for the whole run, and for the interpreters it starts.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload]()
    setup = None if args.trace else Setup(workload.modules)
    m = measure(workload, args.seed, args.seconds, traced=bool(args.trace),
                setup=setup)

    if args.trace:
        values, table = per_layer(m)
        path = write_spans(workload.name, args.seed, m)
        report(workload, args.seed, args.seconds, m, table,
               values["trace.overhead_share"])
        print(f"spans: {path}", file=sys.stderr)
    else:
        values = end_to_end(m, setup.median_s())
        report(workload, args.seed, args.seconds, m, None, None)
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in wanted}
    correct = m.failed == 0
    print(json.dumps({"correct": correct, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
