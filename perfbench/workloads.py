"""The three workloads: what each item sends to the program and how each
answer is checked.

Every workload has the same shape:

- ``items(seed)`` makes the inputs (through ``inputs``, never the program):
  a list the benchmark passes over again and again, or an endless stream
  when ``stream`` is set;
- ``run(item, call)`` is the timed part: it makes every call into the
  program through ``call(layer, fn, *args)``, so that a traced run can put a
  span around each one, and returns the raw answers;
- ``judge(item, raw)`` runs after the clock stops.  It checks the answers
  against the known answer or an independent oracle and returns an outcome
  record and an error message (None when every check passed);
- ``prologue(call)``, where a workload has one, runs once per pass outside
  any item and returns an error message or None.

The program modules are imported when a workload is built, so a run loads
only the modules its workload calls; ``modules`` lists them for the set-up
measurement.
"""

from __future__ import annotations

import inputs

PHI_TEXT, PSI_TEXT = "R(x)", "S(x)"


def count_nodes(node) -> int:
    """Nodes in a tableau tree, without recursion."""
    total, stack = 0, [node]
    while stack:
        n = stack.pop()
        total += 1
        stack.extend(n.children)
    return total


class Workload:
    name = ""
    modules: tuple[str, ...] = ()
    stream = False  # True: items() is endless and each item runs once
    prologue = None


class CorpusMixed(Workload):
    name = "corpus-mixed"
    modules = ("plausible.formula", "plausible.tableau", "plausible.algebra")
    stream = True

    def __init__(self):
        from plausible import algebra, formula, tableau
        self.f, self.tableau, self.algebra = formula, tableau, algebra

    def items(self, seed: int):
        return inputs.corpus_stream(seed)

    def run(self, text: str, call):
        f = call("formula.parse", self.f.parse, text)
        rendered = call("formula.render", self.f.render, f)
        result = call("tableau.prove", self.tableau.prove, [], f)
        countermodel = call("algebra.search", self.algebra.find_countermodel,
                            f, 3)
        erasure_taut = None
        if result.verdict == "closed":
            erasure_taut = call("formula.tautology", self._erasure_taut, f)
        return rendered, result, countermodel, erasure_taut

    def _erasure_taut(self, f) -> bool:
        return self.f.is_classical_tautology(self.f.erase_nabla(f))

    def judge(self, text: str, raw):
        rendered, result, countermodel, erasure_taut = raw
        closed = result.verdict == "closed"
        refuted = countermodel is not None
        outcome = {"verdict": result.verdict, "refuted": refuted,
                   "tree_nodes": count_nodes(result.tree),
                   "decided": closed != refuted,
                   "unconfirmed_open": not closed and not refuted}
        if rendered != text:
            return outcome, f"render gave {rendered!r}"
        if result.verdict not in ("closed", "open"):
            return outcome, f"verdict {result.verdict!r}"
        if closed and refuted:
            return outcome, "closed but the algebra refutes it"
        if closed and not erasure_taut:
            return outcome, "closed but the #-erasure is not a tautology"
        return outcome, None


class TheoremSweep(Workload):
    name = "theorem-sweep"
    modules = ("plausible.formula", "plausible.tableau", "plausible.algebra",
               "plausible.hilbert")

    def __init__(self):
        from plausible import algebra, formula, hilbert, tableau
        self.f, self.tableau = formula, tableau
        self.algebra, self.hilbert = algebra, hilbert

    def items(self, seed: int) -> list[tuple]:
        return inputs.theorem_items(seed)

    def run(self, item, call):
        schema, binding_texts, _ = item
        bindings = {var: call("formula.parse", self.f.parse, text)
                    for var, text in binding_texts}
        instance, lines, checked = call("hilbert.check", self._check_lifted,
                                        schema, bindings)
        goal = self.f.Nabla(instance)
        rendered = call("formula.render", self.f.render, goal)
        result = call("tableau.prove", self.tableau.prove, [], goal)
        countermodel = call("algebra.search", self.algebra.find_countermodel,
                            goal, 3)
        return goal, rendered, len(lines), checked, result, countermodel

    def _check_lifted(self, schema: str, bindings: dict):
        """Hilbert check of the one-line axiom proof lifted under #."""
        h = self.hilbert
        instance = h.instantiate(schema, bindings)
        lines = h.nabla_lift([h.ProofLine(1, instance,
                                          h.axiom(schema, **bindings))])
        return instance, lines, h.check_proof(lines)

    def judge(self, item, raw):
        _, _, expected_text = item
        goal, rendered, n_lines, checked, result, countermodel = raw
        accepted = checked.ok and checked.is_theorem \
            and checked.proved == goal
        closed = result.verdict == "closed"
        refuted = countermodel is not None
        outcome = {"verdict": result.verdict, "refuted": refuted,
                   "tree_nodes": count_nodes(result.tree),
                   "hilbert_lines": n_lines, "accepted": accepted,
                   "decided": accepted and closed and not refuted,
                   "unconfirmed_open": not closed and not refuted}
        if rendered != expected_text:
            return outcome, f"instance renders as {rendered!r}"
        if not accepted:
            return outcome, f"Hilbert check rejected it: {checked.reason}"
        if not closed:
            return outcome, f"tableau verdict {result.verdict!r}"
        if refuted:
            return outcome, "the algebra refutes a theorem"
        return outcome, None


class FoSweep(Workload):
    name = "fo-sweep"
    modules = ("plausible.folp", "plausible.pseudotopology")

    def __init__(self):
        from plausible import folp, pseudotopology
        self.folp, self.pt = folp, pseudotopology
        self.phi = folp.parse_fo(PHI_TEXT)
        self.psi = folp.parse_fo(PSI_TEXT)
        # relation tables by (domain, mask), shared by every structure
        self.tables = {(d, m): frozenset((i,) for i in range(d) if m >> i & 1)
                       for d in range(1, inputs.FO_MAX_DOMAIN + 1)
                       for m in range(1 << d)}
        self.families = {d: {frozenset(f) for f in inputs.opens_families(d)}
                         for d in range(1, inputs.FO_MAX_DOMAIN + 1)}

    def items(self, seed: int) -> list[tuple]:
        # one opens set per family, shared by its structures, so that the
        # item list stays small next to the program's own memory traffic
        opens = {}
        return [(d, opens.setdefault(family, frozenset(family)), rm, sm)
                for d, family, rm, sm in inputs.fo_structures(seed)]

    def run(self, item, call):
        structure = call("folp.structure", self._structure, item)
        return call("folp.check", self.folp.check_axioms, structure,
                    self.phi, self.psi, "x")

    def _structure(self, item):
        d, family, rm, sm = item
        return self.folp.PlausibleStructure(
            d, {"R": self.tables[d, rm], "S": self.tables[d, sm]}, {}, {},
            self.pt.PseudoTopology(d, family))

    def judge(self, item, report):
        _, family, rm, sm = item
        got = (report.a1, report.a2, report.a3, report.a4, report.a5,
               report.a6)
        expected = inputs.fo_expected(family, rm, sm)
        outcome = {"a5_fail": not report.a5, "decided": got == expected,
                   "unconfirmed_open": False}
        if got != expected:
            return outcome, f"axioms {got}, oracle {expected}"
        return outcome, None

    def prologue(self, call):
        """Enumerate every opens-family with the program and compare with
        the brute force in ``inputs``."""
        spaces = call("pseudotopology.enumerate", self._enumerate)
        for d, found in spaces.items():
            if len(found) != len(self.families[d]) \
                    or set(found) != self.families[d]:
                return f"enumerate_spaces({d}) disagrees with brute force"
        return None

    def _enumerate(self):
        return {d: [s.opens for s in self.pt.enumerate_spaces(d)]
                for d in range(1, inputs.FO_MAX_DOMAIN + 1)}


WORKLOADS = {w.name: w for w in (CorpusMixed, TheoremSweep, FoSweep)}
