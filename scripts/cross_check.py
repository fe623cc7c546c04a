"""Cross-oracle sweep: tableau prover against the finite algebra oracle.

Generates a seeded random corpus, runs both decision procedures on every
formula and reports agreement. Any line printed under "violations" would
indicate a soundness or refutation bug.
"""

import argparse
import time

from plausible.algebra import find_countermodel
from plausible.formula import erase_nabla, is_classical_tautology, render
from plausible.sampling import corpus
from plausible.tableau import prove


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20250824)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--max-size", type=int, default=12)
    args = parser.parse_args()

    start = time.perf_counter()
    try:
        formulas = corpus(args.seed, args.count, max_size=args.max_size)
    except ValueError as error:
        parser.error(str(error))
    closed = 0
    refuted = 0
    violations = []
    for f in formulas:
        verdict = prove([], f).verdict
        countermodel = find_countermodel(f, max_atoms=3)
        if verdict == "closed":
            closed += 1
            if countermodel is not None:
                violations.append(("proved but refuted", f))
            if not is_classical_tautology(erase_nabla(f)):
                violations.append(("proved but erasure not tautological", f))
        if countermodel is not None:
            refuted += 1
            if verdict != "open":
                violations.append(("refuted but not open", f))
    elapsed = time.perf_counter() - start

    print(f"corpus: {args.count} formulas, seed {args.seed}")
    print(f"closed: {closed}, refuted: {refuted}, "
          f"neither: {args.count - closed - refuted}")
    print(f"elapsed: {elapsed:.2f}s")
    print(f"violations: {len(violations)}")
    for kind, f in violations:
        print(f"  {kind}: {render(f)}")


if __name__ == "__main__":
    main()
