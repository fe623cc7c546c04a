"""Exhaustive tableau closure sweep over small axiom instances.

Instantiates the four axiom schemas with every formula of depth at most 2
over the atoms p and q and proves each instance. Prints a summary and any
instance whose tableau stays open.
"""

import argparse
import time

from plausible.formula import render
from plausible.hilbert import instantiate
from plausible.sampling import depth2_candidates
from plausible.tableau import prove


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--verbose", action="store_true",
                        help="print every instance as it is proved")
    args = parser.parse_args()

    pool = depth2_candidates()
    start = time.perf_counter()
    total = 0
    open_instances = []
    for a in pool:
        singles = [instantiate("AX3", {"A": a}), instantiate("AX4", {"A": a})]
        pairs = [instantiate(schema, {"A": a, "B": b})
                 for b in pool for schema in ("AX1", "AX2")]
        for f in singles + pairs:
            total += 1
            verdict = prove([], f).verdict
            if args.verbose:
                print(f"{verdict:>6}  {render(f)}")
            if verdict != "closed":
                open_instances.append(f)
    elapsed = time.perf_counter() - start

    print(f"candidates: {len(pool)}")
    print(f"instances proved: {total} in {elapsed:.2f}s")
    print(f"open: {len(open_instances)}")
    for f in open_instances:
        print(f"  {render(f)}")


if __name__ == "__main__":
    main()
