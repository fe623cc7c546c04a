"""Exhaustive first-order axiom sweep at desk scale.

Enumerates every structure with domain size up to 3, every opens-family on
that domain and every pair of unary relations, then evaluates on the atomic
instance pair R(x), S(x) the quantifier axioms a1-a4 and a6, extensionality
``forall x (R(x) <-> S(x)) -> (P x. R(x) <-> P x. S(x))``, and a5, the
monotonicity schema ``forall x (R(x) -> S(x)) -> (P x. R(x) -> P x. S(x))``.
Monotonicity is not an axiom of the logic: it fails where R is open and
R <= S but S is not, since an opens-family need not be closed upward (12
structures at domain <= 3). This script lists those structures.

Run with ``PYTHONPATH=src python scripts/fo_axiom_sweep.py``.
"""

import argparse
import json

from plausible.folp import (check_axioms, parse_fo, satisfies,
                            unary_structures)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-domain", type=int, default=3)
    args = parser.parse_args()
    try:
        structures = unary_structures(args.max_domain)
    except ValueError as error:
        parser.error(str(error))

    phi, psi = parse_fo("R(x)"), parse_fo("S(x)")
    extensionality = parse_fo(
        "(forall x. R(x) <-> S(x)) -> ((P x. R(x)) <-> (P x. S(x)))")
    totals = {k: 0 for k in ("a1", "a2", "a3", "a4", "a6",
                             "extensionality", "a5")}
    count = 0
    witnesses = []
    for M in structures:
        count += 1
        report = check_axioms(M, phi, psi, "x")
        verdicts = {k: getattr(report, k) for k in totals
                    if k != "extensionality"}
        verdicts["extensionality"] = satisfies(M, extensionality)
        for key, held in verdicts.items():
            if not held:
                totals[key] += 1
                if key == "a5":
                    witnesses.append(M.to_json())

    print(f"structures checked: {count}")
    for key, bad in totals.items():
        label = "a5 (monotonicity schema, not an axiom)" if key == "a5" \
            else key
        print(f"{label}: {count - bad}/{count} hold")
    if witnesses:
        print("monotonicity schema fails (R open, R <= S, S not open):")
        for doc in witnesses:
            print(f"  {json.dumps(doc, sort_keys=True)}")


if __name__ == "__main__":
    main()
