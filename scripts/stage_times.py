#!/usr/bin/env python3
"""Per-stage seconds of the verification battery at one size, on the generic
field and at q0 = 3/2.

Usage: python scripts/stage_times.py --n 4 --r 6

Stages, in the order `verify` runs them (Specht last):
  build       maximal_basis: one walk vector per walk
  maximality  is_maximal on every walk vector
  Gram        gram_check: every pairing of two cleared walk vectors
  norms       norm_predict for every walk, compared with the Gram diagonal
  quantum     check_quantum_relations   (the three relation suites share one
  Hecke       check_hecke_relations      table of generator images, as
  commuting   check_commuting_actions    verify_suite does)
  Specht      specht_matrices for every shape
Every stage must also pass; the script exits 1 if one fails.
"""

import argparse
import sys
from fractions import Fraction
from time import perf_counter

from qtensor import dualcheck
from qtensor.coeff import ScalarField
from qtensor.combinatorics import partitions_in
from qtensor.psiphi import is_maximal

FIELDS = (("generic", ScalarField.generic()), ("q0=3/2", ScalarField.at(Fraction(3, 2))))


def stage_times(n: int, r: int, field: ScalarField) -> tuple[dict[str, float], bool]:
    times: dict[str, float] = {}
    ok = True

    def timed(name, fn, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        times[name] = perf_counter() - start
        return result

    records = timed("build", dualcheck.maximal_basis, n, r, field)
    ok &= timed("maximality", lambda: all(rec.vector.r == 0 or is_maximal(rec.vector) for rec in records))
    gram = timed("Gram", dualcheck.gram_check, records)
    ok &= gram.ok
    ok &= timed("norms", lambda: all(dualcheck.norm_predict(rec.walk, field) == norm
                                     for rec, norm in zip(records, gram.diagonal)))
    words = dualcheck._Words(field, n)  # shared, as in verify_suite
    ok &= all(c.ok for c in timed("quantum", dualcheck.check_quantum_relations, n, r, field, words=words))
    ok &= all(c.ok for c in timed("Hecke", dualcheck.check_hecke_relations, n, r, field, words=words))
    ok &= timed("commuting", dualcheck.check_commuting_actions, n, r, field, words=words).ok
    timed("Specht", lambda: [dualcheck.specht_matrices(lam, n, r, field) for lam in partitions_in(n, r)])
    return times, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--r", type=int, required=True)
    args = parser.parse_args()

    results = {label: stage_times(args.n, args.r, field) for label, field in FIELDS}
    print(f"seconds per stage at n={args.n}, r={args.r}")
    print(f"{'stage':<12}" + "".join(f"{label:>10}" for label, _ in FIELDS))
    stages = list(results[FIELDS[0][0]][0])
    for stage in stages + ["total"]:
        row = [sum(times.values()) if stage == "total" else times[stage] for times, _ in results.values()]
        print(f"{stage:<12}" + "".join(f"{t:>10.3f}" for t in row))
    ok = all(passed for _, passed in results.values())
    print("all stages passed" if ok else "FAILURES PRESENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
