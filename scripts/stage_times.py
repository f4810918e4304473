#!/usr/bin/env python3
"""Per-stage seconds of the verification battery at one size, on the generic
field and at q0 = 3/2.

Usage: python scripts/stage_times.py --n 4 --r 6 [--repeat K]

The stages are those of `dualcheck.verify_stages`, in the order `verify`
runs them (build, maximality, Gram, norms, counting, quantum, Hecke,
commuting), each timed as the gap between two yields, followed by Specht:
`specht_matrices` for every shape.  With `--repeat K` the battery runs K
times per field and each stage prints its minimum over the K runs (the total
is the sum of those minima), since single runs on a shared host can drift by
up to 2x.  Every stage must also pass in every run; the script exits 1 if
one fails.
"""

import argparse
import sys
from fractions import Fraction
from time import perf_counter

from qtensor import dualcheck
from qtensor.coeff import ScalarField
from qtensor.combinatorics import partitions_in

FIELDS = (("generic", ScalarField.generic()), ("q0=3/2", ScalarField.at(Fraction(3, 2))))


def stage_times(n: int, r: int, field: ScalarField) -> tuple[dict[str, float], bool]:
    times: dict[str, float] = {}
    ok = True
    start = perf_counter()
    for stage, checks in dualcheck.verify_stages(n, r, field):
        times[stage] = perf_counter() - start
        ok &= all(c.ok for c in checks)
        start = perf_counter()
    for lam in partitions_in(n, r):
        dualcheck.specht_matrices(lam, n, r, field)
    times["Specht"] = perf_counter() - start
    return times, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
                                     allow_abbrev=False)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--r", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=1, help="runs per field; each stage prints its minimum")
    args = parser.parse_args()
    if args.n < 1 or args.r < 0:
        parser.error("need --n >= 1 and --r >= 0")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    results = {}
    for label, field in FIELDS:
        runs = [stage_times(args.n, args.r, field) for _ in range(args.repeat)]
        results[label] = ({stage: min(times[stage] for times, _ in runs) for stage in runs[0][0]},
                          all(ok for _, ok in runs))
    print(f"seconds per stage at n={args.n}, r={args.r}" + (f", minimum of {args.repeat} runs" if args.repeat > 1 else ""))
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
