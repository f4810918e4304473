#!/usr/bin/env python3
"""Sweep the verification battery over a range of sizes and print a table.

Usage: python scripts/run_full_checks.py [--n-max 4] [--r-max 5] [--q0 3/2]

Exits nonzero if any check fails anywhere in the sweep.
"""

import argparse
import sys
import time

from qtensor.cli import _attach_negative_q0
from qtensor.coeff import ScalarField
from qtensor.dualcheck import decomposition_report, verify_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--r-max", type=int, default=5)
    parser.add_argument("--q0", type=str, default=None, help="rational specialization num[/den], e.g. 3/2")
    args = parser.parse_args(_attach_negative_q0(sys.argv[1:]))
    if args.n_max < 1 or args.r_max < 0:
        parser.error("the sweep is empty: need --n-max >= 1 and --r-max >= 0")

    try:
        field = ScalarField(args.q0)
    except ValueError as exc:
        parser.error(f"bad --q0 value {args.q0!r}: {exc}")
    label = f"q0={args.q0}" if args.q0 else "generic"
    print(f"verification sweep over the {label} field")
    print(f"{'n':>3} {'r':>3} {'walks':>6} {'dim id':>7} {'checks':>7} {'time':>8}")

    failed = False
    for n in range(1, args.n_max + 1):
        for r in range(0, args.r_max + 1):
            start = time.monotonic()
            report = verify_suite(n, r, field)
            decomp = decomposition_report(n, r, field)
            elapsed = time.monotonic() - start
            walks = sum(row.walks for row in decomp.rows)
            ok = report.ok and decomp.identity_ok
            failed = failed or not ok
            print(f"{n:>3} {r:>3} {walks:>6} {str(decomp.identity_ok):>7} "
                  f"{sum(c.ok for c in report.checks):>3}/{len(report.checks):<3} {elapsed:>7.2f}s")
            if not ok:
                for check in report.checks:
                    if not check.ok:
                        print(f"      FAILED: {check.name} {check.detail}")
    print("sweep failed" if failed else "sweep complete: all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
