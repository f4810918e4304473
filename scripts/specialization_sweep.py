#!/usr/bin/env python3
"""Compare walk-vector norms across the generic field and several rational
specializations, confirming that evaluating the generic answer agrees with
running the whole pipeline over the rational field.

Usage: python scripts/specialization_sweep.py [--n 3] [--r 4]
"""

import argparse
import sys
from fractions import Fraction

from qtensor.coeff import ScalarField
from qtensor.dualcheck import maximal_basis, norm_predict
from qtensor.tensorspace import bilinear

POINTS = (Fraction(2), Fraction(3, 2), Fraction(-5), Fraction(7, 3))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--r", type=int, default=4)
    args = parser.parse_args()
    if args.n < 1 or args.r < 0:
        parser.error("need --n >= 1 and --r >= 0")

    generic = ScalarField.generic()
    records = maximal_basis(args.n, args.r, generic)
    specialized = {p: maximal_basis(args.n, args.r, ScalarField.at(p)) for p in POINTS}
    print(f"{len(records)} walks at n={args.n}, r={args.r}")
    print(f"{'walk':<14} {'generic norm':<40}" + "".join(f" q0={p!s:<10}" for p in POINTS))

    ok = True
    for k, rec in enumerate(records):
        norm = bilinear(rec.vector, rec.vector)
        row = f"{str(rec.walk):<14} {str(norm):<40}"
        for p in POINTS:
            field = ScalarField.at(p)
            direct = bilinear(specialized[p][k].vector, specialized[p][k].vector)
            evaluated = norm.evaluate(p)
            agree = direct == evaluated and norm_predict(rec.walk, field) == direct
            ok = ok and agree
            row += f" {str(evaluated):<13}"
        print(row)
    print("agreement between specialized pipeline and evaluated generic answers:", ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
