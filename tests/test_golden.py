"""Byte-for-byte comparison of CLI JSON output against captured golden files.

Each file in `tests/golden/` is the stdout of ``qtensor <args> --output json``
captured before the integer-only rewrite of the coefficient layer (the
`walks` files: before `Walk` and `enumerate_walks` were rewritten without
dataclasses and recursion; the `verify` files: before the battery was split
into `dualcheck.verify_stages`; the `vectors` and `specht` files at q0 = 2
and q0 = -2/5: before `phi` moved onto cleared integer numerators; all
`specht` files: before `specht_matrices` read its rows off the walks in
Young's seminormal form instead of projecting each image; the degree-5
`vectors` and `specht` files at q0 = -2/5: before walk vectors stayed
cleared from build to render; the degree-5 `norms` file: before the
pairing read walk vectors in the form they are stored in).  Any
change to a coefficient's canonical form, to the walk order or to the
rendering shows up here as a byte difference.  The extra points exercise
the integer q-power multipliers where 3/2 does not: q0 = 2 has denominator
1, and -2/5 is negative with |q0| < 1; at -2/5 and odd degree the numerator
ring's den (ab)^r is negative as well.
"""

from pathlib import Path

import pytest

from qtensor import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SIZES = {
    "vectors": "--n 3 --r 4",
    "norms": "--n 3 --r 4",
    "decompose": "--n 3 --r 4",
    "specht": "--n 3 --r 4",
    "psi": "--n 3 --r 4 --shape 3,1",
    "invariants": "--n 3 --r 4",
    "walks": "--n 3 --r 4",
    "verify": "--n 3 --r 4",
}
CASES = [f"{cmd} {size}" for cmd, size in SIZES.items()] + ["invariants --n 3 --r 3"]
FIELDS = {"generic": "", "q0_3_2": " --q0 3/2"}
EXTRA_POINTS = {"q0_2": " --q0=2", "q0_m2_5": " --q0=-2/5"}
EXTRA_CASES = [f"{cmd} {SIZES[cmd]}" for cmd in ("vectors", "specht")]
ODD_DEGREE_CASES = [f"{cmd} --n 3 --r 5" for cmd in ("vectors", "specht", "norms")]


def golden_path(case: str, field: str) -> Path:
    stem = case.replace(" --", "_").replace(" ", "").replace(",", "-")
    return GOLDEN_DIR / f"{stem}_{field}.json"


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("case", CASES)
def test_cli_json_matches_golden(case, field, capsys):
    argv = (case + FIELDS[field]).split() + ["--output", "json"]
    assert cli.run_cli(argv) == 0
    assert capsys.readouterr().out == golden_path(case, field).read_text(encoding="utf-8")


@pytest.mark.parametrize("field", sorted(EXTRA_POINTS))
@pytest.mark.parametrize("case", EXTRA_CASES)
def test_cli_json_matches_golden_at_extra_points(case, field, capsys):
    argv = (case + EXTRA_POINTS[field]).split() + ["--output", "json"]
    assert cli.run_cli(argv) == 0
    assert capsys.readouterr().out == golden_path(case, field).read_text(encoding="utf-8")


@pytest.mark.parametrize("case", ODD_DEGREE_CASES)
def test_cli_json_matches_golden_at_negative_q0_and_odd_degree(case, capsys):
    argv = (case + EXTRA_POINTS["q0_m2_5"]).split() + ["--output", "json"]
    assert cli.run_cli(argv) == 0
    assert capsys.readouterr().out == golden_path(case, "q0_m2_5").read_text(encoding="utf-8")
