"""Smoke runs of the sweep scripts in `scripts/` at their smallest sizes.

Each script runs as its own process against the same qtensor package the
tests import, and must exit 0 with its success line; `stage_times.py` must
also print one row per stage, and say when a row is a minimum over runs.
`run_full_checks.py` reads --q0 by the grammar of the library, so a malformed
value is a usage error.  Like the command line, every script parses its
flags in full and refuses sizes it cannot run (or a sweep over nothing) with
exit 2.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtensor
from qtensor.coeff import ScalarField
from qtensor.dualcheck import verify_stages

REPO = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = str(Path(qtensor.__file__).resolve().parent.parent)


def _run_script(script: str, args: list[str], timeout: float = 120) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(REPO / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("script,args,expected", [
    ("run_full_checks.py", ["--n-max", "2", "--r-max", "3"], "sweep complete: all checks passed"),
    ("specialization_sweep.py", ["--n", "2", "--r", "3"],
     "agreement between specialized pipeline and evaluated generic answers: True"),
    ("stage_times.py", ["--n", "2", "--r", "3"], "all stages passed"),
    ("stage_times.py", ["--n", "2", "--r", "3", "--repeat", "2"], "all stages passed"),
])
def test_script_smoke(script, args, expected):
    proc = _run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout.splitlines()
    if script == "stage_times.py":
        assert proc.stdout.splitlines()[0].endswith(", minimum of 2 runs") == ("--repeat" in args)
        rows = {line.split()[0] for line in proc.stdout.splitlines()[2:-1]}
        stages = [stage for stage, _ in verify_stages(2, 3, ScalarField.generic())]
        assert rows == {*stages, "Specht", "total"}


@pytest.mark.parametrize("q0,reason", [("1e99999999", "expected num[/den]"), ("1/0", "zero denominator")])
def test_run_full_checks_rejects_bad_q0(q0, reason):
    # a usage error, exit 2, before any work: no hang expanding the exponent, no traceback
    proc = _run_script("run_full_checks.py", ["--q0", q0], timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(f"error: bad --q0 value {q0!r}: {reason}")


def test_run_full_checks_takes_a_negative_q0():
    proc = _run_script("run_full_checks.py", ["--q0", "-2/5", "--n-max", "1", "--r-max", "2"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "verification sweep over the q0=-2/5 field"


def test_run_full_checks_takes_no_abbreviated_flag():
    # --q would otherwise be read as --q0, and --n as --n-max
    proc = _run_script("run_full_checks.py", ["--q", "3/2"], timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unrecognized arguments: --q 3/2" in proc.stderr


@pytest.mark.parametrize("script,args,message", [
    ("stage_times.py", ["--n", "0", "--r", "2"], "need --n >= 1 and --r >= 0"),
    ("specialization_sweep.py", ["--n", "0"], "need --n >= 1 and --r >= 0"),
    ("run_full_checks.py", ["--n-max", "0", "--r-max", "-1"], "the sweep is empty: need --n-max >= 1 and --r-max >= 0"),
    ("stage_times.py", ["--n", "2", "--r", "2", "--rep", "2"], "unrecognized arguments: --rep 2"),
])
def test_scripts_refuse_what_the_cli_refuses(script, args, message):
    # a usage error, exit 2, before any work: no traceback, and no sweep
    # over nothing reported as passed
    proc = _run_script(script, args, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(f"error: {message}")


def test_check_reference_lists_a_differing_job(monkeypatch, capsys):
    # two jobs of the reference, one with a corrupted digest: the script
    # lists that one and exits 1
    spec = importlib.util.spec_from_file_location("check_reference", REPO / "scripts" / "check_reference.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    reference = script.load_reference()
    good, bad = "walks --n 2 --r 2 --output json", "verify --n 0 --r 2"
    subset = {good: reference[good], bad: dict(reference[bad], sha256="0" * 64)}
    monkeypatch.setattr(script, "load_reference", lambda: subset)
    assert script.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:-1]] == [bad]
    assert out[-1] == "1 of 2 reference jobs match"
