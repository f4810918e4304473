"""Smoke runs of the scripts in `scripts/` at their smallest sizes.

`stage_times.py` runs as its own process against the same qtensor package the
tests import, and must exit 0 with its success line, print one row per
stage, and say when a row is a minimum over runs.  Like the command line, it
parses its flags in full and refuses sizes it cannot run with exit 2.
`check_reference.py` is loaded in-process and must list a job whose digest
differs and a job that no workload defines.
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
    ("stage_times.py", ["--n", "2", "--r", "3"], "all stages passed"),
    ("stage_times.py", ["--n", "2", "--r", "3", "--repeat", "2"], "all stages passed"),
])
def test_script_smoke(script, args, expected):
    proc = _run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout.splitlines()
    assert proc.stdout.splitlines()[0].endswith(", minimum of 2 runs") == ("--repeat" in args)
    rows = {line.split()[0] for line in proc.stdout.splitlines()[2:-1]}
    stages = [stage for stage, _ in verify_stages(2, 3, ScalarField.generic())]
    assert rows == {*stages, "Specht", "total"}


@pytest.mark.parametrize("script,args,message", [
    ("stage_times.py", ["--n", "0", "--r", "2"], "need --n >= 1 and --r >= 0"),
    ("stage_times.py", ["--n", "2", "--r", "2", "--rep", "2"], "unrecognized arguments: --rep 2"),
    ("stage_times.py", ["--n", "2", "--r", "2", "--repeat", "0"], "--repeat must be at least 1"),
])
def test_scripts_refuse_what_the_cli_refuses(script, args, message):
    # a usage error, exit 2, before any work: no traceback
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


def test_check_reference_lists_a_job_no_workload_defines(monkeypatch, capsys):
    # a reference key that names no benchmark job is reported, not skipped,
    # and the script exits 1 after checking the jobs that do exist
    spec = importlib.util.spec_from_file_location("check_reference", REPO / "scripts" / "check_reference.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    reference = script.load_reference()
    good, unknown = "walks --n 2 --r 2 --output json", "walks --n 2 --r 99 --output json"
    subset = {good: reference[good], unknown: dict(reference[good])}
    monkeypatch.setattr(script, "load_reference", lambda: subset)
    assert script.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{unknown}: no workload defines this job", "1 of 2 reference jobs match"]
