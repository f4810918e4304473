#!/usr/bin/env python3
"""Check every job of the benchmark's reference against the current sources.

Usage: python scripts/check_reference.py   (from the repository root)

Runs each job keyed in bench/reference.json as its own `python -m
qtensor.cli` process, through `bench/runner.run_job`, and compares its exit
code and the sha256 of its stdout with the reference.  Prints one line per
job that differs (or that no workload defines) and exits 1 if there is any;
otherwise prints the number of jobs checked and exits 0.  It reads bench/
and writes nothing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from jobs import all_reference_jobs, load_reference  # noqa: E402
from runner import run_job  # noqa: E402


def main() -> int:
    reference = load_reference()
    jobs = {job.key: job for job in all_reference_jobs()}
    differing = []
    for key, want in reference.items():
        job = jobs.get(key)
        if job is None:
            differing.append(f"{key}: no workload defines this job")
            continue
        res = run_job(job, ROOT, reference)
        if not res.ok:
            differing.append(f"{key}: exit {res.exit_code} (want {want['exit']}), "
                             f"sha256 {res.stdout_sha256[:12]} (want {want['sha256'][:12]})")
    for line in differing:
        print(line)
    print(f"{len(reference) - len(differing)} of {len(reference)} reference jobs match")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
