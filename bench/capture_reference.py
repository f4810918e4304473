"""Capture the expected output of every benchmark job from the current sources.

Usage: python bench/capture_reference.py   (from the repository root)

Writes bench/reference.json: for each job key, the exit code and the sha256 of
stdout.  Run it only when a change is meant to alter the CLI's output, and say
so in the change: the benchmark counts every job that differs from this file
as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from jobs import REFERENCE_PATH, all_reference_jobs, expected_exit
from runner import run_job


def main() -> int:
    root = Path.cwd()
    reference = {}
    for job in all_reference_jobs():
        res = run_job(job, root, {})
        if res.exit_code != expected_exit(job):
            print(f"unexpected exit {res.exit_code} from {job.key}: {res.stderr.decode()[-300:]}", file=sys.stderr)
            return 1
        reference[job.key] = {"exit": res.exit_code, "sha256": res.stdout_sha256}
        print(f"{res.wall_s:8.3f} s  {res.stdout_bytes:9d} B  {job.key}", flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
