"""Spawn one CLI job, time it, account its resources and check its output.

Every job is a fresh interpreter.  Wall time runs from just before the spawn to
the moment `os.wait4` reaps the child; CPU time and peak RSS come from that same
`wait4` call, so they belong to this job alone (``RUSAGE_CHILDREN`` keeps the
largest RSS of any child ever reaped and cannot tell jobs apart).
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from jobs import BENCH_DIR, Job

JOB_TIMEOUT_S = 60.0
HASH_SEED = "0"


@dataclass
class JobResult:
    job: Job
    exit_code: int
    stdout_sha256: str
    stdout_bytes: int
    wall_s: float
    started: float
    cpu_s: float
    peak_rss_mb: float
    stderr: bytes
    trace: dict | None = None
    ok: bool = False


def child_env(root: Path, job_env: tuple[tuple[str, str], ...] = ()) -> dict[str, str]:
    """The parent's environment without an inherited QTENSOR_THREADS, with a fixed
    hash seed and the checkout's sources first on the import path."""
    env = {k: v for k, v in os.environ.items() if k != "QTENSOR_THREADS"}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(root / "src")
    env.update(job_env)
    return env


def spawn(cmd: list[str], env: dict[str, str], cwd: Path, trace: bool = False):
    """Run ``cmd`` to completion.  Returns (exit code, stdout, stderr, trace bytes,
    spawn time, reap time, rusage); the times are `perf_counter` readings.  With ``trace`` the child gets a pipe whose write end's
    descriptor number is inserted as the command's third word."""
    trace_r = trace_w = None
    if trace:
        trace_r, trace_w = os.pipe()
        cmd = cmd[:2] + [str(trace_w)] + cmd[2:]
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=cwd, pass_fds=(trace_w,) if trace else ())
    if trace_w is not None:
        os.close(trace_w)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    if trace_r is not None:
        chunks[trace_r] = []
    try:
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            deadline = start + JOB_TIMEOUT_S
            while sel.get_map():
                ready = sel.select(timeout=max(0.0, deadline - perf_counter()))
                if not ready:
                    raise TimeoutError(f"job exceeded {JOB_TIMEOUT_S:.0f} s: {' '.join(cmd)}")
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        _, status, usage = os.wait4(proc.pid, 0)
        end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
        if trace_r is not None:
            os.close(trace_r)
    trace_bytes = b"".join(chunks[trace_r]) if trace_r is not None else b""
    return proc.returncode, b"".join(chunks[out_fd]), b"".join(chunks[err_fd]), trace_bytes, start, end, usage


def run_job(job: Job, root: Path, reference: dict[str, dict], traced: bool = False) -> JobResult:
    """Run one job, untraced (``python -m qtensor.cli``) or traced
    (`traced_child.py`), and compare exit code and stdout digest with the
    reference."""
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "traced_child.py"), *job.args]
    else:
        cmd = [sys.executable, "-m", "qtensor.cli", *job.args]
    try:
        code, stdout, stderr, trace, started, ended, usage = spawn(cmd, child_env(root, job.env), root, traced)
    except TimeoutError as exc:
        return JobResult(job, -1, "", 0, JOB_TIMEOUT_S, 0.0, 0.0, 0.0, str(exc).encode())
    result = JobResult(
        job=job,
        exit_code=code,
        stdout_sha256=hashlib.sha256(stdout).hexdigest(),
        stdout_bytes=len(stdout),
        wall_s=ended - started,
        started=started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stderr=stderr,
        trace=json.loads(trace) if trace else None,
    )
    want = reference.get(job.key)
    result.ok = (
        want is not None
        and want["exit"] == code
        and want["sha256"] == result.stdout_sha256
        and (not traced or result.trace is not None)
    )
    return result
