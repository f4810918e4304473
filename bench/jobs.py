"""Workload definitions: which `qtensor` command lines each workload runs.

A job is one CLI invocation (plus any environment it sets).  Its key is the
text used to look it up in `reference.json`, where the expected exit code and
the sha256 of the expected stdout are stored.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"


@dataclass(frozen=True)
class Job:
    args: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()

    @property
    def key(self) -> str:
        return " ".join([f"{k}={v}" for k, v in self.env] + list(self.args))

    @property
    def q0(self) -> str | None:
        return self.args[self.args.index("--q0") + 1] if "--q0" in self.args else None


def _job(text: str, **env: str) -> Job:
    return Job(tuple(text.split()), tuple(sorted(env.items())))


# Coefficient-bound: on the generic field RatFunc normalization dominates the
# walk-vector build, the Gram check (mostly disjoint pairs), the norms and the
# Specht projections.  Jobs are short (0.2-1 s) so that a run repeats each one
# often enough for its median to shrug off bursts of host noise.
GENERIC_CONSTRUCT = (
    _job("verify --n 3 --r 5"),
    _job("decompose --n 4 --r 5 --output json"),
    _job("norms --n 4 --r 5 --output json"),
    _job("specht --n 4 --r 4"),
)

# Interpretation-bound: at q0 = 3/2 coefficients are plain Fractions, so the
# time goes to the relation suites' tensor actions and to phi chains.
SPECIALIZED_VERIFY = (
    _job("verify --n 4 --r 4 --q0 3/2"),
    _job("verify --n 3 --r 5 --q0 3/2"),
    _job("vectors --n 4 --r 7 --q0 3/2 --output json"),
    _job("specht --n 3 --r 6 --q0 3/2"),
)

COMMANDS = ("walks", "vectors", "psi", "verify", "norms", "specht", "decompose", "invariants")
NS = (1, 2, 3)
FIELDS = (None, "3/2", "2")
OUTPUTS = ("text", "json")
SESSION_NS_PER_DEGREE = 1
SESSION_USAGE_ERRORS = 3

USAGE_ERROR_POOL = (
    _job("verify --n 0 --r 2"),
    _job("walks --n 2 --r -1"),
    _job("vectors --n 2 --r 2 --q0 1"),
    _job("norms --n 2 --r 2 --q0 x/y"),
    _job("psi --n 3 --r 2"),
    _job("decompose --n 2 --r 2 --output yaml"),
)

THREADS_JOB = _job("verify --n 3 --r 4 --output json", QTENSOR_THREADS="0")


def _degrees(command: str) -> range:
    return range(1, 5) if command == "psi" else range(0, 5)  # psi needs a nonempty shape


def _balanced_shape(n: int, r: int) -> str:
    rows = min(n, r)
    q, m = divmod(r, rows)
    return ",".join(str(p) for p in [q + 1] * m + [q] * (rows - m))


def _pool_job(command: str, n: int, r: int, q0: str | None, output: str) -> Job:
    parts = [command, "--n", str(n), "--r", str(r)]
    if command == "psi":
        parts += ["--shape", _balanced_shape(n, r)]
    if q0 is not None:
        parts += ["--q0", q0]
    parts += ["--output", output]
    return Job(tuple(parts))


def session_pool(command: str) -> list[Job]:
    """Every small job of one command: n <= 3, r <= 4, three fields, two outputs."""
    return [
        _pool_job(command, n, r, q0, output)
        for n in NS for r in _degrees(command) for q0 in FIELDS for output in OUTPUTS
    ]


def cli_session(seed: int) -> list[Job]:
    """A seeded draw from the session pools: for every command and degree r, one
    of the three alphabet sizes, with a drawn field and output format; then
    three usage errors and one threaded verify, all in seeded order.

    Stratifying by command and r keeps the session's total work nearly the same
    from seed to seed, so its wall time compares across seeds."""
    rng = random.Random(seed)
    jobs = [
        _pool_job(command, n, r, rng.choice(FIELDS), rng.choice(OUTPUTS))
        for command in COMMANDS
        for r in _degrees(command)
        for n in rng.sample(NS, SESSION_NS_PER_DEGREE)
    ]
    jobs += rng.sample(USAGE_ERROR_POOL, SESSION_USAGE_ERRORS)
    jobs.append(THREADS_JOB)
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "generic-construct": lambda seed: _shuffled(GENERIC_CONSTRUCT, seed),
    "specialized-verify": lambda seed: _shuffled(SPECIALIZED_VERIFY, seed),
    "cli-session": cli_session,
}


def _shuffled(jobs: tuple[Job, ...], seed: int) -> list[Job]:
    out = list(jobs)
    random.Random(seed).shuffle(out)
    return out


def all_reference_jobs() -> list[Job]:
    """Every job any seed of any workload can run."""
    jobs = list(GENERIC_CONSTRUCT) + list(SPECIALIZED_VERIFY)
    for command in COMMANDS:
        jobs += session_pool(command)
    jobs += list(USAGE_ERROR_POOL) + [THREADS_JOB]
    return jobs


def expected_exit(job: Job) -> int:
    return 2 if job in USAGE_ERROR_POOL else 0


def load_reference(path: Path = REFERENCE_PATH) -> dict[str, dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
