"""The qtensor benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see `jobs.py` and `README.md`) as a closed loop: one client,
one fresh ``python -m qtensor.cli`` process at a time.  A pass runs every job of
the workload once; passes repeat until ``--seconds`` would be exceeded.  Every
job's exit code and stdout digest are checked against `reference.json`.

With ``--trace 0`` the end-to-end metrics are reported: wall_s and cpu_s (one
pass: the sum over jobs of each job's lower quartile over the passes),
peak_rss_mb (the largest per-job median) and setup_s (median over bare imports
spread across the run).  Noise on a shared host only ever slows a job down, in
bursts; the faster repeats of a job measure its cost, and the lower quartile
rather than the minimum keeps one lucky repeat from setting the figure.  Slower
drift of the host's speed is cancelled by scaling every time to a fixed host
program timed between the jobs (see HOST_PROGRAM); the raw times are printed
too.

With ``--trace 1`` untraced and traced passes alternate; the traced ones run
each job through `traced_child.py` and report per-layer metrics.

The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from jobs import WORKLOADS, Job, load_reference
from runner import JobResult, child_env, run_job, spawn
from spans import INCLUSIVE, TENSOR_ACTIONS

SETUP_PER_PASS = 4

# Host speed on a shared machine drifts by tens of percent over minutes, and
# fresh processes feel it most.  A fixed pure-Python program that does not
# import qtensor runs as its own process between jobs (at most every
# HOST_SAMPLE_EVERY_S); every time the run reports is scaled by
# HOST_REFERENCE_S / (that program's lower-quartile time in the run), which
# cancels the drift.  HOST_REFERENCE_S is its lower-quartile wall time on a quiet
# 2-vCPU Xeon host under Python 3.11, so scaled times read as seconds there.
HOST_PROGRAM = """
from fractions import Fraction
acc = {}
total = Fraction(0)
for i in range(1, 20000):
    acc[(i % 7, i % 11)] = acc.get((i % 7, i % 11), 0) + i * i
    total += Fraction(i % 5, i % 17 + 1)
"""
HOST_REFERENCE_S = 0.125
HOST_SAMPLE_EVERY_S = 0.5
LAYERS = ("cli", "dualcheck", "psiphi", "tensorspace", "combinatorics", "coeff", "import", "trace")


@dataclass
class Pass:
    results: list[JobResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.results)


def per_job(passes: list[Pass], attr: str, stat) -> list[float]:
    """``stat`` of each job's ``attr`` over the passes (every pass runs the same jobs)."""
    return [stat([getattr(p.results[i], attr) for p in passes]) for i in range(len(passes[0].results))]


def lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


@dataclass
class HostSpeed:
    """Wall and CPU times of the fixed host program, sampled between jobs."""

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    last: float = float("-inf")

    def maybe_sample(self, root: Path) -> None:
        if perf_counter() - self.last < HOST_SAMPLE_EVERY_S:
            return
        code, _, err, _, started, ended, usage = spawn([sys.executable, "-c", HOST_PROGRAM], child_env(root), root)
        if code != 0:
            raise RuntimeError(f"host reference program failed: {err[-300:]!r}")
        self.walls.append(ended - started)
        self.cpus.append(usage.ru_utime + usage.ru_stime)
        self.last = perf_counter()

    @property
    def wall_scale(self) -> float:
        return HOST_REFERENCE_S / lower_quartile(self.walls)

    @property
    def cpu_scale(self) -> float:
        return HOST_REFERENCE_S / lower_quartile(self.cpus)


def run_pass(jobs: list[Job], root: Path, reference: dict, traced: bool, host: HostSpeed | None = None) -> Pass:
    p = Pass()
    for job in jobs:
        if host is not None:
            host.maybe_sample(root)
        res = run_job(job, root, reference, traced)
        if not res.ok:
            print(f"MISMATCH ({'traced' if traced else 'untraced'}) {job.key}: exit {res.exit_code}, "
                  f"sha256 {res.stdout_sha256[:16]}; stderr tail {res.stderr[-200:]!r}", file=sys.stderr)
        p.results.append(res)
    return p


SETUP_CMD = [sys.executable, "-c", "import qtensor.cli"]


def measure_setup(root: Path, repeats: int) -> list[float]:
    """Wall times of spawning an interpreter that imports qtensor.cli and exits."""
    times = []
    for _ in range(repeats):
        code, _, err, _, started, ended, _ = spawn(SETUP_CMD, child_env(root), root)
        if code != 0:
            raise RuntimeError(f"importing qtensor.cli failed: {err[-300:]!r}")
        times.append(ended - started)
    return times


def environment_record(root: Path, workload: str, seed: int) -> dict:
    sha, dirty = "none (not a git checkout)", None
    if (root / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, capture_output=True, text=True)
        if head.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


# -- traced passes ------------------------------------------------------------------


def aggregate_traces(p: Pass) -> dict:
    """Sum the per-job span summaries of one traced pass."""
    agg = {"wall_s": p.wall_s, "root_s": 0.0, "overlap_s": 0.0, "reduce_s": 0.0, "start_s": 0.0, "spans": 0,
           "layer_self": {}, "inclusive": {}, "counts": {}, "sums": {}, "maxes": {}, "distinct": {},
           "output_bytes": 0}
    for res in p.results:
        tr = res.trace
        agg["output_bytes"] += res.stdout_bytes
        if tr is None:
            continue
        for key in ("root_s", "overlap_s", "reduce_s", "spans"):
            agg[key] += tr[key]
        agg["start_s"] += tr["root_start"] - res.started
        for key in ("layer_self", "inclusive", "counts", "sums", "distinct"):
            for k, v in tr[key].items():
                agg[key][k] = agg[key].get(k, 0) + v
        for k, v in tr["maxes"].items():
            agg["maxes"][k] = max(agg["maxes"].get(k, 0), v)
    return agg


def sanity_failures(p: Pass) -> list[str]:
    """Exact checks that must hold for every traced job."""
    out = []
    for res in p.results:
        tr = res.trace
        if tr is None:
            out.append(f"{res.job.key}: no trace")
            continue
        total = sum(tr["layer_self"].values())
        if abs(total - (tr["root_s"] + tr["overlap_s"])) > 1e-6 + 1e-9 * tr["spans"]:
            out.append(f"{res.job.key}: self times sum to {total:.6f} s, job span is {tr['root_s']:.6f} s")
        normalizations = tr["counts"].get("coeff.RatFunc.__init__", 0)
        if res.job.q0 is not None and normalizations:
            out.append(f"{res.job.key}: {normalizations} RatFunc normalizations at q0")
        phi_calls = tr["counts"].get("psiphi.phi", 0)
        steps = tr["sums"].get("psiphi.walk_steps", 0)
        if phi_calls != steps:
            out.append(f"{res.job.key}: {phi_calls} phi calls for {steps} walk steps built")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, overhead_ratio: float) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics: name -> (value, unit, base of a ratio or '')."""
    selfs, counts, sums, maxes, distinct = (agg[k] for k in ("layer_self", "counts", "sums", "maxes", "distinct"))
    field_calls = sum(v for k, v in counts.items() if k.startswith("coeff.ScalarField."))
    actions = sum(counts.get(k, 0) for k in TENSOR_ACTIONS)
    inputs = distinct.get("tensorspace.inputs", 0)
    bil = counts.get("tensorspace.bilinear", 0)
    disjoint = sums.get("tensorspace.bilinear_disjoint", 0)
    phi = counts.get("psiphi.phi", 0)
    prefixes = distinct.get("psiphi.prefixes", 0)
    hits, lookups = sums.get("psiphi.psi_cache_hits", 0), sums.get("psiphi.psi_cache_lookups", 0)
    m = {f"{layer}.self_s": (selfs.get(layer, 0.0), "s", "") for layer in LAYERS}
    m.update({
        "coeff.normalizations": (counts.get("coeff.RatFunc.__init__", 0), "count", ""),
        "coeff.max_den_degree": (maxes.get("coeff.max_den_degree", 0), "count", ""),
        "coeff.field_calls": (field_calls, "count", ""),
        "combinatorics.walks": (sums.get("combinatorics.walks", 0), "count", ""),
        "tensorspace.calls": (actions, "count", ""),
        "tensorspace.distinct_input_ratio": (_ratio(inputs, actions), "ratio", f"{inputs}/{actions}"),
        "tensorspace.bilinear_calls": (bil, "count", ""),
        "tensorspace.bilinear_disjoint_ratio": (_ratio(disjoint, bil), "ratio", f"{disjoint}/{bil}"),
        "tensorspace.terms_out": (sums.get("tensorspace.terms_out", 0), "count", ""),
        "psiphi.phi_calls": (phi, "count", ""),
        "psiphi.prefix_useful_ratio": (_ratio(prefixes, phi), "ratio", f"{prefixes}/{phi}"),
        "psiphi.psi_calls": (counts.get("psiphi.psi", 0), "count", ""),
        "psiphi.psi_cache_hit_ratio": (_ratio(hits, lookups), "ratio", f"{hits}/{lookups}"),
        "psiphi.peak_terms": (maxes.get("psiphi.peak_terms", 0), "count", ""),
        "cli.output_bytes": (agg["output_bytes"], "bytes", ""),
        "trace.overhead_ratio": (overhead_ratio, "ratio", "traced wall / untraced wall"),
    })
    m.update({metric: (agg["inclusive"].get(metric, 0.0), "s", "") for metric in INCLUSIVE})
    return m


def print_layer_table(agg: dict) -> None:
    """Layer self times, then the parts of the traced wall outside every span;
    the rows add up to the traced wall."""
    wall = agg["wall_s"]
    rows = [(layer, s, "") for layer, s in sorted(agg["layer_self"].items(), key=lambda kv: -kv[1])]
    rows += [
        ("(start)", agg["start_s"], "spawn and interpreter start, before the job span"),
        ("(reduce)", agg["reduce_s"], "reducing the spans after the job span"),
        ("(exit)", wall - agg["start_s"] - agg["root_s"] - agg["reduce_s"], "writing the trace, exit, reap"),
    ]
    if agg["overlap_s"]:
        rows.append(("(concurrent)", -agg["overlap_s"], "worker-thread time counted in two layers"))
    print(f"{'layer':<16}{'self s':>10}{'share':>8}")
    for name, s, note in rows:
        print(f"{name:<16}{s:>10.4f}{s / wall:>8.1%}" + (f"   {note}" if note else ""))
    print(f"{'traced wall':<16}{wall:>10.4f}   {agg['spans']} spans")


# -- driver -------------------------------------------------------------------------


def _spread(values: list[float]) -> str:
    return f"min {min(values):.4f} max {max(values):.4f} n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qtensor" / "cli.py").is_file():
        print(f"error: no qtensor sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    reference = load_reference()
    jobs = WORKLOADS[args.workload](args.seed)
    missing = [job.key for job in jobs if job.key not in reference]
    if missing:
        print(f"error: jobs missing from reference.json: {missing}", file=sys.stderr)
        return 2

    print("record " + json.dumps(environment_record(root, args.workload, args.seed)))
    spawn(SETUP_CMD, child_env(root), root)  # untimed: lets the bytecode cache fill

    setup: list[float] = []
    host = None if args.trace else HostSpeed()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = perf_counter()
    while True:
        if not args.trace:
            setup += measure_setup(root, SETUP_PER_PASS)
        untraced.append(run_pass(jobs, root, reference, traced=False, host=host))
        if args.trace:
            traced.append(run_pass(jobs, root, reference, traced=True))
        elapsed = perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break

    passes = untraced + traced
    attempted = sum(len(p.results) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {args.workload}: {len(jobs)} jobs per pass, {len(untraced)} untraced"
          f" and {len(traced)} traced passes in {perf_counter() - start:.1f} s")
    print(f"fail_ratio = {failed / attempted:.4f} ratio  ({failed}/{attempted} jobs with a wrong exit code or stdout digest)")

    metrics: dict[str, dict] = {}
    problems: list[str] = []
    if not args.trace:
        wall = sum(per_job(untraced, "wall_s", lower_quartile))
        cpu = sum(per_job(untraced, "cpu_s", lower_quartile))
        setup_raw = statistics.median(setup)
        print(f"host program: lower quartile {lower_quartile(host.walls):.4f} s wall, "
              f"{lower_quartile(host.cpus):.4f} s CPU over {len(host.walls)} runs; "
              f"times below are scaled to {HOST_REFERENCE_S} s for it")
        print(f"pass wall times (raw): {_spread([p.wall_s for p in untraced])}")
        e2e = {
            "wall_s": (wall * host.wall_scale, "s", f"sum of per-job lower quartiles; raw {wall:.4f} s"),
            "cpu_s": (cpu * host.cpu_scale, "s", f"sum of per-job lower quartiles; raw {cpu:.4f} s"),
            "peak_rss_mb": (max(per_job(untraced, "peak_rss_mb", statistics.median)), "MB",
                            "largest per-job median, not scaled"),
            "setup_s": (setup_raw * host.wall_scale, "s",
                        f"median of {len(setup)} bare imports; raw {setup_raw:.4f} s"),
        }
        for name, (value, unit, how) in e2e.items():
            print(f"{name} = {value:.4f} {unit}  ({how})")
            metrics[name] = {"value": value, "unit": unit}
    else:
        aggs = [aggregate_traces(p) for p in traced]
        for p in traced:
            problems += sanity_failures(p)
        overhead = statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in untraced)
        per_pass = [layer_metrics(a, overhead) for a in aggs]
        print_layer_table(aggs[len(aggs) // 2])
        for name, (_, unit, base) in per_pass[0].items():
            value = statistics.median(m[name][0] for m in per_pass)
            print(f"{name} = {value:.6g} {unit}" + (f"  ({base})" if base else ""))
            metrics[name] = {"value": value, "unit": unit}
        for problem in problems:
            print(f"SANITY FAILURE {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
