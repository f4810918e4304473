"""Tests of the benchmark itself.

Run from the repository root:  python -m pytest bench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import jobs
import run
from runner import run_job
from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SMALL_JOB = jobs.Job(("walks", "--n", "2", "--r", "2", "--output", "json"))
Q0_JOB = jobs.Job(("vectors", "--n", "2", "--r", "3", "--q0", "3/2", "--output", "text"))


def test_self_time_subtracts_nested_children():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    starts, ends, parents = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0], [-1, 0, 1, 0]
    selfs, overlap = self_times(starts, ends, parents, presorted=True)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(selfs) == pytest.approx(10.0)
    assert overlap == 0.0


def test_self_time_counts_overlapping_children_once():
    # two children of the root ran concurrently on different threads; given out of order
    starts, ends, parents = [3.0, 0.0, 1.0], [8.0, 10.0, 5.0], [1, -1, 1]
    selfs, overlap = self_times(starts, ends, parents)
    assert selfs == pytest.approx([5.0, 3.0, 4.0])  # root covered by the union [1, 8]
    assert overlap == pytest.approx(2.0)
    assert sum(selfs) == pytest.approx(10.0 + overlap)


def test_wrappers_span_only_layer_crossings():
    tracer = Tracer()

    def inner(x):
        return x + 1

    inner_w = tracer.wrap(inner, "b", "inner")

    def outer(x):
        return inner_w(x) + inner_w(x)

    outer_w = tracer.wrap(lambda x: outer_b(x), "a", "top")
    outer_b = tracer.wrap(outer, "b", "outer")
    root = tracer.open("cli.job")
    assert outer_w(1) == 4
    tracer.close(root)
    summary = tracer.summary()
    assert summary["counts"] == {"a.top": 1, "b.outer": 1, "b.inner": 2}
    assert summary["spans"] == 3  # job, a.top, b.outer; the inner calls stay in layer b
    assert sum(summary["layer_self"].values()) == pytest.approx(summary["root_s"])


def test_corrupted_reference_digest_counts_as_failed():
    reference = jobs.load_reference()
    good = run.run_pass([SMALL_JOB], ROOT, reference, traced=False)
    assert good.failed == 0
    corrupted = dict(reference)
    corrupted[SMALL_JOB.key] = dict(reference[SMALL_JOB.key], sha256="0" * 64)
    bad = run.run_pass([SMALL_JOB], ROOT, corrupted, traced=False)
    assert bad.failed == 1


def test_traced_job_matches_reference_and_passes_sanity_checks():
    reference = jobs.load_reference()
    p = run.run_pass([SMALL_JOB, Q0_JOB], ROOT, reference, traced=True)
    assert p.failed == 0
    assert run.sanity_failures(p) == []
    counts = p.results[1].trace["counts"]
    assert counts["psiphi.phi"] == 9  # three walks of length 3
    assert counts.get("coeff.RatFunc.__init__", 0) == 0


def test_job_resources_come_from_the_job_itself():
    res = run_job(SMALL_JOB, ROOT, jobs.load_reference())
    assert res.ok
    assert 0 < res.cpu_s <= res.wall_s * 1.5
    assert 1 < res.peak_rss_mb < 500


def test_same_seed_draws_same_session():
    assert jobs.cli_session(7) == jobs.cli_session(7)
    assert jobs.cli_session(7) != jobs.cli_session(8)
    assert jobs.WORKLOADS["generic-construct"](3) == jobs.WORKLOADS["generic-construct"](3)


def test_reference_covers_every_job_of_every_seed():
    reference = jobs.load_reference()
    assert all(job.key in reference for job in jobs.all_reference_jobs())
    for seed in range(20):
        for make in jobs.WORKLOADS.values():
            assert all(job.key in reference for job in make(seed))


def test_run_refuses_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "cli-session", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_result_line_is_last(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(jobs, "GENERIC_CONSTRUCT", (SMALL_JOB,))
    monkeypatch.setattr(run, "SETUP_PER_PASS", 1)
    assert run.main(["--workload", "generic-construct", "--seed", "1", "--seconds", "0.1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = run.layer_metrics(run.aggregate_traces(run.Pass()), 1.0)
    assert {m["name"] for m in spec["per_layer"]} == set(per_layer)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
