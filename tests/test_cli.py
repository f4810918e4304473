import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qtensor import cli, dualcheck, psiphi
from qtensor.coeff import ScalarField
from qtensor.tensorspace import TensorVector, vector_to_json_dict

GEN = ScalarField.generic()
SRC = Path(__file__).resolve().parents[1] / "src"


def vector_from_json_dict(obj):
    return TensorVector(GEN, obj["n"], obj["r"], {tuple(t["idx"]): GEN.parse(t["coeff"]) for t in obj["terms"]})


def run(argv, capsys):
    status = cli.run_cli(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def test_walks_text(capsys):
    status, out, _ = run(["walks", "--n", "2", "--r", "2"], capsys)
    assert status == 0
    assert out.splitlines() == ["[1,1]", "[1,2]"]


def test_walks_deeper_than_recursion_limit(capsys):
    status, out, _ = run(["walks", "--n", "1", "--r", "1500"], capsys)
    assert status == 0
    assert out.splitlines() == ["[" + ",".join(["1"] * 1500) + "]"]


def test_walks_json(capsys):
    status, out, _ = run(["walks", "--n", "3", "--r", "3", "--output", "json"], capsys)
    assert status == 0
    assert json.loads(out) == [[1, 1, 1], [1, 1, 2], [1, 2, 1], [1, 2, 3]]


def test_vectors_json_six_terms(capsys):
    status, out, _ = run(
        ["vectors", "--n", "3", "--r", "3", "--shape", "1,1,1", "--output", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert len(payload[0]["terms"]) == 6
    vec = vector_from_json_dict(payload[0])
    assert psiphi.is_maximal(vec)


def test_vector_json_round_trip_bytes(capsys):
    status, out1, _ = run(
        ["vectors", "--n", "3", "--r", "3", "--shape", "2,1", "--output", "json"], capsys)
    status2, out2, _ = run(
        ["vectors", "--n", "3", "--r", "3", "--shape", "2,1", "--output", "json"], capsys)
    assert status == status2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    for obj in payload:
        vec = vector_from_json_dict(obj)
        assert json.dumps(vector_to_json_dict(vec), separators=(",", ":")) == json.dumps(obj, separators=(",", ":"))


def test_export_to_file_byte_stable(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["decompose", "--n", "3", "--r", "3", "--output", "json", "--out", str(p1)], capsys)[0] == 0
    assert run(["decompose", "--n", "3", "--r", "3", "--output", "json", "--out", str(p2)], capsys)[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    report = json.loads(p1.read_text())
    assert report["total"] == 27 and report["identity_ok"] is True


def test_verify_ok(capsys):
    status, out, _ = run(["verify", "--n", "3", "--r", "3"], capsys)
    assert status == 0
    assert "all checks passed" in out
    for token in ("maximality", "orthogonality", "commuting actions", "braid relation"):
        assert token in out


def test_verify_threads_env():
    # nothing reads QTENSOR_THREADS: verify's stdout is the same byte for byte
    # with it set to 2, set to 0, or unset
    env = {k: v for k, v in os.environ.items() if k != "QTENSOR_THREADS"}
    outputs = []
    for value in ("2", "0", None):
        proc = subprocess.run([sys.executable, "-m", "qtensor.cli", "verify", "--n", "2", "--r", "3"],
                              capture_output=True, timeout=60,
                              env={**env, "PYTHONPATH": str(SRC), **({"QTENSOR_THREADS": value} if value else {})})
        assert proc.returncode == 0 and b"all checks passed" in proc.stdout
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_verify_detects_corruption(capsys, monkeypatch):
    real = psiphi.build_c_pi

    def corrupted(pi, field, n=None):
        rec = real(pi, field, n)
        if pi.rows == (1, 2):
            vec = rec.vector + TensorVector.basis(field, rec.vector.n, (1, 1))
            rec = psiphi.MaximalVectorRecord(walk=rec.walk, vector=vec, weight=rec.weight)
        return rec

    monkeypatch.setattr(dualcheck, "build_c_pi", corrupted)
    status, out, _ = run(["verify", "--n", "2", "--r", "2"], capsys)
    assert status == 1
    assert "FAIL" in out


@pytest.mark.parametrize("command", ["vectors", "invariants"])
def test_only_the_requested_rendering_is_made(command, capsys, monkeypatch):
    # the text lines of a JSON run (and the payload of a text run) are never built
    def unused(*args):
        raise AssertionError("rendering that was not asked for")

    base = [command, "--n", "2", "--r", "2"]
    expected = {output: run(base + ["--output", output], capsys) for output in ("text", "json")}
    monkeypatch.setattr(cli.tensorspace, "format_vector", unused)
    assert run(base + ["--output", "json"], capsys) == expected["json"]
    monkeypatch.undo()
    monkeypatch.setattr(cli.tensorspace, "vector_to_json_dict", unused)
    assert run(base + ["--output", "text"], capsys) == expected["text"]


JSON_JOBS = {
    "walks": ["--n", "3", "--r", "3"],
    "vectors": ["--n", "3", "--r", "4"],
    "psi": ["--n", "4", "--shape", "2,1"],
    "verify": ["--n", "2", "--r", "3"],
    "norms": ["--n", "3", "--r", "3"],
    "specht": ["--n", "3", "--r", "3"],
    "decompose": ["--n", "3", "--r", "3"],
    "invariants": ["--n", "3", "--r", "3"],
}


@pytest.mark.parametrize("q0", [None, "3/2", "-2/5"], ids=str)
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_json_output_is_json_dumps_of_the_payload(command, q0, capsys, monkeypatch):
    # a list payload is written one item at a time; the bytes are those of
    # json.dumps of the whole payload, as a list
    payloads, real = [], cli._emit

    def emit(cfg, text_lines, json_payload):
        payload = json_payload()
        payloads.append(payload if isinstance(payload, dict) else list(payload))
        real(cfg, text_lines, json_payload)

    monkeypatch.setattr(cli, "_emit", emit)
    argv = [command, *JSON_JOBS[command], "--output", "json"] + ([f"--q0={q0}"] if q0 else [])
    status, out, _ = run(argv, capsys)
    assert status == 0
    assert out == json.dumps(payloads[0], separators=(",", ":")) + "\n"


@pytest.mark.parametrize("n", [400, 1200])
def test_psi_deeper_than_recursion_limit(n, capsys):
    # psi_j for j >= 3 is undefined at shape 2,1, which the recursion would
    # find only at its innermost level; 1200 is past the default limit of 1000
    status, out, _ = run(["psi", "--n", str(n), "--shape", "2,1"], capsys)
    assert status == 0
    assert len(out.splitlines()) == n - 1


def test_usage_errors(capsys):
    assert run(["frobnicate", "--n", "2"], capsys)[0] == 2
    assert run(["walks"], capsys)[0] == 2
    assert run(["walks", "--n", "2", "--r", "-1"], capsys)[0] == 2
    status, _, err = run(["verify", "--n", "2", "--r", "2", "--q0", "1"], capsys)
    assert status == 2 and "q0" in err
    status, out, err = run(["verify", "--n", "2", "--r", "2", "--q0", "1/0"], capsys)
    assert status == 2 and out == "" and err.startswith("error: bad --q0 value '1/0': zero denominator\n")
    assert run(["verify", "--n", "2", "--r", "2", "--q0", "x"], capsys)[0] == 2
    assert run(["psi", "--n", "3"], capsys)[0] == 2  # psi needs --shape


def test_bad_shape_is_usage_error(capsys):
    for shape in ("2,x", "1,2"):
        status, _, err = run(["vectors", "--n", "3", "--r", "3", "--shape", shape], capsys)
        assert status == 2 and "--shape" in err


@pytest.mark.parametrize("argv", [
    "walks --n 2 --r 2 --shape 3",
    "vectors --n 2 --r 3 --shape 1,1,1",
    "norms --n 3 --r 3 --shape 2,1,1",
    "specht --n 2 --r 2 --shape 3",
])
def test_shape_not_of_degree_r_is_usage_error(argv, capsys):
    status, out, err = run(argv.split(), capsys)
    assert status == 2 and out == ""
    assert "is not a partition of --r" in err and "Traceback" not in err


def test_psi_shape_with_too_many_parts_is_usage_error(capsys):
    status, out, err = run(["psi", "--n", "3", "--shape", "1,1,1,1"], capsys)
    assert status == 2 and out == ""
    assert "--shape 1,1,1,1 has more than --n 3 parts" in err


@pytest.mark.parametrize("argv", [
    "verify --n 2 --r 2 --shape 5",
    "decompose --n 2 --r 2 --shape 2",
    "invariants --n 2 --r 2 --shape 7",
])
def test_shape_for_every_shape_command_is_usage_error(argv, capsys):
    status, out, err = run(argv.split(), capsys)
    assert status == 2 and out == ""
    assert "takes no --shape" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["vectors", "specht"])
def test_negative_q0_as_its_own_token(command, capsys):
    base = [command, "--n", "3", "--r", "3", "--output", "json"]
    status, attached, _ = run(base + ["--q0=-2/5"], capsys)
    assert status == 0
    status, separate, _ = run(base + ["--q0", "-2/5"], capsys)
    assert status == 0 and separate == attached and json.loads(attached)


def test_abbreviated_flags_are_usage_errors(capsys):
    base = ["vectors", "--n", "2", "--r", "2"]
    for flags in (["--q", "3/2"], ["--q", "-2/5"], ["--sh", "1,1"]):
        status, out, err = run(base + flags, capsys)
        assert status == 2 and out == ""
        assert "unrecognized arguments" in err and "Traceback" not in err
    for flags in (["--q0", "-2/5"], ["--q0=-2/5"]):
        assert run(base + flags, capsys)[0] == 0


def test_malformed_q0_is_still_a_usage_error(capsys):
    for q0 in ("x/y", "-x/y"):
        status, out, err = run(["vectors", "--n", "2", "--r", "2", "--q0", q0], capsys)
        assert status == 2 and out == "" and "q0" in err


def test_q0_outside_the_documented_grammar_is_a_usage_error(capsys):
    base = ["walks", "--n", "2", "--r", "2"]
    start = time.perf_counter()
    status, out, err = run(base + ["--q0", "1e99999999"], capsys)
    assert time.perf_counter() - start < 1
    assert status == 2 and out == "" and "bad --q0 value" in err
    status, out, err = run(base + ["--q0", "0.5"], capsys)
    assert status == 2 and out == "" and "bad --q0 value" in err
    for flags in (["--q0", "3/2"], ["--q0", "2"], ["--q0", "-2/5"], ["--q0=-2/5"]):
        assert run(base + flags, capsys)[0] == 0


def test_unwritable_out_path(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "x")
    for output in ("text", "json"):
        status, out, err = run(
            ["walks", "--n", "2", "--r", "2", "--output", output, "--out", missing], capsys)
        assert status == 1 and out == ""
        assert "cannot write" in err and "Traceback" not in err


def test_q0_pipeline(capsys):
    status, out, _ = run(["verify", "--n", "2", "--r", "3", "--q0", "3/2"], capsys)
    assert status == 0 and "all checks passed" in out
    status, out, _ = run(
        ["vectors", "--n", "2", "--r", "2", "--shape", "1,1", "--q0", "2", "--output", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload[0]["terms"] == [
        {"idx": [1, 2], "coeff": "-1/2"},
        {"idx": [2, 1], "coeff": "1"},
    ]


def test_psi_command(capsys):
    status, out, _ = run(["psi", "--n", "3", "--shape", "2,2"], capsys)
    assert status == 0
    lines = out.splitlines()
    assert "undefined" in lines[0]
    assert "F[" in lines[1]
    status, out, _ = run(["psi", "--n", "3", "--shape", "2,1", "--output", "json"], capsys)
    payload = json.loads(out)
    assert payload[0]["terms"] == [{"word": [1], "coeff": "1"}]
    assert [t["word"] for t in payload[1]["terms"]] == [[1, 2], [2, 1]]


def test_norms_command(capsys):
    status, out, _ = run(["norms", "--n", "3", "--r", "3", "--output", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert len(payload) == 4
    assert all(row["match"] for row in payload)
    assert all(row["predicted"] == row["computed"] for row in payload)


def test_specht_command(capsys):
    status, out, _ = run(
        ["specht", "--n", "3", "--r", "3", "--shape", "2,1", "--output", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload[0]["size"] == 2
    assert len(payload[0]["t_matrices"]) == 2
    status, out, _ = run(["specht", "--n", "2", "--r", "3"], capsys)
    assert status == 0
    assert "shape 3:" in out and "shape 2,1:" in out


def test_invariants_command(capsys):
    status, out, _ = run(["invariants", "--n", "2", "--r", "2", "--output", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert len(payload) == 1 and len(payload[0]["terms"]) == 2
    status, out, _ = run(["invariants", "--n", "2", "--r", "3"], capsys)
    assert status == 0 and "0 invariant" in out


def test_huge_alphabet_reports_touch_only_the_letters_present(capsys):
    status, out, _ = run(["decompose", "--n", "1000000000000", "--r", "2"], capsys)
    assert status == 0
    assert out.splitlines() == [
        "tensor power 1000000000000^2 = 1000000000000000000000000",
        "  shape 2: dim 500000000000500000000000 x multiplicity 1 (1 walks, maximal=True, orthogonal=True)",
        "  shape 1,1: dim 499999999999500000000000 x multiplicity 1 (1 walks, maximal=True, orthogonal=True)",
        "identity: holds",
    ]
    status, out, _ = run(["invariants", "--n", "1000000000000", "--r", "0"], capsys)
    assert status == 0
    assert out.splitlines() == ["1 invariant vector(s) in degree 0 over 1000000000000 letters", "walk []: v[]"]


def test_out_of_memory_is_a_one_line_error(capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setitem(cli._DISPATCH, "verify", exhausted)
    status, out, err = run(["verify", "--n", "2", "--r", "2"], capsys)
    assert (status, out, err) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize("n,r", [("9", "9"), ("1000000000000", "0"), ("2", "1000000000")])
def test_verify_refuses_tables_that_cannot_fit(n, r, capsys, monkeypatch):
    # refused before anything is built: at these sizes the battery never finishes
    monkeypatch.setattr(dualcheck, "verify_suite", lambda *args: pytest.fail("verify_suite was reached"))
    start = time.perf_counter()
    status, out, err = run(["verify", "--n", n, "--r", r], capsys)
    assert time.perf_counter() - start < 1
    assert status == 2 and out == "" and "Traceback" not in err
    assert err.splitlines()[0] == (f"error: verify --n {n} --r {r} would tabulate (5n + r)*n^r generator images,"
                                   " more than the limit of 10,000,000")


@pytest.mark.parametrize("n,r,reason", [
    ("1000", "0", "make 9,000,000 quantum relation checks (about 4.5n^2 pairs, each set up once and checked on"
                  " n^min(r,1) vectors), more than the limit of 7,500,000"),
    ("150", "1", "make 15,288,750 quantum relation checks (about 4.5n^2 pairs, each set up once and checked on"
                 " n^min(r,1) vectors), more than the limit of 7,500,000"),
    ("2", "14", "pair 5,891,028 Gram entries (W(W+1)/2 for W = 3,432 walk vectors), more than the limit of 750,000"),
    ("1", "100000", "build index tuples of length 100,000, more than the limit of 20,000"),
], ids=["1000-0", "150-1", "2-14", "1-100000"])
def test_verify_refuses_runs_over_a_minute(n, r, reason, capsys, monkeypatch):
    # these pass the table guard, but each would run for about a minute or more
    monkeypatch.setattr(dualcheck, "verify_suite", lambda *args: pytest.fail("verify_suite was reached"))
    start = time.perf_counter()
    status, out, err = run(["verify", "--n", n, "--r", r], capsys)
    assert time.perf_counter() - start < 1
    assert status == 2 and out == "" and "Traceback" not in err
    assert err.splitlines()[0] == f"error: verify --n {n} --r {r} would {reason}"


def test_verify_sizes_in_use_pass_the_size_guard(capsys, monkeypatch):
    # every verify of the tests, the goldens, the benchmark reference, CI and
    # stage_times.py (up to n=4, r=7) reaches the battery, as do the largest
    # runs each new limit admits; one step past them is refused
    monkeypatch.setattr(dualcheck, "verify_suite", lambda n, r, field: dualcheck.VerifyReport(n=n, r=r, checks=[]))
    reference = json.loads((SRC.parent / "bench" / "reference.json").read_text())
    runs = [(key, job["exit"]) for key, job in reference.items() if key.startswith("verify")]
    runs += [(f"verify --n {n} --r {r}", 0) for n in range(1, 5) for r in range(8)]
    runs += [(f"verify --n {n} --r {r}", 0) for n, r in [(1, 40), (5, 2), (912, 0), (118, 1), (2, 12), (1, 20000)]]
    runs += [(f"verify --n {n} --r {r}", 2) for n, r in [(913, 0), (119, 1), (2, 13), (1, 20001)]]
    assert [run(key.split(), capsys)[0] for key, _ in runs] == [status for _, status in runs]


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


def test_import_does_not_load_dataclasses():
    # every CLI job is a fresh process; dataclasses drags in inspect, ast, dis and tokenize
    proc = _python("-S", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import qtensor.cli; "
                   "print('dataclasses' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_help_names_every_command():
    proc = _python("-m", "qtensor.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "{" + ",".join(cli.COMMANDS) + "}" in proc.stdout
