"""Command-line front end.

Commands enumerate walks, print or export the highest-weight vectors and
the recursion elements, run the verification battery, and emit norm, matrix,
and decomposition reports.  Exit status: 0 on success, 1 when a verification
assertion fails, 2 on usage errors, among them a --shape that is not a
partition of --r into at most --n parts (for psi, which ignores --r: a
--shape with more than --n parts), and any --shape given to verify, decompose
or invariants, which run over every shape, and a verify that passes a fixed
limit on its generator images ((5n + r)*n^r), its index length r, its
quantum relation checks (about 4.5n^2 pairs, each set up once and checked on
n^min(r,1) vectors) or its Gram pairs (W(W+1)/2 for W walk vectors); each
limit admits runs of up to about a minute.  A run that exhausts memory exits
1 with a one-line error.

Flag grammar::

    qtensor <command> --n <int> --r <int> [--shape a,b,c] [--q0 num[/den]]
            [--output text|json] [--out <path>]

Flags are spelled in full: an abbreviation such as --q for --q0 is a usage
error.  --q0 is an optional sign, digits, and an optional /digits; anything
else (a decimal point, an exponent, spaces) is a usage error.  A negative
--q0 may follow the flag as its own token (--q0 -2/5) or be attached to it
(--q0=-2/5).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dualcheck, psiphi, tensorspace
from .coeff import ScalarField
from .combinatorics import Partition, count_standard, enumerate_walks, partitions_in

__all__ = ["run_cli", "main"]

COMMANDS = ("walks", "vectors", "psi", "verify", "norms", "specht", "decompose", "invariants")
SHAPE_OF_DEGREE_R = ("walks", "vectors", "norms", "specht")
ALL_SHAPES = ("verify", "decompose", "invariants")
_JSON = json.JSONEncoder(separators=(",", ":"))
# verify's limits, from costs measured at q0=3/2 (generic runs are slower):
# about 4.4 us per generator image with the battery (2,500,000 at n = 5,
# r = 7 took 11 s), so 10^7 is about a minute; at n = 1, time grows as r^2
# (5 s at r = 10^4, 20 s at r = 2*10^4); about 8 us per relation check
# (4.55 million at n = 100, r = 1 took 37 s); about 80 us per Gram pair with
# the battery (1,473,186 at n = 2, r = 13 took 116 s)
_VERIFY_IMAGE_LIMIT = 10**7
_VERIFY_R_LIMIT = 20_000
_VERIFY_CHECK_LIMIT = 7_500_000
_VERIFY_GRAM_LIMIT = 750_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # keep control of the exit status instead of argparse's sys.exit
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qtensor", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
                     allow_abbrev=False)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--n", type=int, required=True, help="alphabet size")
    parser.add_argument("--r", type=int, default=0, help="tensor degree")
    parser.add_argument("--shape", type=str, default=None, help="partition, e.g. 2,1")
    parser.add_argument("--q0", type=str, default=None, help="rational specialization, e.g. 3/2")
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--out", dest="out_path", type=str, default=None)
    return parser


def _attach_negative_q0(argv: list[str]) -> list[str]:
    """``--q0 -2/5`` as ``--q0=-2/5``: argparse takes a token that starts
    with "-" for a flag unless it reads as a plain negative number."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--q0" and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"--q0={tok}"
        else:
            out.append(tok)
    return out


def _refuse_over(cfg: argparse.Namespace, count: int, limit: int, what: str) -> None:
    if count > limit:
        raise _UsageError(f"verify --n {cfg.n} --r {cfg.r} would {what.format(count)},"
                          f" more than the limit of {limit:,}")


def _parse_config(argv: list[str]) -> argparse.Namespace:
    """The parsed flags, with ``shape`` a validated `Partition` (or None) and
    ``field`` the one `ScalarField` of the run."""
    cfg = _build_parser().parse_args(_attach_negative_q0(argv))
    if cfg.shape is not None and cfg.command in ALL_SHAPES:
        raise _UsageError(f"{cfg.command} runs over every shape and takes no --shape")
    if cfg.shape:
        try:
            cfg.shape = Partition.from_string(cfg.shape)
        except ValueError as exc:
            raise _UsageError(f"bad --shape value {cfg.shape!r}: {exc}") from None
    else:
        cfg.shape = None
    try:
        cfg.field = ScalarField(cfg.q0)
    except ValueError as exc:
        raise _UsageError(f"bad --q0 value {cfg.q0!r}: {exc}") from None
    if cfg.n < 1:
        raise _UsageError("--n must be a positive integer")
    if cfg.r < 0:
        raise _UsageError("--r must be nonnegative")
    if cfg.command == "verify":
        n, r = cfg.n, cfg.r
        images, factors = 5 * n + r, r if n > 1 else 0  # n^r is never formed: --r can be huge
        while factors and images <= _VERIFY_IMAGE_LIMIT:
            images, factors = images * n, factors - 1
        if images > _VERIFY_IMAGE_LIMIT:
            raise _UsageError(f"verify --n {n} --r {r} would tabulate (5n + r)*n^r generator images,"
                              f" more than the limit of {_VERIFY_IMAGE_LIMIT:,}")
        # r first: W's count of the one-row shape forms r!
        _refuse_over(cfg, r, _VERIFY_R_LIMIT, "build index tuples of length {:,}")
        _refuse_over(cfg, 9 * n * n // 2 * ((n if r else 1) + 1), _VERIFY_CHECK_LIMIT, "make {:,} quantum relation"
                     " checks (about 4.5n^2 pairs, each set up once and checked on n^min(r,1) vectors)")
        walks = sum(count_standard(lam) for lam in partitions_in(n, r))
        _refuse_over(cfg, walks * (walks + 1) // 2, _VERIFY_GRAM_LIMIT,
                     f"pair {{:,}} Gram entries (W(W+1)/2 for W = {walks:,} walk vectors)")
    shape = cfg.shape
    if shape is not None and cfg.command in SHAPE_OF_DEGREE_R and (shape.size != cfg.r or shape.nrows > cfg.n):
        raise _UsageError(f"--shape {shape} is not a partition of --r {cfg.r} into at most --n {cfg.n} parts")
    if shape is not None and cfg.command == "psi" and shape.nrows > cfg.n:
        raise _UsageError(f"--shape {shape} has more than --n {cfg.n} parts")
    return cfg


def _emit(cfg: argparse.Namespace, text_lines, json_payload) -> None:
    """Write the rendering asked for, to ``--out`` or to stdout:
    ``text_lines`` and ``json_payload`` are functions that make the text
    lines and the JSON payload, and only the one asked for is called.  The
    JSON bytes are identical across runs for identical inputs: a payload
    other than a dict is a list's items, encoded one at a time (each item's
    objects go once it is text) and joined as json.dumps joins a list.  The
    whole body is made first, so a failed run writes nothing."""
    if cfg.output == "json":
        payload, encode = json_payload(), _JSON.encode
        body = (encode(payload) if isinstance(payload, dict) else f"[{','.join(map(encode, payload))}]") + "\n"
    else:
        body = "\n".join(text_lines()) + "\n"
    if cfg.out_path is None:
        sys.stdout.write(body)
        return
    try:
        with open(cfg.out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(body)
    except OSError as exc:
        raise RuntimeError(f"cannot write {cfg.out_path}: {exc}") from exc


def _cmd_walks(cfg: argparse.Namespace) -> int:
    rows = [list(w.rows) for w in enumerate_walks(cfg.n, cfg.r, cfg.shape)]
    _emit(cfg, lambda: map(_JSON.encode, rows), lambda: rows)
    return 0


def _cmd_vectors(cfg: argparse.Namespace) -> int:
    records = dualcheck.maximal_basis(cfg.n, cfg.r, cfg.field, cfg.shape)
    _emit(cfg, lambda: [f"walk {rec.walk} -> shape {rec.weight}: {tensorspace.format_vector(rec.vector)}"
                        for rec in records],
          lambda: (tensorspace.vector_to_json_dict(rec.vector) for rec in records))
    return 0


def _cmd_psi(cfg: argparse.Namespace) -> int:
    if cfg.shape is None:
        raise _UsageError("psi needs --shape")
    elements = []  # (j, psi_j, or None where it is undefined)
    for j in range(1, cfg.n):
        try:
            elements.append((j, psiphi.psi(j, cfg.shape, cfg.field)))
        except psiphi.PsiUndefinedError:
            elements.append((j, None))
    _emit(cfg, lambda: [f"psi_{j}[{cfg.shape}] = {el}" if el is not None else
                        f"psi_{j}[{cfg.shape}] undefined (vanishing coroot pairing)" for j, el in elements],
          lambda: [{"j": j, "terms": [{"word": list(w), "coeff": str(c)} for w, c in sorted(el.terms.items())]}
                   if el is not None else {"j": j, "undefined": True} for j, el in elements])
    return 0


def _cmd_verify(cfg: argparse.Namespace) -> int:
    report = dualcheck.verify_suite(cfg.n, cfg.r, cfg.field)
    _emit(cfg, lambda: [
        f"[{'PASS' if c.ok else 'FAIL'}] {c.name}" + (f" ({c.detail})" if c.detail else "")
        for c in report.checks
    ] + [f"verify n={cfg.n} r={cfg.r}: {'all checks passed' if report.ok else 'FAILURES PRESENT'}"],
        report.to_json_dict)
    return 0 if report.ok else 1


def _cmd_norms(cfg: argparse.Namespace) -> int:
    field = cfg.field
    rows = []  # (walk, predicted, computed, whether they match)
    for rec in dualcheck.maximal_basis(cfg.n, cfg.r, field, cfg.shape):
        predicted, computed = dualcheck.norm_predict(rec.walk, field), tensorspace.bilinear(rec.vector, rec.vector)
        rows.append((rec.walk, predicted, computed, predicted == computed))
    _emit(cfg, lambda: [f"walk {walk}: norm {computed} ({'matches' if match else 'DISAGREES WITH'} closed form)"
                        for walk, _, computed, match in rows],
          lambda: [{"walk": list(walk.rows), "predicted": str(predicted), "computed": str(computed), "match": match}
                   for walk, predicted, computed, match in rows])
    return 0 if all(row[3] for row in rows) else 1


def _specht_lines(lam, data) -> list[str]:
    if isinstance(data, Exception):
        return [f"shape {lam}: FAIL ({data})"]
    size = len(data.basis)
    lines = [f"shape {lam}: {size}x{size} matrices for {len(data.t_matrices)} generators"]
    for i, mat in enumerate(data.t_matrices, start=1):
        for row_idx, row in enumerate(mat):
            rendered = ", ".join(str(c) for c in row)
            lines.append(f"  T_{i} row {row_idx}: [{rendered}]")
    return lines


def _cmd_specht(cfg: argparse.Namespace) -> int:
    results = []  # (shape, SpechtData or the SpechtConsistencyError)
    for lam in [cfg.shape] if cfg.shape is not None else partitions_in(cfg.n, cfg.r):
        try:
            results.append((lam, dualcheck.specht_matrices(lam, cfg.n, cfg.r, cfg.field)))
        except dualcheck.SpechtConsistencyError as exc:
            results.append((lam, exc))
    _emit(cfg, lambda: [line for lam, data in results for line in _specht_lines(lam, data)],
          lambda: [{
              "shape": list(lam.parts),
              "size": len(data.basis),
              "gram_diagonal": [str(c) for c in data.gram_diagonal],
              "t_matrices": [[[str(c) for c in row] for row in mat] for mat in data.t_matrices],
          } for lam, data in results if not isinstance(data, Exception)])
    return 1 if any(isinstance(data, Exception) for _, data in results) else 0


def _cmd_decompose(cfg: argparse.Namespace) -> int:
    report = dualcheck.decomposition_report(cfg.n, cfg.r, cfg.field)
    _emit(cfg, lambda: [f"tensor power {cfg.n}^{cfg.r} = {report.total}"] + [
        f"  shape {row.shape}: dim {row.weyl_dim} x multiplicity {row.f} "
        f"({row.walks} walks, maximal={row.all_maximal}, orthogonal={row.gram_diagonal})"
        for row in report.rows
    ] + [f"identity: {'holds' if report.identity_ok else 'FAILS'}"], report.to_json_dict)
    return 0 if report.identity_ok else 1


def _cmd_invariants(cfg: argparse.Namespace) -> int:
    records = dualcheck.invariants_basis(cfg.n, cfg.r, cfg.field)
    _emit(cfg, lambda: [f"{len(records)} invariant vector(s) in degree {cfg.r} over {cfg.n} letters"] + [
        f"walk {rec.walk}: {tensorspace.format_vector(rec.vector)}" for rec in records
    ], lambda: (tensorspace.vector_to_json_dict(rec.vector) for rec in records))
    return 0


_DISPATCH = {
    "walks": _cmd_walks,
    "vectors": _cmd_vectors,
    "psi": _cmd_psi,
    "verify": _cmd_verify,
    "norms": _cmd_norms,
    "specht": _cmd_specht,
    "decompose": _cmd_decompose,
    "invariants": _cmd_invariants,
}


def run_cli(argv: list[str]) -> int:
    try:
        cfg = _parse_config(argv)
        return _DISPATCH[cfg.command](cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(__doc__, file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
