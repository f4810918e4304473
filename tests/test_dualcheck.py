import itertools
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qtensor import cli, dualcheck, tensorspace
from qtensor.coeff import ScalarField, specialize
from qtensor.combinatorics import Partition, Walk, a_const, c_const, d_const, enumerate_walks, partitions_in, weyl_dim
from qtensor.dualcheck import (
    SpechtConsistencyError,
    check_commuting_actions,
    check_hecke_relations,
    check_quantum_relations,
    decomposition_report,
    gram_check,
    invariants_basis,
    maximal_basis,
    norm_predict,
    root_vector_check,
    specht_matrices,
    verify_suite,
)
from qtensor.psiphi import MaximalVectorRecord, apply_neg, build_c_pi, psi
from qtensor.tensorspace import (
    TensorVector,
    apply_E,
    apply_F,
    apply_K,
    apply_T,
    apply_tK,
    bilinear,
    format_vector,
    lincomb,
    vector_to_json_dict,
)

GEN = ScalarField.generic()
P = Partition


def test_maximal_basis_counts():
    recs = maximal_basis(2, 2, GEN)
    assert len(recs) == 2
    assert [rec.weight.parts for rec in recs] == [(2,), (1, 1)]
    assert len(maximal_basis(3, 3, GEN)) == 4
    recs = maximal_basis(2, 3, GEN)
    assert len(recs) == 3
    assert sorted(rec.weight.parts for rec in recs) == [(2, 1), (2, 1), (3,)]


def test_gram_examples():
    recs = maximal_basis(2, 2, GEN)
    report = gram_check(recs)
    assert report.ok
    assert report.diagonal == [GEN.one(), GEN.one() + GEN.q_power(-2)]
    single = gram_check(recs[:1])
    assert single.ok and len(single.matrix) == 1 and single.diagonal[0]
    report33 = gram_check(maximal_basis(3, 3, GEN))
    assert report33.ok
    for i, row in enumerate(report33.matrix):
        for j, val in enumerate(row):
            assert bool(val) == (i == j)


def test_gram_detects_corruption():
    recs = maximal_basis(2, 2, GEN)
    bad = recs[1].vector + TensorVector.basis(GEN, 2, (1, 1))
    recs[1] = type(recs[1])(walk=recs[1].walk, vector=bad, weight=recs[1].weight)
    report = gram_check(recs)
    assert not report.ok and report.violations


@pytest.mark.parametrize("field", [GEN, ScalarField.at("3/2")], ids=["generic", "q0"])
def test_gram_flags_a_walk_vector_of_zero_norm(field):
    # a walk vector replaced by zero is orthogonal to every other one, but its
    # own Gram diagonal vanishes: the one violation is the walk paired with itself
    recs = maximal_basis(3, 3, field)
    true = gram_check(recs)
    rec = recs[1]
    recs[1] = MaximalVectorRecord(walk=rec.walk, vector=TensorVector.zero(field, 3, 3), weight=rec.weight)
    report = gram_check(recs)
    assert report.violations == [(rec.walk, rec.walk)] and not report.ok
    assert not report.diagonal[1] and report.diagonal[1] == field.zero()
    assert [d for i, d in enumerate(report.diagonal) if i != 1] == [d for i, d in enumerate(true.diagonal) if i != 1]


def test_norm_examples():
    assert norm_predict(Walk((1, 1)), GEN) == GEN.one()
    assert norm_predict(Walk((1, 2)), GEN) == GEN.one() + GEN.q_power(-2)
    expected = (GEN.one() + GEN.q_power(-2) * 2 + GEN.q_power(-4) * 2 + GEN.q_power(-6))
    assert norm_predict(Walk((1, 2, 3)), GEN) == expected
    rec = build_c_pi(Walk((1, 2, 3)), GEN, 3)
    assert bilinear(rec.vector, rec.vector) == expected


def test_norms_match_at_moderate_scale():
    for n, r in [(2, 4), (3, 4), (4, 3)]:
        for rec in maximal_basis(n, r, GEN):
            assert norm_predict(rec.walk, GEN) == bilinear(rec.vector, rec.vector)


def test_pairing_reduction_identities():
    # the three interleaved reduction identities, on pairs of walk vectors
    # of equal shape (both equal and distinct pairs)
    for n, r in [(2, 3), (3, 3), (3, 4)]:
        for lam in partitions_in(n, r):
            recs = [build_c_pi(w, GEN, n) for w in enumerate_walks(n, r, lam)]
            a1 = a_const(lam, 1)
            for rb in recs:
                for rbp in recs:
                    b, bp = rb.vector, rbp.vector
                    for j in range(1, n):
                        if a_const(lam, j) == 0:
                            continue
                        pj = apply_neg(psi(j, lam, GEN), b)
                        pjp = apply_neg(psi(j, lam, GEN), bp)
                        sb = apply_neg(psi(j - 1, lam, GEN, shift=1), b)
                        sbp = apply_neg(psi(j - 1, lam, GEN, shift=1), bp)
                        if j == 1:
                            kappa = GEN.q_power(1 - a1) / GEN.qint(d_const(lam, 1))
                        else:
                            kappa = GEN.q_power(-a1) * GEN.qint(c_const(lam, j)) / GEN.qint(d_const(lam, j))
                        assert bilinear(pj, pjp) == kappa * bilinear(sb, sbp)
                        if j >= 2:
                            assert not bilinear(pj, apply_neg(psi(j - 1, lam, GEN, shift=1), apply_F(1, bp)))
                            assert bilinear(pj, apply_F(1, sbp)) == GEN.q_power(-a1) * bilinear(sb, sbp)


def test_specht_one_dimensional():
    data = specht_matrices(P((2,)), 2, 2, GEN)
    assert data.t_matrices == [[[GEN.q_power(1)]]]
    data = specht_matrices(P((1, 1)), 2, 2, GEN)
    assert data.t_matrices == [[[-GEN.q_power(-1)]]]


def _mat_mul(A, B, zero):
    k = len(A)
    return [[sum((A[i][t] * B[t][j] for t in range(k)), zero) for j in range(k)] for i in range(k)]


def _check_specht_relations(data, field):
    zero = field.zero()
    q = field.q_power(1)
    qinv = field.q_power(-1)
    for M in data.t_matrices:
        k = len(M)
        A = [[M[i][j] - (q if i == j else zero) for j in range(k)] for i in range(k)]
        B = [[M[i][j] + (qinv if i == j else zero) for j in range(k)] for i in range(k)]
        Z = _mat_mul(A, B, zero)
        assert all(not Z[i][j] for i in range(k) for j in range(k))
    for i in range(len(data.t_matrices) - 1):
        M1, M2 = data.t_matrices[i], data.t_matrices[i + 1]
        assert _mat_mul(_mat_mul(M1, M2, zero), M1, zero) == _mat_mul(_mat_mul(M2, M1, zero), M2, zero)
    for i in range(len(data.t_matrices)):
        for j in range(i + 2, len(data.t_matrices)):
            Mi, Mj = data.t_matrices[i], data.t_matrices[j]
            assert _mat_mul(Mi, Mj, zero) == _mat_mul(Mj, Mi, zero)


def test_specht_two_dimensional():
    data = specht_matrices(P((2, 1)), 3, 3, GEN)
    assert len(data.basis) == 2
    assert all(len(M) == 2 for M in data.t_matrices)
    _check_specht_relations(data, GEN)


def test_specht_larger_blocks():
    for lam, n, r in [(P((2, 1, 1)), 4, 4), (P((2, 2)), 3, 4), (P((3, 1)), 2, 4)]:
        data = specht_matrices(lam, n, r, GEN)
        assert len(data.basis) == len(data.gram_diagonal)
        assert all(v for v in data.gram_diagonal)
        _check_specht_relations(data, GEN)


def test_specht_invalid_shape():
    with pytest.raises(ValueError):
        specht_matrices(P((3, 1)), 3, 3, GEN)


def _specht_by_projection(lam, n, r, field):
    """The oracle for `specht_matrices`: coordinates by orthogonal projection
    (each image paired against every walk vector of the shape and divided by
    that vector's norm), with the residual after projection asserted to
    vanish.  Each walk vector and each image is cleared once for its
    pairings; the transposition is looked up in `dualcheck`, so a replaced
    action is the one projected."""
    records = maximal_basis(n, r, field, lam)
    if not records:
        raise ValueError(f"{lam} is not a shape of degree {r} with at most {n} rows")
    cleared = [field.clear(rec.vector.coeffs) for rec in records]
    norms = [field.pair(c, c) for c in cleared]
    one = field.one()
    t_matrices = []
    for i in range(1, r):
        rows = []
        for rec in records:
            image = dualcheck.apply_T(i, rec.vector)
            cimage = field.clear(image.coeffs)
            coords = []
            for other, norm in zip(cleared, norms):
                c = field.pair(cimage, other)
                coords.append(c / norm if c else c)
            residual = lincomb([(one, image.coeffs)]
                               + [(-c, other.vector.coeffs) for c, other in zip(coords, records)], one)
            if residual:
                raise SpechtConsistencyError(
                    f"T_{i} image of walk {rec.walk} leaves the span at shape {lam}")
            rows.append(coords)
        t_matrices.append(rows)
    return dualcheck.SpechtData(shape=lam, basis=records, gram_diagonal=norms, t_matrices=t_matrices)


@pytest.mark.parametrize("n, r, q0", [(3, 4, None), (3, 4, "3/2"), (3, 4, "2"), (3, 4, "-2/5"),
                                      (4, 5, None), (4, 5, "3/2"), (3, 6, None), (3, 6, "3/2")])
def test_seminormal_rows_equal_the_projection(n, r, q0):
    field = ScalarField(q0 and Fraction(q0))
    for lam in partitions_in(n, r):
        data, oracle = specht_matrices(lam, n, r, field), _specht_by_projection(lam, n, r, field)
        assert data.t_matrices == oracle.t_matrices
        assert data.gram_diagonal == oracle.gram_diagonal


def _grown_dims(lam, n):
    """Dimensions of the shapes one box larger than lam, by added row."""
    return [weyl_dim(lam.add_box(j), n) for j in lam.addable_rows(n)]


def test_youngs_rule_examples():
    # tensoring with the vector module: n weyl_dim(lam) = sum of weyl_dim(lam + box)
    assert 2 * weyl_dim(P((1,)), 2) == 4 and sorted(_grown_dims(P((1,)), 2)) == [1, 3]
    assert 3 * weyl_dim(P((1,)), 3) == 9 and sorted(_grown_dims(P((1,)), 3)) == [3, 6]
    assert 2 * weyl_dim(P((2, 2)), 2) == 2 and _grown_dims(P((2, 2)), 2) == [2]


def test_youngs_rule_sweep():
    for n in (2, 3, 4):
        for r in range(0, 6):
            for lam in partitions_in(n, r):
                assert n * weyl_dim(lam, n) == sum(_grown_dims(lam, n))


def test_invariants_examples():
    recs = invariants_basis(2, 2, GEN)
    assert len(recs) == 1
    expected = TensorVector(GEN, 2, 2, {(2, 1): GEN.one(), (1, 2): -GEN.q_power(-1)})
    assert recs[0].vector == expected
    assert invariants_basis(2, 3, GEN) == []
    recs = invariants_basis(3, 3, GEN)
    assert len(recs) == 1 and len(recs[0].vector.coeffs) == 6
    # degree 0: the unit spans the invariants
    assert len(invariants_basis(3, 0, GEN)) == 1
    # multiplicity of the rectangle grows with degree
    assert len(invariants_basis(2, 4, GEN)) == 2


@pytest.mark.parametrize("action, message", [("apply_E", "is not invariant"),
                                             ("apply_tK", "is not of trivial coroot weight")])
def test_invariants_command_reports_a_vector_that_is_not_invariant(action, message, monkeypatch, capsys):
    # a skewed E_1 no longer kills the invariant of V⊗V, and a skewed K~_1 no
    # longer fixes it: invariants_basis raises, and the command exits 1 with a
    # one-line error naming the walk
    monkeypatch.setattr(dualcheck, action, _skewed(getattr(dualcheck, action)))
    with pytest.raises(RuntimeError, match=f"^vector for walk \\[1,2\\] {message}$"):
        invariants_basis(2, 2, GEN)
    assert cli.run_cli(["invariants", "--n", "2", "--r", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: vector for walk [1,2] {message}\n"


def test_decomposition_examples():
    rep = decomposition_report(2, 2, GEN)
    assert rep.identity_ok and rep.total == 4
    assert [(r.shape.parts, r.weyl_dim, r.f) for r in rep.rows] == [((2,), 3, 1), ((1, 1), 1, 1)]
    rep = decomposition_report(3, 3, GEN)
    assert rep.identity_ok and rep.total == 27
    assert [(r.shape.parts, r.weyl_dim, r.f) for r in rep.rows] == [
        ((3,), 10, 1), ((2, 1), 8, 2), ((1, 1, 1), 1, 1)]
    rep = decomposition_report(2, 4, GEN)
    assert rep.identity_ok and rep.total == 16
    assert [(r.shape.parts, r.weyl_dim, r.f) for r in rep.rows] == [
        ((4,), 5, 1), ((3, 1), 3, 3), ((2, 2), 1, 2)]
    d = rep.to_json_dict()
    assert d["total"] == 16 and d["identity_ok"] is True
    assert d["shapes"][0] == {
        "shape": [4], "weyl_dim": 5, "f": 1, "walks": 1,
        "all_maximal": True, "gram_diagonal": True}


def test_root_vector_reports():
    rep = root_vector_check(P((1,)), 2, GEN)
    assert rep.ok and len(rep.entries) == 1
    assert rep.entries[0][2].terms == {(1,): GEN.one()}
    rep = root_vector_check(P((2, 1, 0)), 3, GEN)
    assert rep.ok
    assert rep.weights == [(-1, 1, 0), (-1, 0, 1), (0, -1, 1)]
    staircase = P((3, 2, 1, 0))
    rep = root_vector_check(staircase, 4, GEN)
    assert rep.ok and len(rep.entries) == 4 * 3 // 2
    with pytest.raises(ValueError):
        root_vector_check(P((2, 2)), 3, GEN)
    # refused up front, as specht_matrices does, before any walk is built
    with pytest.raises(ValueError, match="^3,2,1 has more than 2 rows$"):
        root_vector_check(P((3, 2, 1)), 2, GEN)


def _sympy_rank(rows: list[dict]) -> int:
    keys, q = sorted({k for row in rows for k in row}), sympy.Symbol("q")
    laurent = lambda p: sympy.Add(*(c * q**e for e, c in p.terms().items()))
    entry = lambda c: (sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction)
                       else laurent(c.num) / laurent(c.den))
    return sympy.Matrix([[entry(row[k]) if k in row else 0 for k in keys] for row in rows]).rank(simplify=True)


@pytest.mark.parametrize("field", [GEN, ScalarField.at("3/2"), ScalarField.at("-2/5")], ids=str)
def test_rank_eliminates_dependent_and_overlapping_rows(field):
    # rows that share pivots and keys, and rows that are combinations of
    # earlier ones, so the elimination step runs and some rows reduce to zero
    one, q, qint = field.one(), field.q_power, field.qint
    b1, b2, b3 = {1: q(1), 2: one}, {1: one, 3: qint(2)}, {2: qint(3), 4: q(-2), 5: one}
    comb = lambda *pairs: lincomb(pairs, one)
    rows = [b1, b2, comb((qint(2), b1), (q(1), b2)), b3, comb((one, b2), (-q(-1), b3)),
            {1: one, 2: one, 3: one, 4: one, 5: one}, comb((q(2), b1), (one, b3), (-qint(3), b2)), {5: qint(2)}]
    prefixes = [rows[:k] for k in range(len(rows) + 1)]
    assert [dualcheck._rank(p, one) for p in prefixes] == [_sympy_rank(p) for p in prefixes]
    assert dualcheck._rank(rows, one) == 5 < len(rows)
    assert dualcheck._rank(rows[::-1], one) == 5


@settings(max_examples=40, deadline=None)
@given(st.lists(st.dictionaries(st.integers(1, 4), st.integers(-2, 2).filter(bool), max_size=4), max_size=6))
def test_rank_of_small_integer_rows_matches_sympy(rows):
    rows = [{k: Fraction(c) for k, c in row.items()} for row in rows]
    assert dualcheck._rank(rows, Fraction(1)) == _sympy_rank(rows)


def test_root_vector_check_builds_the_first_walk(monkeypatch):
    # the walk filling row 1, then row 2, ... is the first one enumerate_walks lists
    built, build = [], dualcheck.build_c_pi
    monkeypatch.setattr(dualcheck, "build_c_pi", lambda walk, field, n: built.append(walk) or build(walk, field, n))
    shapes = [(n, lam) for n in (2, 3, 4) for r in range(8) for lam in partitions_in(n, r)
              if all(lam.row(j) > lam.row(j + 1) for j in range(1, n))]
    for n, lam in shapes:
        assert root_vector_check(lam, n, GEN).ok
    assert built == [enumerate_walks(n, lam.size, lam)[0] for n, lam in shapes] and len(shapes) == 29


def test_verify_suite_passes():
    rep = verify_suite(2, 3, GEN)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "maximality" in names and "orthogonality" in names
    d = rep.to_json_dict()
    assert d["ok"] is True and len(d["checks"]) == len(rep.checks)


@pytest.mark.parametrize("field", [GEN, ScalarField.at(Fraction(3, 2))], ids=["generic", "q0"])
def test_tensor_power_memory_is_linear_in_r(field):
    # K_1 at n = 1 is q^r on the one index of length r; its product is kept
    # once per letter content, not once per suffix of the sorted index (a
    # suffix memo holds about r^2/2 letters, 16 MB at r = 2000)
    words = dualcheck._Words(field, 1, 2000)
    tracemalloc.start()
    try:
        form = dualcheck._tensor_power(words, (apply_K, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert form == (field.q_power(2000), {1: field.one()})
    assert peak < 1_000_000


def test_verify_suite_specialized():
    rep = verify_suite(2, 3, ScalarField.at(Fraction(-5)))
    assert rep.ok


@pytest.mark.parametrize("q0", ["2", "3/2", "-5", "7/3"])
def test_cleared_pairings_specialize(q0):
    # Gram diagonals and Specht matrices from cleared pairings on the generic
    # field, evaluated at q0, equal the ones computed at q0
    spec = ScalarField.at(q0)
    generic, records = gram_check(maximal_basis(3, 4, GEN)), maximal_basis(3, 4, spec)
    diagonal = gram_check(records).diagonal
    assert [specialize(d, q0) for d in generic.diagonal] == diagonal
    assert [norm_predict(rec.walk, spec) for rec in records] == diagonal  # and the closed-form norms at q0
    for lam in partitions_in(3, 4):
        gdata, sdata = specht_matrices(lam, 3, 4, GEN), specht_matrices(lam, 3, 4, spec)
        assert [specialize(c, q0) for c in gdata.gram_diagonal] == sdata.gram_diagonal
        assert [[[specialize(c, q0) for c in row] for row in M] for M in gdata.t_matrices] == sdata.t_matrices


@pytest.mark.parametrize("q0", ["3/2", "-2/5"])
def test_q0_readers_take_walk_vectors_as_stored(q0, monkeypatch):
    # at q0 a walk vector's numerator ring is the pairing ring, so the Gram
    # check, the norms, the Specht matrices and the rendering read the built
    # (D, numerators) as they are and never divide them into the field
    field, n, r = ScalarField.at(q0), 3, 5
    shapes = partitions_in(n, r)
    gram = gram_check(maximal_basis(n, r, field))
    specht = [(d.gram_diagonal, d.t_matrices) for d in (specht_matrices(lam, n, r, field) for lam in shapes)]
    plain = [TensorVector(field, n, r, rec.vector.coeffs) for rec in maximal_basis(n, r, field)]

    def divided(v):
        raise AssertionError("a walk vector was divided into the field")

    held = TensorVector.coeffs.fget
    monkeypatch.setattr(TensorVector, "coeffs", property(lambda v: divided(v) if v._coeffs is None else held(v)))
    records = maximal_basis(n, r, field)
    assert gram_check(records) == gram
    assert [bilinear(rec.vector, rec.vector) for rec in records] == gram.diagonal
    assert [(d.gram_diagonal, d.t_matrices) for d in (specht_matrices(lam, n, r, field) for lam in shapes)] == specht
    assert [vector_to_json_dict(rec.vector) for rec in records] == [vector_to_json_dict(v) for v in plain]
    assert [format_vector(rec.vector) for rec in records] == [format_vector(v) for v in plain]


# -- relation suites can fail ---------------------------------------------------

FIELDS = [GEN, ScalarField.at(Fraction(3, 2))]


def _skewed(real, hit=lambda idx: idx[0] == 1):
    """The action, with a stray factor q on the image of every basis vector
    whose index satisfies ``hit`` (by default: first letter 1); still linear,
    so it is the same map however the suite splits its inputs."""

    def action(i, v, **options):
        out = TensorVector.zero(v.field, v.n, v.r)
        for idx, c in v.coeffs.items():
            image = real(i, TensorVector.basis(v.field, v.n, idx), **options).scale(c)
            if hit(idx):
                image = image.scale(v.field.q_power(1))
            out = out + image
        return out

    return action


def exhaustive_quantum_relations(n, r, field):
    """Oracle for ``check_quantum_relations``: the U1-U7 relations applied
    directly, without tables, to all n^r basis vectors, through the actions
    ``dualcheck`` holds when called.  Returns {check name: verdict}."""
    E = {i: partial(dualcheck.apply_E, i) for i in range(1, n)}
    F = {i: partial(dualcheck.apply_F, i) for i in range(1, n)}
    K = {i: partial(dualcheck.apply_K, i) for i in range(1, n + 1)}
    K_inv = {i: partial(dualcheck._apply_K_inverse, i) for i in range(1, n + 1)}
    q = field.q_power
    ok = dict.fromkeys(["U1", "U2", "U3", "U4", "U5", "U6", "U7"], True)
    for idx in itertools.product(range(1, n + 1), repeat=r):
        v = TensorVector.basis(field, n, idx)

        def w(*ops):
            out = v
            for op in reversed(ops):
                out = op(out)
            return out

        for i in range(1, n + 1):
            ok["U1"] &= w(K[i], K_inv[i]) == v
            ok["U1"] &= all(w(K[i], K[j]) == w(K[j], K[i]) for j in range(1, n + 1))
            for j in range(1, n):
                h = (i == j) - (i == j + 1)
                ok["U3"] &= w(K[i], E[j]) == w(E[j], K[i]).scale(q(h))
                ok["U3"] &= w(K[i], F[j]) == w(F[j], K[i]).scale(q(-h))
        for i in range(1, n):
            for j in range(1, n):
                rhs = w(F[j], E[i])
                if i == j:
                    rhs = rhs + v.scale(field.qint(idx.count(i) - idx.count(i + 1)))
                ok["U2"] &= w(E[i], F[j]) == rhs
                for X, serre, far in ((E, "U4", "U5"), (F, "U6", "U7")):
                    if abs(i - j) == 1:
                        ok[serre] &= (w(X[i], X[i], X[j]) + w(X[j], X[i], X[i])
                                      == w(X[i], X[j], X[i]).scale(q(1) + q(-1)))
                    elif abs(i - j) > 1:
                        ok[far] &= w(X[i], X[j]) == w(X[j], X[i])
    return ok


def exhaustive_hecke_relations(n, r, field):
    """Oracle for ``check_hecke_relations``: the quadratic relation with its
    support condition, the braid relation and far commutation applied
    directly to all n^r basis vectors.  Returns {row name: verdict}."""
    T = {i: partial(dualcheck.apply_T, i) for i in range(1, r)}
    qdiff = field.q_power(1) - field.q_power(-1)
    ok = dict.fromkeys(["quadratic relation", "braid relation", "far commutation of transpositions"], True)
    for idx in itertools.product(range(1, n + 1), repeat=r):
        v = TensorVector.basis(field, n, idx)
        for i in T:
            image = T[i](v)
            swapped = idx[:i - 1] + (idx[i], idx[i - 1]) + idx[i + 1:]
            ok["quadratic relation"] &= (bool(image.coeffs.get(swapped)) and image.coeffs.keys() <= {idx, swapped}
                                         and T[i](image) == image.scale(qdiff) + v)
            if i + 1 in T:
                ok["braid relation"] &= T[i](T[i + 1](image)) == T[i + 1](T[i](T[i + 1](v)))
            for j in range(i + 2, r):
                ok["far commutation of transpositions"] &= T[i](T[j](v)) == T[j](image)
    return ok


def exhaustive_commuting_actions(n, r, field):
    """Oracle for ``check_commuting_actions``: K_j K_j^-1 = 1, and every E_j,
    F_j, K~_j and K_j against every T_i, applied directly to all n^r basis
    vectors.  Returns {row name: verdict}."""
    gens = [partial(getattr(dualcheck, name), j) for name in ("apply_E", "apply_F", "apply_tK") for j in range(1, n)]
    gens += [partial(dualcheck.apply_K, j) for j in range(1, n + 1)]
    ok = True
    for idx in itertools.product(range(1, n + 1), repeat=r):
        v = TensorVector.basis(field, n, idx)
        ok &= all(dualcheck.apply_K(j, dualcheck._apply_K_inverse(j, v)) == v for j in range(1, n + 1))
        for i in range(1, r):
            image = dualcheck.apply_T(i, v)
            ok &= all(g(image) == dualcheck.apply_T(i, g(v)) for g in gens)
    return {"commuting actions": ok}


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_verify_names_the_first_failing_walk(field, monkeypatch):
    real = dualcheck.maximal_basis
    passing = [(c.name, c.ok, c.detail) for c in verify_suite(2, 2, field).checks]
    assert passing[:3] == [("maximality", True, "2 walk vectors"), ("orthogonality", True, "2x2 Gram matrix"),
                           ("norm formula", True, "")]

    def corrupted(n, r, field, shape=None):
        # v[1,1] added to the vector of the walk [1,2]: mixed content, not
        # orthogonal to the vector v[1,1] of [1,1], and a larger norm
        records = real(n, r, field, shape)
        rec = records[1]
        vector = rec.vector + TensorVector.basis(field, n, (1, 1))
        records[1] = MaximalVectorRecord(walk=rec.walk, vector=vector, weight=rec.weight)
        return records

    monkeypatch.setattr(dualcheck, "maximal_basis", corrupted)
    rows = {c.name: c for c in verify_suite(2, 2, field).checks}
    walk = Walk((1, 2))
    predicted = norm_predict(walk, field)
    assert (rows["maximality"].ok, rows["maximality"].detail) == (False, "2 walk vectors; walk [1,2] is not maximal")
    assert (rows["orthogonality"].ok, rows["orthogonality"].detail) == (
        False, "2x2 Gram matrix; first violation at walks [1,1] and [1,2]")
    assert (rows["norm formula"].ok, rows["norm formula"].detail) == (
        False, f"walk [1,2]: Gram diagonal {predicted + field.one()}, closed form {predicted}")
    assert [(c.name, c.ok, c.detail) for c in rows.values()][3:] == passing[3:]


def _relation_rows(n, r, field):
    """{row name: verdict} of the Hecke and commuting suites, sharing tables
    as a battery does."""
    words = dualcheck._Words(field, n, r)
    rows = check_hecke_relations(n, r, field, words=words) + [check_commuting_actions(n, r, field, words=words)]
    assert all(c.detail == "" for c in rows if c.ok)
    return {c.name: c.ok for c in rows}


def _exhaustive_rows(n, r, field):
    return {**exhaustive_hecke_relations(n, r, field), **exhaustive_commuting_actions(n, r, field)}


def _quantum_verdicts(n, r, field):
    """{U1..U7: verdict} of the quantum suite, keyed as the oracle's."""
    rows = check_quantum_relations(n, r, field)
    assert all(c.detail == "" for c in rows if c.ok)
    return {c.name.split()[0]: c.ok for c in rows}


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_true_actions_give_the_exhaustive_quantum_verdicts(field):
    for n, r in [(1, 3), (2, 4), (3, 3), (4, 2)]:
        rows = check_quantum_relations(n, r, field)
        exhaustive = exhaustive_quantum_relations(n, r, field)
        assert [c.name.split()[0] for c in rows] == list(exhaustive)
        assert [c.ok for c in rows] == list(exhaustive.values()) == [True] * 7


def _fallbacks(monkeypatch):
    """The list that (row name, pair label) is appended to for every pair
    that reaches ``_decide``, to be compared on the n^r vectors: a row lists
    only the pairs that no local lemma proves."""
    decide, fallbacks = dualcheck._decide, []

    def spy(w, name, pairs):
        pairs = list(pairs)
        fallbacks.extend((name, label) for label, _ in pairs)
        return decide(w, name, pairs)

    monkeypatch.setattr(dualcheck, "_decide", spy)
    return fallbacks


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
@pytest.mark.parametrize("n,r", [(1, 3), (2, 2), (2, 4), (3, 3), (4, 3), (3, 1), (3, 0)])
def test_local_suites_pass_without_a_scan(n, r, field, monkeypatch):
    # the true actions meet every premise and every local lemma, so no pair
    # reaches _decide unproved, which would compare words on the n^r vectors;
    # at r <= 1 this reads K_j and K_j^-1 as tensor powers of degree 0 and 1,
    # and U1-U7 are proved on the tensor power's own tables
    words, fallbacks = dualcheck._Words(field, n, r), _fallbacks(monkeypatch)
    rows = (check_quantum_relations(n, r, field, words=words) + check_hecke_relations(n, r, field, words=words)
            + [check_commuting_actions(n, r, field, words=words)])
    assert [(c.ok, c.detail) for c in rows] == [(True, "")] * 11 and fallbacks == []
    assert all(_exhaustive_rows(n, r, field).values())
    assert all(exhaustive_quantum_relations(n, r, field).values())


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
@pytest.mark.parametrize("n,r", [(1, 40), (3, 0), (3, 4), (5, 2)])
def test_passing_batteries_hand_decide_no_pair(n, r, field, monkeypatch):
    # a row lists only the pairs that no local lemma proves, so a passing
    # battery builds no label and no test for a proved pair
    fallbacks = _fallbacks(monkeypatch)
    report = dualcheck.verify_suite(n, r, field)
    assert report.ok and len(report.checks) == 15 and fallbacks == []


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
@pytest.mark.parametrize("n,r", [(3, 3), (4, 5), (1, 40)])
def test_passing_suites_keep_no_tables(n, r, field):
    # the premises read each generator's images one at a time and keep
    # none; tabulating all 4^5 images of the 21 generators at (4, 5) takes
    # about 5.5 MB
    words = dualcheck._Words(field, n, r)
    tracemalloc.start()
    try:
        rows = (check_quantum_relations(n, r, field, words=words) + check_hecke_relations(n, r, field, words=words)
                + [check_commuting_actions(n, r, field, words=words)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.ok for c in rows) and words.tables == {}
    assert peak < 1_000_000


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
@pytest.mark.parametrize("n,r", [(3, 3), (2, 4)])
def test_local_suites_give_the_exhaustive_verdicts_under_skews(n, r, field, monkeypatch):
    """Single-site skews: a stray q on the images of basis vectors with one
    letter at one position, in each action the suites tabulate.  Every row of
    the quantum, Hecke and commuting suites equals the exhaustive oracle's."""
    failing = 0
    for name in ("apply_E", "apply_F", "apply_K", "apply_tK", "apply_T", "_apply_K_inverse"):
        real = getattr(dualcheck, name)
        for pos in range(r):
            for letter in range(1, n + 1):
                monkeypatch.setattr(dualcheck, name, _skewed(real, lambda idx: idx[pos] == letter))
                rows = _relation_rows(n, r, field)
                assert rows == _exhaustive_rows(n, r, field), (name, pos, letter)
                assert _quantum_verdicts(n, r, field) == exhaustive_quantum_relations(n, r, field), (name, pos, letter)
                failing += not all(rows.values())
        monkeypatch.setattr(dualcheck, name, real)
    assert failing == 6 * r * n


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_single_index_skews_give_the_exhaustive_rows(field, monkeypatch):
    """A stray q on the image of one basis vector, in each action the suites
    tabulate: each suite, run alone, gives its oracle's verdict row by row."""
    n, r = 2, 3
    failing = set()
    for name in ("apply_E", "apply_F", "apply_K", "apply_tK", "apply_T", "_apply_K_inverse"):
        real = getattr(dualcheck, name)
        for target in itertools.product(range(1, n + 1), repeat=r):
            monkeypatch.setattr(dualcheck, name, _skewed(real, lambda idx: idx == target))
            quantum = _quantum_verdicts(n, r, field)
            assert quantum == exhaustive_quantum_relations(n, r, field), (name, target)
            hecke = {c.name: c.ok for c in check_hecke_relations(n, r, field)}
            assert hecke == exhaustive_hecke_relations(n, r, field), (name, target)
            commuting = check_commuting_actions(n, r, field)
            assert {commuting.name: commuting.ok} == exhaustive_commuting_actions(n, r, field), (name, target)
            verdicts = {"quantum": all(quantum.values()), "Hecke": all(hecke.values()), "commuting": commuting.ok}
            failing |= {suite for suite, ok in verdicts.items() if not ok}
        monkeypatch.setattr(dualcheck, name, real)
    assert failing == {"quantum", "Hecke", "commuting"}


def _conjugated_T2(real):
    """T_2 conjugated by the diagonal q^(first letter * second letter): a
    Hecke generator still, but its image depends on slot 1."""

    def apply_T(i, v):
        if i != 2:
            return real(i, v)
        f = v.field

        def weight(idx, sign):
            return f.q_power(sign * idx[0] * idx[1])

        out = real(i, TensorVector(f, v.n, v.r, {idx: c * weight(idx, -1) for idx, c in v.coeffs.items()}))
        return TensorVector(f, v.n, v.r, {idx: c * weight(idx, 1) for idx, c in out.coeffs.items()})

    return apply_T


def _nilpotent_K1(real):
    """K_1 + N, where N moves the letter 1 in slot 1 to 2, and K_1^-1 the
    inverse of that sum, K_1^-1 - K_1^-1 N K_1^-1 (as N^2 = 0): not
    diagonal, yet K_1 K_1^-1 = 1."""

    def N(v):
        return TensorVector(v.field, v.n, v.r, {(2,) + idx[1:]: c for idx, c in v.coeffs.items() if idx[0] == 1})

    def apply_K(j, v, inverse=False):
        out = real(j, v, inverse=inverse)
        if j != 1:
            return out
        return out - real(1, N(out), inverse=True) if inverse else out + N(v)

    return apply_K


def _broken_premises(n, r, field):
    """The generators whose local form the suites cannot use."""
    words = dualcheck._Words(field, n, r)
    broken = {f"T_{i}" for i in range(1, r) if dualcheck._two_site(words, (dualcheck.apply_T, i)) is None}
    broken |= {f"{x}_{j}" for x in ("E", "F") for j in range(1, n)
               if dualcheck._coproduct_form(words, (getattr(dualcheck, "apply_" + x), j)) is None}
    broken |= {f"{x}_{j}" for x, action, m in (("K~", dualcheck.apply_tK, n - 1), ("K", dualcheck.apply_K, n))
               for j in range(1, m + 1) if dualcheck._tensor_power(words, (action, j)) is None}
    return broken


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
@pytest.mark.parametrize("n,r", [(3, 3), (2, 4), (3, 4)])
@pytest.mark.parametrize("mutant", ["T_2 reads slot 1", "E off its coproduct", "K_1 not diagonal"])
def test_a_broken_premise_falls_back_to_the_exhaustive_verdicts(mutant, n, r, field, monkeypatch):
    assert _broken_premises(n, r, field) == set()
    if mutant == "T_2 reads slot 1":
        monkeypatch.setattr(dualcheck, "apply_T", _conjugated_T2(dualcheck.apply_T))
        broken = "T_2"
    elif mutant == "E off its coproduct":
        unsorted = (n,) + (1,) * (r - 1)
        monkeypatch.setattr(dualcheck, "apply_E", _skewed(dualcheck.apply_E, lambda idx: idx == unsorted))
        broken = f"E_{n - 1}"
    else:
        monkeypatch.setattr(dualcheck, "apply_K", _nilpotent_K1(dualcheck.apply_K))
        broken = "K_1"
    assert _broken_premises(n, r, field) == {broken}
    assert _relation_rows(n, r, field) == _exhaustive_rows(n, r, field)


def _non_power_K1(real):
    """K_1 with a stray q on the basis vectors whose first two letters are 1:
    still diagonal, but not c k⊗...⊗k; K_1^-1 is left as it is."""

    def apply_K(j, v, inverse=False):
        out = real(j, v, inverse=inverse)
        if j != 1 or inverse:
            return out
        q = v.field.q_power(1)
        return TensorVector(v.field, v.n, v.r, {idx: c * q if idx[:2] == (1, 1) else c for idx, c in out.coeffs.items()})

    return apply_K


def _squared_grouplike_E1(real):
    """E_1 as the iterated coproduct of the one-site e_1 with K~_1^2 in place
    of K~_1."""

    def apply_E(i, v):
        if i != 1:
            return real(i, v)
        f = v.field
        return tensorspace._apply(v, tensorspace._coproduct(2, 1, lambda e: f.q_power(2 * e)))

    return apply_E


def _broken_quantum_premises(n, r, field):
    """The premises of the quantum suite's reduction to V that fail: K_j or
    K_j^-1 not c k⊗...⊗k (with k(j mod n + 1) = 1), the two scalars c of K_j
    and K_j^-1 not inverse ("c_j"), E_j or F_j off its coproduct form, or its
    grouplike not K~_j = q^(δ(a,j) - δ(a,j+1)) (K~_j^-1 for F_j)."""
    words, q, letters = dualcheck._Words(field, n, r), field.q_power, range(1, n + 1)
    k = {(x, j): dualcheck._tensor_power(words, (action, j))
         for x, action in (("K", dualcheck.apply_K), ("K^-1", dualcheck._apply_K_inverse)) for j in letters}
    broken = {f"{x}_{j}" for (x, j), form in k.items() if form is None}
    broken |= {f"c_{j}" for j in letters
               if None not in (k["K", j], k["K^-1", j]) and k["K", j][0] * k["K^-1", j][0] != field.one()}
    for x, sign in (("E", 1), ("F", -1)):
        for j in range(1, n):
            form = dualcheck._coproduct_form(words, (getattr(dualcheck, "apply_" + x), j))
            if form is None:
                broken.add(f"{x}_{j}")
            elif form[1] != {a: q(sign * ((a == j) - (a == j + 1))) for a in letters}:
                broken.add(f"grouplike of {x}_{j}")
    return broken


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
@pytest.mark.parametrize("n,r", [(3, 3), (2, 4), (3, 4)])
@pytest.mark.parametrize("mutant", ["K_1 not a tensor power", "K_1 doubled", "E_1 with grouplike K~_1^2"])
def test_a_broken_quantum_premise_falls_back_to_the_exhaustive_verdicts(mutant, n, r, field, monkeypatch):
    assert _broken_quantum_premises(n, r, field) == set()
    real = dualcheck.apply_K
    if mutant == "K_1 not a tensor power":
        monkeypatch.setattr(dualcheck, "apply_K", _non_power_K1(real))
        broken = "K_1"
    elif mutant == "K_1 doubled":
        # 2 K_1 is 2 k_1⊗...⊗k_1, but K_1^-1 no longer inverts it
        two = field.from_int(2)
        monkeypatch.setattr(dualcheck, "apply_K", lambda j, v, inverse=False: real(j, v, inverse).scale(
            two if j == 1 and not inverse else field.one()))
        broken = "c_1"
    else:
        monkeypatch.setattr(dualcheck, "apply_E", _squared_grouplike_E1(dualcheck.apply_E))
        broken = "grouplike of E_1"
    assert _broken_quantum_premises(n, r, field) == {broken}
    # a K_j that is not a tensor power is a broken commuting premise as well
    assert _broken_premises(n, r, field) == ({"K_1"} if mutant == "K_1 not a tensor power" else set())
    verdicts = _quantum_verdicts(n, r, field)
    assert verdicts == exhaustive_quantum_relations(n, r, field) and not all(verdicts.values())


def _K1_moved_at_b(real, off_diagonal):
    """K_1 with its image of v[b,...,b] (b = 2, where the true K_1 is 1)
    taken out, or with v[1,...,1] added to that image."""

    def apply_K(j, v, inverse=False):
        out, c = real(j, v, inverse=inverse), v.coeffs.get((2,) * v.r)
        if j != 1 or inverse or c is None:
            return out
        return out + TensorVector(v.field, v.n, v.r, {(1,) * v.r: c} if off_diagonal else {(2,) * v.r: -c})

    return apply_K


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
@pytest.mark.parametrize("n,r", [(2, 2), (3, 3), (2, 4)])
@pytest.mark.parametrize("off_diagonal", [False, True], ids=["no image at b", "off-diagonal at b"])
def test_K1_broken_at_b_is_no_tensor_power(off_diagonal, n, r, field, monkeypatch):
    # a zero eigenvalue c at (b,)*r, and a term off the diagonal there: each
    # makes _tensor_power give None, and the suites fall back to their oracles
    monkeypatch.setattr(dualcheck, "apply_K", _K1_moved_at_b(dualcheck.apply_K, off_diagonal))
    assert dualcheck._tensor_power(dualcheck._Words(field, n, r), (dualcheck.apply_K, 1)) is None
    rows, verdicts = _relation_rows(n, r, field), _quantum_verdicts(n, r, field)
    assert rows == _exhaustive_rows(n, r, field) and verdicts == exhaustive_quantum_relations(n, r, field)
    assert [*rows.values(), *verdicts.values()].count(False) == 3


def _install(monkeypatch, datum):
    """Replace apply_E, apply_F and apply_K by the actions of a one-site datum
    (e, f, k): E_j and F_j are the iterated coproducts of e_j and f_j (each a
    map letter -> {letter: integer coefficient}) with the grouplikes
    q^(±h_j), h_j(a) = δ(a,j) - δ(a,j+1), on the left of the slot for E_j and
    on its right for F_j; K_j is k_j⊗...⊗k_j with k_j(a) = q^k[j][a]."""
    e, f, k = datum

    def coproduct(ops, sign):
        def action(j, v):
            q, from_int = v.field.q_power, v.field.from_int
            h = lambda a: sign * ((a == j) - (a == j + 1))

            def rule(idx):
                return {idx[:s] + (b,) + idx[s + 1:]: from_int(x) * q(sum(map(h, idx[:s] if sign > 0 else idx[s + 1:])))
                        for s, a in enumerate(idx) for b, x in ops[j].get(a, {}).items()}

            return tensorspace._apply(v, rule)

        return action

    def apply_K(j, v, inverse=False):
        q = v.field.q_power
        return tensorspace._apply(v, lambda idx: {idx: q((-1 if inverse else 1) * sum(k[j][a] for a in idx))})

    for name, action in (("apply_E", coproduct(e, 1)), ("apply_F", coproduct(f, -1)), ("apply_K", apply_K)):
        monkeypatch.setattr(dualcheck, name, action)


def _twisted(n):
    """The twisted vector representation on n letters: e_j is the standard f_j
    (v_j to v_{j+1}), f_j is minus the standard e_j, and K_j and K_j^-1 are
    exchanged.  Its grouplikes are the true K~_j^{±1}, but k_j is not
    q^(δ(a,j) - δ(a,j+1)) k_{j+1}."""
    letters = range(1, n + 1)
    return ({j: {j: {j + 1: 1}} for j in letters[:-1]}, {j: {j + 1: {j: -1}} for j in letters[:-1]},
            {j: {a: -(a == j) for a in letters} for j in letters})


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
@pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_twisted_representation_is_decided_on_V(n, r, field, monkeypatch):
    # every relation holds on V^{⊗r}, and every premise the suite reads
    # holds, so the suite proves each pair on V and compares no words
    _install(monkeypatch, _twisted(n))
    assert _broken_quantum_premises(n, r, field) == set()
    fallbacks = _fallbacks(monkeypatch)
    verdicts = _quantum_verdicts(n, r, field)
    assert fallbacks == [] and verdicts == exhaustive_quantum_relations(n, r, field) and all(verdicts.values())


def _forced_k(n, e, f):
    """The k of a one-site datum as exponents (k_j(a) = q^k[j][a]) that U3 on
    V forces with k_j(j mod n + 1) = 1: an entry of e_j taking v_b to v_a sets
    k(a) = q^α_j k(b), α_j = ε_j - ε_{j+1}, and an entry of f_j q^-α_j.  None
    when the entries leave a letter unreached or contradict each other."""
    steps = {a: [] for a in range(1, n + 1)}
    for ops, sign in ((e, 1), (f, -1)):
        for j, op in ops.items():
            alpha = [sign * ((i == j) - (i == j + 1)) for i in range(1, n + 1)]
            for b, image in op.items():
                for a in image:
                    steps[b].append((a, alpha))
                    steps[a].append((b, [-x for x in alpha]))
    exponent, todo = {1: [0] * n}, [1]
    while todo:
        b = todo.pop()
        for a, alpha in steps[b]:
            p = [x + y for x, y in zip(exponent[b], alpha)]
            if a not in exponent:
                exponent[a] = p
                todo.append(a)
            elif exponent[a] != p:
                return None
    if len(exponent) < n:
        return None
    return {j: {a: p[j - 1] - exponent[j % n + 1][j - 1] for a, p in exponent.items()} for j in range(1, n + 1)}


def test_single_entry_data_that_pass_on_V_pass_on_tensor_powers(monkeypatch):
    """Every one-site datum at n = 3 whose e_j and f_j are each ±1 at one
    off-diagonal position, with the k forced by U3 on V: the 8 that pass the
    quantum suite on V (r = 1) are the standard and the twisted representation
    with signs, and at r = 2 and 3 each gets the oracle's verdicts with no
    pair compared on the n^r vectors."""
    n, field, letters = 3, FIELDS[1], range(1, 4)
    units = [{b: {a: x}} for a in letters for b in letters if a != b for x in (1, -1)]
    passing = []
    for e1, e2, f1, f2 in itertools.product(units, repeat=4):
        e, f = {1: e1, 2: e2}, {1: f1, 2: f2}
        k = _forced_k(n, e, f)
        if k is not None:
            _install(monkeypatch, (e, f, k))
            if all(c.ok for c in check_quantum_relations(n, 1, field)):
                passing.append((e, f, k))
    positions = sorted([(b, a) for op in e.values() for b, image in op.items() for a in image] for e, _, _ in passing)
    assert positions == [[(1, 2), (2, 3)]] * 4 + [[(2, 1), (3, 2)]] * 4
    fallbacks = _fallbacks(monkeypatch)
    for datum in passing:
        _install(monkeypatch, datum)
        for r in (2, 3):
            verdicts = _quantum_verdicts(n, r, field)
            assert verdicts == exhaustive_quantum_relations(n, r, field) and all(verdicts.values()), (datum, r)
    assert fallbacks == []


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
@pytest.mark.parametrize("n,r", [(3, 1), (3, 3), (2, 4)])
@pytest.mark.parametrize("mutant", ["K_1 doubled", "K_1^-1 is K_1"])
def test_inverse_grouplikes_are_decided_by_their_tensor_powers(mutant, n, r, field, monkeypatch):
    # K_1 and K_1^-1 stay scalars times tensor powers, but the scalars (2 and
    # 1) or the one-site eigenvalues at the letter 1 (q and q) no longer
    # multiply to one: the commuting suite fails as its oracle does
    real, two = dualcheck.apply_K, field.from_int(2)
    if mutant == "K_1 doubled":
        apply_K = lambda j, v, inverse=False: real(j, v, inverse).scale(two if j == 1 and not inverse else field.one())
    else:
        apply_K = lambda j, v, inverse=False: real(j, v, inverse and j != 1)
    monkeypatch.setattr(dualcheck, "apply_K", apply_K)
    rows = _relation_rows(n, r, field)
    assert rows == _exhaustive_rows(n, r, field) and rows["commuting actions"] is False


def _first_residual(field, n, r, lhs, rhs):
    """'v[idx]: residual ...' at the first index where two maps of basis
    vectors differ, computed directly."""
    for idx in itertools.product(range(1, n + 1), repeat=r):
        v = TensorVector.basis(field, n, idx)
        if lhs(v) != rhs(v):
            return f"v[{','.join(map(str, idx))}]: residual {lhs(v) - rhs(v)}"


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_failing_rows_name_their_first_witness(field, monkeypatch):
    monkeypatch.setattr(dualcheck, "apply_T", _skewed(dualcheck.apply_T))
    T1, T2 = partial(dualcheck.apply_T, 1), partial(dualcheck.apply_T, 2)
    quadratic, braid, far = check_hecke_relations(3, 3, field)
    # at v[1,1,1] the skewed T_1 is q^2, so T_1^2 - (q - q^-1) T_1 - 1 = q^4 - q^3 + q - 1
    q = field.q_power(1)
    residual = TensorVector.basis(field, 3, (1, 1, 1)).scale(q * q * q * q - q * q * q + q - field.one())
    assert quadratic.detail == f"T_1^2 - (q - q^-1) T_1 - 1 at v[1,1,1]: residual {residual}"
    assert braid.detail == "T_1 T_2 T_1 - T_2 T_1 T_2 at " + _first_residual(
        field, 3, 3, lambda v: T1(T2(T1(v))), lambda v: T2(T1(T2(v))))
    assert far.ok and far.detail == ""
    # the commuting row's witness is its first failing pair in the suite's
    # order (K_j K_j^-1 for each j, then E, F, K~ and K against T_1, ...)
    E1 = partial(dualcheck.apply_E, 1)
    assert all(exhaustive_commuting_actions(3, 3, field).values()) is False
    assert check_commuting_actions(3, 3, field).detail == "[E_1, T_1] at " + _first_residual(
        field, 3, 3, lambda v: E1(T1(v)), lambda v: T1(E1(v)))


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_failing_quantum_rows_name_their_first_witness(field, monkeypatch):
    # a skewed F breaks its coproduct form, so the rows fall back to all n^r
    # index vectors; each names its first failing pair there
    monkeypatch.setattr(dualcheck, "apply_F", _skewed(dualcheck.apply_F))
    E1, F1, F2 = partial(dualcheck.apply_E, 1), partial(dualcheck.apply_F, 1), partial(dualcheck.apply_F, 2)
    q = field.q_power

    def commutator_rhs(v):
        (idx,) = v.coeffs
        return F1(E1(v)) + v.scale(field.qint(idx.count(1) - idx.count(2)))

    rows = {c.name.split()[0]: c for c in check_quantum_relations(3, 3, field)}
    assert [name for name, c in rows.items() if not c.ok] == ["U2", "U6"]
    assert rows["U2"].detail == "[E_1, F_1] - [m_1 - m_2] at " + _first_residual(
        field, 3, 3, lambda v: E1(F1(v)), commutator_rhs)
    assert rows["U6"].detail == "F_1^2 F_2 - (q + q^-1) F_1 F_2 F_1 + F_2 F_1^2 at " + _first_residual(
        field, 3, 3, lambda v: F1(F1(F2(v))) + F2(F1(F1(v))), lambda v: F1(F2(F1(v))).scale(q(1) + q(-1)))


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_raising_pair_needs_the_grouplike_condition(field, monkeypatch):
    # T_1 := Δ(E_1) on slots (1, 2) commutes with Δ(E_1) on V⊗V but not with
    # K~_1⊗K~_1, and E_1 acts on slot 3 too, so [E_1, T_1] != 0 at r = 3: it
    # is the first failing pair, ahead of [F_1, T_1]
    real = dualcheck.apply_T

    def apply_T(i, v):
        if i != 1:
            return real(i, v)
        out = TensorVector.zero(field, v.n, v.r)
        for idx, c in v.coeffs.items():
            local = apply_E(1, TensorVector.basis(field, v.n, idx[:2]))
            out = out + TensorVector(field, v.n, v.r, {k + idx[2:]: x * c for k, x in local.coeffs.items()})
        return out

    monkeypatch.setattr(dualcheck, "apply_T", apply_T)
    E1, T1 = partial(dualcheck.apply_E, 1), partial(dualcheck.apply_T, 1)
    assert check_commuting_actions(2, 3, field).detail == "[E_1, T_1] at " + _first_residual(
        field, 2, 3, lambda v: E1(T1(v)), lambda v: T1(E1(v)))


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
@pytest.mark.parametrize("n,r", [(2, 2), (3, 3), (2, 4)])
def test_diagonal_pairs_need_their_one_site_factors_to_commute_with_R(n, r, field, monkeypatch):
    # E_j and F_j act as zero, so their pairs hold; T_i followed by swapping
    # the letters 1 and 2 in slot i is still a two-site matrix, but it moves
    # letter content: the one-site factors k⊗k of K~_j and K_j no longer
    # commute with R^(i), and the row fails as its oracle does
    real = dualcheck.apply_T

    def apply_T(i, v):
        swap = {1: 2, 2: 1}
        return TensorVector(v.field, v.n, v.r, {idx[:i - 1] + (swap.get(idx[i - 1], idx[i - 1]),) + idx[i:]: c
                                                for idx, c in real(i, v).coeffs.items()})

    zero = lambda i, v: TensorVector.zero(v.field, v.n, v.r)
    monkeypatch.setattr(dualcheck, "apply_E", zero)
    monkeypatch.setattr(dualcheck, "apply_F", zero)
    monkeypatch.setattr(dualcheck, "apply_T", apply_T)
    assert _broken_premises(n, r, field) == {f"{x}_{j}" for x in "EF" for j in range(1, n)}
    row = check_commuting_actions(n, r, field)
    assert {row.name: row.ok} == exhaustive_commuting_actions(n, r, field) == {"commuting actions": False}
    assert row.detail.startswith("[K~_1, T_1] at ")


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_support_failure_names_the_image(field, monkeypatch):
    monkeypatch.setattr(dualcheck, "apply_T", lambda i, v: v.scale(field.q_power(1)))
    quadratic = check_hecke_relations(2, 2, field)[0]
    assert quadratic.detail == ("T_1^2 - (q - q^-1) T_1 - 1 at v[1,2]: image "
                                f"{TensorVector.basis(field, 2, (1, 2)).scale(field.q_power(1))}"
                                " is not on v[1,2] and v[2,1] with a nonzero v[2,1] term")


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
@pytest.mark.parametrize("name", ["apply_E", "_apply_K_inverse"])
def test_skew_on_an_unsorted_tuple_fails_commuting_actions(name, field, monkeypatch):
    # no relation word on a sorted tuple meets v[3,2,1] as an input of E or
    # K^-1; the quantum suite compares words on all n^r vectors, so it fails
    # the rows the skew breaks on its own, as the commuting suite does
    monkeypatch.setattr(dualcheck, name, _skewed(getattr(dualcheck, name), lambda idx: idx == (3, 2, 1)))
    assert check_commuting_actions(3, 3, field).ok is False
    verdicts = _quantum_verdicts(3, 3, field)
    assert verdicts == exhaustive_quantum_relations(3, 3, field)
    failing = {"apply_E": ["U2", "U4"], "_apply_K_inverse": ["U1"]}[name]
    assert [row for row, ok in verdicts.items() if not ok] == failing


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_grouplike_skew_with_matching_inverse_fails_commuting_actions(field, monkeypatch):
    # K_j and K_j^-1 stay inverse to each other, and K never meets v[3,2,1] in
    # a relation word on a sorted tuple: the quantum suite fails U3 on its own,
    # and K_j against the T_i catches it too
    real = dualcheck.apply_K

    def apply_K(j, v, inverse=False):
        stray = field.q_power(-1 if inverse else 1)
        out = real(j, v, inverse=inverse).coeffs
        return TensorVector(field, v.n, v.r, {idx: c * stray if idx == (3, 2, 1) else c for idx, c in out.items()})

    monkeypatch.setattr(dualcheck, "apply_K", apply_K)
    assert check_commuting_actions(3, 3, field).ok is False
    verdicts = _quantum_verdicts(3, 3, field)
    assert verdicts == exhaustive_quantum_relations(3, 3, field)
    assert [row for row, ok in verdicts.items() if not ok] == ["U3"]


def _relabel_first(v):
    """Swap the letters 1 and 2 in the first tensor slot (an involution)."""
    swap = {1: 2, 2: 1}
    return TensorVector(v.field, v.n, v.r,
                        {(swap.get(idx[0], idx[0]),) + idx[1:]: c for idx, c in v.coeffs.items()})


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_leaking_transposition_fails_quadratic_relation(field, monkeypatch):
    # a conjugate of the T action still satisfies every Hecke relation, but
    # T_1 v[1,3] = v[3,2] + (q - 1/q) v[1,3] leaves the span of v[1,3], v[3,1]
    real = dualcheck.apply_T
    monkeypatch.setattr(dualcheck, "apply_T", lambda i, v: _relabel_first(real(i, _relabel_first(v))))
    verdicts = {c.name: c.ok for c in check_hecke_relations(3, 3, field)}
    assert verdicts == {"quadratic relation": False, "braid relation": True,
                        "far commutation of transpositions": True}


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_scalar_transposition_fails_quadratic_relation(field, monkeypatch):
    # T_i = q satisfies every Hecke relation and commutes with everything, so
    # a skew of E on v[3,2,1] slips past the commuting suite; the quantum
    # suite fails it on its own, and the quadratic row misses the nonzero
    # coefficient on s_i idx
    monkeypatch.setattr(dualcheck, "apply_T", lambda i, v: v.scale(field.q_power(1)))
    monkeypatch.setattr(dualcheck, "apply_E", _skewed(dualcheck.apply_E, lambda idx: idx == (3, 2, 1)))
    verdicts = _quantum_verdicts(3, 3, field)
    assert verdicts == exhaustive_quantum_relations(3, 3, field)
    assert [row for row, ok in verdicts.items() if not ok] == ["U2", "U4"]
    assert check_commuting_actions(3, 3, field).ok
    verdicts = {c.name: c.ok for c in check_hecke_relations(3, 3, field)}
    assert verdicts == {"quadratic relation": False, "braid relation": True,
                        "far commutation of transpositions": True}


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_quantum_relations_detect_skewed_lowering(field, monkeypatch):
    assert all(c.ok for c in check_quantum_relations(3, 3, field))
    monkeypatch.setattr(dualcheck, "apply_F", _skewed(dualcheck.apply_F))
    verdicts = {c.name: c.ok for c in check_quantum_relations(3, 3, field)}
    assert verdicts["U2 raise/lower commutator"] is False
    assert verdicts["U6 lowering Serre"] is False
    assert verdicts["U4 raising Serre"] is True


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_hecke_and_commuting_detect_skewed_transposition(field, monkeypatch):
    assert all(c.ok for c in check_hecke_relations(3, 3, field))
    assert check_commuting_actions(3, 3, field).ok
    monkeypatch.setattr(dualcheck, "apply_T", _skewed(dualcheck.apply_T))
    verdicts = {c.name: c.ok for c in check_hecke_relations(3, 3, field)}
    assert verdicts["quadratic relation"] is False
    assert verdicts["braid relation"] is False
    assert check_commuting_actions(3, 3, field).ok is False


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_specht_matrices_detect_skewed_transposition(field, monkeypatch):
    monkeypatch.setattr(dualcheck, "apply_T", _skewed(dualcheck.apply_T))
    with pytest.raises(SpechtConsistencyError,
                       match=r"T_1 image of walk \[1,1,2\] does not match the seminormal form at shape 2,1"):
        specht_matrices(P((2, 1)), 3, 3, field)


def test_specht_command_reports_the_failing_shape(monkeypatch, capsys):
    monkeypatch.setattr(dualcheck, "apply_T", _skewed(dualcheck.apply_T))
    assert cli.run_cli(["specht", "--n", "3", "--r", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "shape 2,1: FAIL (T_1 image of walk [1,1,2] does not match the seminormal form at shape 2,1)" in lines


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_specht_matrices_detect_inverse_transposition(field, monkeypatch):
    # T_i^-1 = T_i - (q - q^-1) keeps every walk block in its span, so the
    # projection accepts it with wrong matrices; its rows are not seminormal
    shapes = [(P((2, 1)), 3, "[1,1,2]"), (P((2, 2)), 4, "[1,1,2,2]")]
    true = [specht_matrices(lam, 3, r, field).t_matrices for lam, r, _ in shapes]
    real = dualcheck.apply_T
    monkeypatch.setattr(dualcheck, "apply_T", lambda i, v: real(i, v) - v.scale(field.q_diff()))
    for (lam, r, walk), t_matrices in zip(shapes, true):
        assert _specht_by_projection(lam, 3, r, field).t_matrices != t_matrices
        with pytest.raises(SpechtConsistencyError) as failure:
            specht_matrices(lam, 3, r, field)
        assert str(failure.value) == f"T_1 image of walk {walk} does not match the seminormal form at shape {lam}"


@st.composite
def vectors_and_words(draw):
    """A random multi-term vector at a small size, and a random word of
    generator actions (applied right to left)."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(min_value=2, max_value=3))
    r = draw(st.integers(min_value=2, max_value=3))
    indices = list(itertools.product(range(1, n + 1), repeat=r))
    chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=5, unique=True))
    coeffs = {
        idx: field.from_int(draw(st.integers(min_value=-3, max_value=3))) * field.q_power(
            draw(st.integers(min_value=-2, max_value=2)))
        for idx in chosen
    }
    gens = st.one_of(
        st.tuples(st.sampled_from([apply_E, apply_F, apply_tK, dualcheck._apply_K_inverse]),
                  st.integers(min_value=1, max_value=n - 1)),
        st.tuples(st.just(apply_K), st.integers(min_value=1, max_value=n)),
        st.tuples(st.just(apply_T), st.integers(min_value=1, max_value=r - 1)),
    )
    word = tuple(draw(st.lists(gens, min_size=1, max_size=4)))
    return TensorVector(field, n, r, coeffs), word


@given(case=vectors_and_words())
@settings(max_examples=60, deadline=None)
def test_tabulated_words_match_direct_actions(case):
    v, word = case
    direct = v
    for action, i in reversed(word):
        direct = action(i, direct)
    words = dualcheck._Words(v.field, v.n, v.r)
    images = []
    for idx, c in v.coeffs.items():
        words.start(idx)
        images.append((c, words(*word)))
    assert lincomb(images, words.one) == direct.coeffs


def test_root_vector_word_check_raises(monkeypatch):
    real = dualcheck.xi_map

    def doubled_letter(m, weight, field):
        entries = real(m, weight, field)
        j, el = entries[0]
        return [(j, type(el)(field, {(j, j): field.one()}))] + entries[1:]

    monkeypatch.setattr(dualcheck, "xi_map", doubled_letter)
    with pytest.raises(RuntimeError, match=r"m=2, j=1.*\(1, 1\)"):
        root_vector_check(P((2, 1, 0)), 3, GEN)


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
@pytest.mark.parametrize("n,r", [(3, 4), (2, 5)])
def test_maximal_basis_of_a_shape_is_the_filtered_basis(n, r, field):
    full = maximal_basis(n, r, field)
    for lam in partitions_in(n, r):
        assert maximal_basis(n, r, field, lam) == [rec for rec in full if rec.weight == lam]
    assert maximal_basis(n, r, field, P((r + 1,))) == []


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_verify_suite_is_the_concatenated_stages(field):
    stages = list(dualcheck.verify_stages(3, 3, field))
    assert [stage for stage, _ in stages] == [
        "build", "maximality", "Gram", "norms", "counting", "quantum", "Hecke", "commuting"]
    flat = [(c.name, c.ok, c.detail) for _, checks in stages for c in checks]
    assert [(c.name, c.ok, c.detail) for c in verify_suite(3, 3, field).checks] == flat


# report class name -> (a report the package built, its fields in constructor order)
REPORTS = {
    "GramReport": (lambda: gram_check(maximal_basis(2, 2, GEN)), ("matrix", "diagonal", "ok", "violations")),
    "SpechtData": (lambda: specht_matrices(P((2, 1)), 2, 3, GEN),
                   ("shape", "basis", "gram_diagonal", "t_matrices")),
    "ShapeRow": (lambda: decomposition_report(2, 2, GEN).rows[0],
                 ("shape", "weyl_dim", "f", "walks", "all_maximal", "gram_diagonal")),
    "DecompositionReport": (lambda: decomposition_report(2, 2, GEN), ("n", "r", "rows", "total", "identity_ok")),
    "RootVectorReport": (lambda: root_vector_check(P((2, 1)), 3, GEN),
                         ("shape", "n", "entries", "weights", "count_ok", "weights_distinct", "independent",
                          "vanished", "applied_independent")),
    "CheckResult": (lambda: dualcheck.CheckResult("braid relation", True, "12 index vectors"),
                    ("name", "ok", "detail")),
    "VerifyReport": (lambda: verify_suite(2, 2, GEN), ("n", "r", "checks")),
}


def _report(name):
    make, fields = REPORTS[name]
    report = make()
    return getattr(dualcheck, name), report, fields, [getattr(report, f) for f in fields]


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_are_values(name):
    cls, report, fields, values = _report(name)
    assert type(report) is cls
    by_keyword = cls(**dict(zip(fields, values)))
    assert cls(*values) == by_keyword == report and not cls(*values) != report
    assert cls(object(), *values[1:]) != report and report != tuple(values)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(report, field, None)
        with pytest.raises(AttributeError):
            delattr(report, field)
    assert [getattr(report, f) for f in fields] == values
    assert repr(report) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_constructors_reject_bad_fields(name):
    cls, _, fields, values = _report(name)
    keywords = dict(zip(fields, values))
    with pytest.raises(TypeError, match="missing"):
        cls(**{f: v for f, v in keywords.items() if f != fields[0]})
    with pytest.raises(TypeError, match="no field 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match="takes"):
        cls(*values, None)
    with pytest.raises(TypeError, match="twice"):
        cls(*values, **{fields[0]: values[0]})


def test_check_result_detail_defaults_to_empty():
    assert dualcheck.CheckResult("counting", True) == dualcheck.CheckResult(name="counting", ok=True, detail="")
    assert dualcheck.CheckResult("counting", ok=False).detail == ""
