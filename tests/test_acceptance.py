"""Acceptance battery.

Each criterion runs at its stated scale with exact arithmetic (tolerance is
exact equality everywhere) and prints one pass/fail line; run with
``pytest -s tests/test_acceptance.py`` to see the lines as they appear.
"""

import time
from fractions import Fraction

from qtensor.coeff import LaurentPoly, ScalarField, qint
from qtensor.combinatorics import (
    Partition,
    Walk,
    coxeter_elements,
    count_standard,
    d_const,
    partitions_in,
    weyl_dim,
)
from qtensor.dualcheck import (
    check_commuting_actions,
    check_hecke_relations,
    check_quantum_relations,
    gram_check,
    maximal_basis,
    norm_predict,
    root_vector_check,
    specht_matrices,
)
from qtensor.psiphi import (
    apply_neg,
    build_c_pi,
    canonical_word,
    is_maximal,
    jimbo_root_vectors,
    psi,
)
from qtensor.tensorspace import TensorVector, apply_E, bilinear

GEN = ScalarField.generic()
SPECIAL_POINTS = (Fraction(2), Fraction(3, 2), Fraction(-5))

N_MAX, R_MAX = 4, 6
R_MAX_RELATIONS = 5

_BASES: dict = {}


def bases(field, n, r):
    key = (field, n, r)
    if key not in _BASES:
        _BASES[key] = maximal_basis(n, r, field)
    return _BASES[key]


def _report(num, desc, ok, elapsed=None):
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}"


def _explicit_vectors(field):
    q = field.q_power
    one = field.one()
    half = q(-1) / field.qint(2)
    return {
        (1,): {(1,): one},
        (1, 1): {(1, 1): one},
        (1, 2): {(2, 1): one, (1, 2): -q(-1)},
        (1, 1, 1): {(1, 1, 1): one},
        (1, 2, 1): {(1, 2, 1): one, (1, 1, 2): -q(-1)},
        (1, 1, 2): {(2, 1, 1): one, (1, 2, 1): -(half * q(-1)), (1, 1, 2): -half},
        (1, 2, 3): {
            (3, 2, 1): one, (3, 1, 2): -q(-1), (2, 3, 1): -q(-1),
            (2, 1, 3): q(-2), (1, 3, 2): q(-2), (1, 2, 3): -q(-3),
        },
    }


def _reproduces_explicit_vectors(field) -> bool:
    for rows, coeffs in _explicit_vectors(field).items():
        rec = build_c_pi(Walk(rows), field, 3)
        if rec.vector != TensorVector(field, 3, len(rows), coeffs):
            return False
    return True


def test_criterion_1_explicit_vectors():
    start = time.monotonic()
    ok = _reproduces_explicit_vectors(GEN)
    elapsed = time.monotonic() - start
    _report(1, "all seven explicit low-degree vectors, exact, < 1 s",
            ok and elapsed < 1.0, elapsed)


def test_criterion_2_maximality():
    start = time.monotonic()
    ok = True
    for n in range(1, N_MAX + 1):
        for r in range(0, R_MAX + 1):
            for rec in bases(GEN, n, r):
                if rec.vector.r and not is_maximal(rec.vector):
                    ok = False
    elapsed = time.monotonic() - start
    _report(2, f"maximality of every walk vector, n<={N_MAX}, r<={R_MAX}, < 60 s",
            ok and elapsed < 60.0, elapsed)


def test_criterion_3_orthogonality():
    start = time.monotonic()
    ok = True
    for n in range(1, N_MAX + 1):
        for r in range(0, R_MAX + 1):
            report = gram_check(bases(GEN, n, r))
            diagonal_nonzero = all(bool(v) for v in report.diagonal)
            if not (report.ok and diagonal_nonzero):
                ok = False
    elapsed = time.monotonic() - start
    _report(3, f"diagonal Gram matrices with nonzero diagonal, n<={N_MAX}, r<={R_MAX}, < 120 s",
            ok and elapsed < 120.0, elapsed)


def _norms_match(field, n_max=N_MAX, r_max=R_MAX) -> bool:
    for n in range(1, n_max + 1):
        for r in range(0, r_max + 1):
            for rec in bases(field, n, r):
                if norm_predict(rec.walk, field) != bilinear(rec.vector, rec.vector):
                    return False
    return True


def test_criterion_4_norm_formula():
    start = time.monotonic()
    ok = _norms_match(GEN)
    _report(4, f"closed-form norms equal computed self-pairings, n<={N_MAX}, r<={R_MAX}",
            ok, time.monotonic() - start)


def test_criterion_5_relation_suites():
    start = time.monotonic()
    ok = True
    for n in range(1, N_MAX + 1):
        for r in range(1, R_MAX_RELATIONS + 1):
            if not all(c.ok for c in check_quantum_relations(n, r, GEN)):
                ok = False
            if not all(c.ok for c in check_hecke_relations(n, r, GEN)):
                ok = False
            if not check_commuting_actions(n, r, GEN).ok:
                ok = False
    _report(5, f"defining relations on the sorted basis vectors, quadratic/braid/commutation relations "
               f"on every basis vector, n<={N_MAX}, r<={R_MAX_RELATIONS}",
            ok, time.monotonic() - start)


def test_criterion_6_qint_identities():
    ok = True
    for y in range(-10, 11):
        for z in range(-10, 11):
            if qint(y + 1) * qint(z + 1) - qint(y) * qint(z) != qint(y + z + 1):
                ok = False
            if qint(z) + LaurentPoly.q_power(-z - 1) != LaurentPoly.q_power(-1) * qint(z + 1):
                ok = False
    _report(6, "q-integer identities for all y, z in [-10, 10]", ok)


def _counting_holds(field, n_max=N_MAX, r_max=R_MAX) -> bool:
    for n in range(1, n_max + 1):
        for r in range(0, r_max + 1):
            shapes = partitions_in(n, r)
            if len(bases(field, n, r)) != sum(count_standard(lam) for lam in shapes):
                return False
            if sum(weyl_dim(lam, n) * count_standard(lam) for lam in shapes) != n**r:
                return False
    return True


def test_criterion_7_counting():
    start = time.monotonic()
    ok = _counting_holds(GEN)
    # concrete instance: 3^3 = 10*1 + 8*2 + 1*1 = 10 + 16 + 1 = 27
    parts = [weyl_dim(lam, 3) * count_standard(lam) for lam in partitions_in(3, 3)]
    ok = ok and parts == [10, 16, 1] and sum(parts) == 27
    _report(7, f"walk counts and bimodule dimension identity, n<={N_MAX}, r<={R_MAX} (3^3 = 10+16+1)",
            ok, time.monotonic() - start)


def _matrices_satisfy_relations(data, field) -> bool:
    zero = field.zero()
    q = field.q_power(1)
    qinv = field.q_power(-1)

    def mul(A, B):
        k = len(A)
        return [[sum((A[i][t] * B[t][j] for t in range(k)), zero) for j in range(k)] for i in range(k)]

    for M in data.t_matrices:
        k = len(M)
        A = [[M[i][j] - (q if i == j else zero) for j in range(k)] for i in range(k)]
        B = [[M[i][j] + (qinv if i == j else zero) for j in range(k)] for i in range(k)]
        Z = mul(A, B)
        if any(Z[i][j] for i in range(k) for j in range(k)):
            return False
    mats = data.t_matrices
    for i in range(len(mats) - 1):
        if mul(mul(mats[i], mats[i + 1]), mats[i]) != mul(mul(mats[i + 1], mats[i]), mats[i + 1]):
            return False
    for i in range(len(mats)):
        for j in range(i + 2, len(mats)):
            if mul(mats[i], mats[j]) != mul(mats[j], mats[i]):
                return False
    return True


def test_criterion_8_specht_matrices():
    start = time.monotonic()
    ok = True
    for n in range(1, N_MAX + 1):
        for r in range(1, R_MAX_RELATIONS + 1):
            for lam in partitions_in(n, r):
                data = specht_matrices(lam, n, r, GEN)  # raises on nonzero residual
                if len(data.basis) != count_standard(lam):
                    ok = False
                if not _matrices_satisfy_relations(data, GEN):
                    ok = False
    _report(8, f"transposition matrices: zero residuals, relations, size f, n<={N_MAX}, r<={R_MAX_RELATIONS}",
            ok, time.monotonic() - start)


def test_criterion_9_psi_internals():
    start = time.monotonic()
    ok = True

    # raising a psi image: E_1 peels one level, higher raisings annihilate
    for n in range(2, N_MAX + 1):
        for r in range(1, R_MAX_RELATIONS + 1):
            for rec in bases(GEN, n, r):
                lam, b = rec.weight, rec.vector
                for j0 in range(1, n):
                    if lam.row(j0) - lam.row(j0 + 1) == 0:
                        continue
                    image = apply_neg(psi(j0, lam, GEN), b)
                    if apply_E(1, image) != apply_neg(psi(j0 - 1, lam, GEN, shift=1), b):
                        ok = False
                    for j in range(2, j0 + 1):
                        if not apply_E(j, image).is_zero:
                            ok = False

    # first-row insensitivity identities for the shifted elements
    for parts in [(6, 5, 4, 3, 2, 1), (9, 7, 5, 4, 2, 1), (8, 6, 5, 3, 2, 1)]:
        lam = Partition(parts)
        dropped = (parts[0] - 1, parts[1] + 1) + parts[2:]
        for j in (1, 2, 3):
            if psi(j, lam, GEN, shift=2) != psi(j, dropped, GEN, shift=2):
                ok = False
            d_val = d_const(lam, j, 1)
            scaled = psi(j, dropped, GEN, shift=1).scale(GEN.qint(d_val + 1) / GEN.qint(d_val))
            if psi(j, lam, GEN, shift=1) != scaled:
                ok = False

    # explicit two- and three-row expansions
    el = psi(2, Partition((2, 1, 0)), GEN)
    d2 = GEN.qint(3)
    ok = ok and el.terms == {(1, 2): GEN.qint(2) / d2, (2, 1): -(GEN.one() / d2)}
    el = psi(3, Partition((3, 2, 1, 0)), GEN)
    den = GEN.qint(5) * GEN.qint(3)
    ok = ok and el.terms == {
        (1, 2, 3): GEN.qint(4) * GEN.qint(2) / den,
        (1, 3, 2): -(GEN.qint(4) / den),
        (2, 1, 3): -(GEN.qint(3) * GEN.qint(2) / den),
        (3, 2, 1): GEN.qint(3) / den,
    }

    # Coxeter-monomial support counts
    for n in range(2, 7):
        words = coxeter_elements(n)
        if len(words) != 2 ** (n - 2) or len({canonical_word(w) for w in words}) != len(words):
            ok = False
    eight = {(1, 2, 3, 4), (2, 3, 4, 1), (1, 3, 4, 2), (3, 4, 2, 1),
             (1, 2, 4, 3), (2, 4, 3, 1), (1, 4, 3, 2), (4, 3, 2, 1)}
    ok = ok and set(coxeter_elements(5)) == eight
    for j in (1, 2, 3):
        el = psi(j, Partition((7, 5, 3, 1)), GEN)
        canon = {canonical_word(w) for w in coxeter_elements(j + 1)}
        if not set(el.terms) <= canon or len(el.terms) > 2 ** (j - 1):
            ok = False

    _report(9, "recursion internals: raising action, shift identities, explicit expansions, support counts",
            ok, time.monotonic() - start)


def test_criterion_10_specialization():
    start = time.monotonic()
    ok = True
    for q0 in SPECIAL_POINTS:
        field = ScalarField.at(q0)
        if not _reproduces_explicit_vectors(field):
            ok = False
        for n in range(1, N_MAX + 1):
            for r in range(0, R_MAX + 1):
                records = bases(field, n, r)
                if any(rec.vector.r and not is_maximal(rec.vector) for rec in records):
                    ok = False
                report = gram_check(records)
                if not (report.ok and all(bool(v) for v in report.diagonal)):
                    ok = False
        if not _norms_match(field):
            ok = False
        if not _counting_holds(field):
            ok = False
    _report(10, f"criteria 1-4 and 7 rerun at q0 in {{2, 3/2, -5}}, n<={N_MAX}, r<={R_MAX}",
            ok, time.monotonic() - start)


def test_criterion_11_root_vectors():
    start = time.monotonic()
    ok = True
    for n in range(2, N_MAX + 1):
        staircase = Partition(tuple(range(n - 1, 0, -1)))
        report = root_vector_check(staircase, n, GEN)
        if not (report.count_ok and report.weights_distinct and report.independent):
            ok = False
        if len(report.entries) != n * (n - 1) // 2:
            ok = False
        expected_weights = []
        for m in range(2, n + 1):
            for j in range(1, m):
                wt = [0] * n
                wt[j - 1] -= 1
                wt[m - 1] += 1
                expected_weights.append(tuple(wt))
        if report.weights != expected_weights:
            ok = False
    e_hat, f_hat = jimbo_root_vectors(4, GEN)
    for i in (1, 2, 3):
        if f_hat[(i + 1, i)].terms != {(i,): GEN.one()}:
            ok = False
        if e_hat[(i, i + 1)].terms != {(i,): GEN.one()}:
            ok = False
    if f_hat[(3, 1)].terms != {(2, 1): GEN.one(), (1, 2): -GEN.q_power(-1)}:
        ok = False
    _report(11, "root-vector families: counts, weights, independence; adjacent base cases and one unrolling",
            ok, time.monotonic() - start)
