import tracemalloc
from collections import deque
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qtensor import psiphi, tensorspace
from qtensor.coeff import ScalarField, specialize
from qtensor.combinatorics import (
    Partition,
    Walk,
    coxeter_elements,
    d_const,
    enumerate_walks,
)
from qtensor.dualcheck import maximal_basis
from qtensor.psiphi import (
    AddabilityError,
    NegElement,
    PsiUndefinedError,
    apply_neg,
    build_c_pi,
    canonical_word,
    is_maximal,
    jimbo_root_vectors,
    phi,
    psi,
    xi_map,
)
from qtensor.tensorspace import TensorVector, apply_E, apply_F, lincomb, weight_of

GEN = ScalarField.generic()
P = Partition


def test_canonical_word_examples():
    assert canonical_word(()) == ()
    assert canonical_word((2, 3, 1)) == (2, 1, 3)
    assert canonical_word((3, 1, 2)) == (1, 3, 2)
    assert canonical_word((3, 2, 1)) == (3, 2, 1)
    assert canonical_word((4, 1, 3)) == (1, 4, 3)


def _commutation_class(word):
    """Oracle: breadth-first closure under far-commutation swaps."""
    seen = {tuple(word)}
    queue = deque([tuple(word)])
    while queue:
        w = queue.popleft()
        for t in range(len(w) - 1):
            if abs(w[t] - w[t + 1]) > 1:
                sw = w[:t] + (w[t + 1], w[t]) + w[t + 2:]
                if sw not in seen:
                    seen.add(sw)
                    queue.append(sw)
    return seen


@given(word=st.lists(st.integers(min_value=1, max_value=5), max_size=6))
@settings(max_examples=150, deadline=None)
def test_canonical_word_is_lex_least_of_class(word):
    word = tuple(word)
    cls = _commutation_class(word)
    assert canonical_word(word) == min(cls)
    # every member of the class canonicalizes identically
    for w in cls:
        assert canonical_word(w) == min(cls)


def test_psi_base_cases():
    assert psi(0, P((2, 1)), GEN) == NegElement.one(GEN)
    p1 = psi(1, P((2, 1)), GEN)
    assert p1.terms == {(1,): GEN.one()}  # d_1 = 1
    p1b = psi(1, P((3, 1)), GEN)
    assert p1b.terms == {(1,): GEN.one() / GEN.qint(2)}


def test_psi_two_rows_example():
    # (1/([d_2][d_1^+]))([1+d_1^+] F_1F_2 - [d_1^+] F_2F_1) at (2,1,0)
    el = psi(2, P((2, 1, 0)), GEN)
    d2 = GEN.qint(3)
    assert el.terms == {
        (1, 2): GEN.qint(2) / d2,
        (2, 1): -(GEN.one() / d2),
    }


def test_psi_undefined():
    with pytest.raises(PsiUndefinedError):
        psi(1, P((2, 2)), GEN)
    with pytest.raises(PsiUndefinedError):
        psi(2, P((3, 1, 1)), GEN)
    with pytest.raises(PsiUndefinedError):
        psi(1, P((3, 1, 1)), GEN, shift=1)


def test_psi_three_rows_coefficients():
    # coefficients x_1..x_4 over [d_3][d_2^+][d_1^++] at the staircase (3,2,1,0)
    el = psi(3, P((3, 2, 1, 0)), GEN)
    den = GEN.qint(5) * GEN.qint(3) * GEN.qint(1)
    x1 = GEN.qint(4) * GEN.qint(2)
    x2 = GEN.qint(4) * GEN.qint(1)
    x3 = GEN.qint(3) * GEN.qint(2)
    x4 = GEN.qint(3) * GEN.qint(1)
    assert el.terms == {
        (1, 2, 3): x1 / den,
        (1, 3, 2): -(x2 / den),
        (2, 1, 3): -(x3 / den),
        (3, 2, 1): x4 / den,
    }


@given(
    parts=st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=5),
    j=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=80, deadline=None)
def test_psi_support_is_coxeter(parts, j):
    lam = P(tuple(sorted(parts, reverse=True)))
    try:
        el = psi(j, lam, GEN)
    except PsiUndefinedError:
        return
    assert len(el.terms) <= 2 ** (j - 1)
    canon = {canonical_word(w) for w in coxeter_elements(j + 1)}
    assert set(el.terms) <= canon
    for word in el.terms:
        assert sorted(word) == list(range(1, j + 1))


def test_psi_shift_relabels_support():
    lam = P((4, 3, 2, 1))
    for j, k in [(1, 1), (2, 1), (2, 2)]:
        el = psi(j, lam, GEN, shift=k)
        assert all(sorted(w) == list(range(1 + k, j + k + 1)) for w in el.terms)


def test_apply_neg_examples():
    v1 = TensorVector.basis(GEN, 2, (1,))
    assert apply_neg(NegElement.one(GEN), v1) == v1
    f1 = NegElement.generator(GEN, 1)
    assert apply_neg(f1, v1) == TensorVector.basis(GEN, 2, (2,))
    assert apply_neg(psi(1, P((1,)), GEN), v1) == TensorVector.basis(GEN, 2, (2,))
    with pytest.raises(ValueError):
        apply_neg(NegElement.generator(GEN, 2), v1)


def _expected_paper_vectors(field):
    q = field.q_power
    one = field.one()
    return {
        (1,): {(1,): one},
        (1, 1): {(1, 1): one},
        (1, 2): {(2, 1): one, (1, 2): -q(-1)},
        (1, 1, 1): {(1, 1, 1): one},
        (1, 2, 1): {(1, 2, 1): one, (1, 1, 2): -q(-1)},
        (1, 1, 2): {
            (2, 1, 1): one,
            (1, 2, 1): -(q(-1) / field.qint(2) * q(-1)),
            (1, 1, 2): -(q(-1) / field.qint(2)),
        },
        (1, 2, 3): {
            (3, 2, 1): one, (3, 1, 2): -q(-1), (2, 3, 1): -q(-1),
            (2, 1, 3): q(-2), (1, 3, 2): q(-2), (1, 2, 3): -q(-3),
        },
    }


def test_build_c_pi_reproduces_explicit_vectors():
    for rows, coeffs in _expected_paper_vectors(GEN).items():
        rec = build_c_pi(Walk(rows), GEN, 3)
        assert rec.vector == TensorVector(GEN, 3, len(rows), coeffs), rows
        assert rec.weight == Walk(rows).terminal()
        assert is_maximal(rec.vector)


@pytest.mark.parametrize("q0", ["3/2", "-2/5"])
def test_row_one_steps_tabulate_no_ring_powers(q0):
    # a row-1 step only puts the letter 1 in front of b's numerators, so the
    # one-row walk builds none of the degree-d tables of ring powers of q
    # (2d + 1 integers of about 2.6d bits at 3/2, O(r^3) bits summed over d)
    field = ScalarField.at(q0)
    tracemalloc.start()
    try:
        rec = build_c_pi(Walk((1,) * 400), field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.vector._numerators() == (1, {(1,) * 400: 1})
    assert rec.vector.coeffs == {(1,) * 400: field.one()}
    assert peak < 1_000_000


def test_phi_weight_and_degree():
    b = build_c_pi(Walk((1, 2)), GEN, 3)
    out = phi(1, b.weight, b.vector)
    assert out.r == 3 and weight_of(out) == (2, 1, 0)
    with pytest.raises(AddabilityError):
        phi(2, P((2, 2)), build_c_pi(Walk((1, 1, 2, 2)), GEN, 3).vector)


def _phi_oracle(m, weight, b, shift=0):
    """phi summed in the field: every word of every psi element applied
    letter by letter with ``apply_F``, rightmost letter first, the terms for
    each j given their new left factor and added with ``lincomb``."""
    field = b.field
    minus_qinv = field.from_int(0) - field.q_power(-1)
    one = coeff = field.one()
    pairs = []
    for j in range(m):
        letter = (m - j + shift,)
        for word, c in psi(j, weight, field, m - j - 1 + shift).terms.items():
            term = reduce(lambda vec, i: apply_F(i, vec), reversed(word), b)
            pairs.append((c * coeff, {letter + idx: x for idx, x in term.coeffs.items()}))
        coeff = coeff * minus_qinv
    return TensorVector.zero(field, b.n, b.r + 1)._fresh(lincomb(pairs, one))


ORACLE_FIELDS = [GEN] + [ScalarField.at(Fraction(q)) for q in ("2", "3/2", "-2/5", "1/3")]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: str(f.q0))
@pytest.mark.parametrize("n, r", [(3, 5), (4, 5)])
def test_phi_matches_field_valued_oracle(n, r, field):
    # every walk step once (each distinct walk prefix)
    kind = type(field.one())
    built = {(): (Partition(), TensorVector.unit(field, n))}
    for walk in enumerate_walks(n, r):
        for k in range(1, r + 1):
            prefix = walk.rows[:k]
            if prefix in built:
                continue
            lam, b = built[prefix[:-1]]
            m = prefix[-1]
            got = phi(m, lam, b)
            assert got == _phi_oracle(m, lam, b), prefix
            assert all(type(c) is kind for c in got.coeffs.values()), prefix
            built[prefix] = (lam.add_box(m), got)


CLEARED_FIELDS = [GEN] + [ScalarField.at(q) for q in ("3/2", "2", "-2/5")]


@pytest.mark.parametrize("field", CLEARED_FIELDS, ids=lambda f: str(f.q0))
@pytest.mark.parametrize("n, r", [(3, 5), (4, 5)])
def test_records_divide_their_cleared_form_into_the_field_valued_vector(n, r, field):
    # the oracle runs phi's sum in the field, step by step along each walk;
    # at q0 the record's (D, numerators) is the canonical clear: D > 0 and no
    # factor common to D and every numerator.  On every field the pairing
    # form is the clear of the field-valued vector.
    over = field._ring_over
    oracle = {(): TensorVector.unit(field, n)}
    for rec in maximal_basis(n, r, field):
        rows = rec.walk.rows
        for k in range(1, r + 1):
            if rows[:k] not in oracle:
                oracle[rows[:k]] = _phi_oracle(rows[k - 1], rec.walk.shapes[k - 1], oracle[rows[:k - 1]])
        D, nums = rec.vector._numerators()
        assert {k: over(x, D) for k, x in nums.items()} == oracle[rows].coeffs, rows
        assert rec.vector == oracle[rows], rows
        assert field._pairing_form(rec.vector) == field.clear(rec.vector.coeffs), rows
        if field.q0 is not None:
            assert (D, nums) == field.clear(rec.vector.coeffs) and D > 0, rows
            assert gcd(D, *nums.values()) == 1, rows


@pytest.mark.parametrize("field", [GEN, ScalarField.at(Fraction(3, 2))], ids=lambda f: str(f.q0))
def test_second_build_evaluates_no_lowering_rule(field, monkeypatch):
    # the numerator ring keeps each F_i rule memoised by index, per field
    # and degree, so a rebuild on the same field finds every image there
    field = ScalarField(field.q0)  # a fresh memo
    calls, real = [], tensorspace._coproduct

    def counted(*args):
        rule = real(*args)
        return lambda idx: calls.append((rule, idx)) or rule(idx)

    monkeypatch.setattr(tensorspace, "_coproduct", counted)
    maximal_basis(4, 5, field)
    first = len(calls)
    assert first == len(set(calls)) > 0  # one evaluation per rule and index
    maximal_basis(4, 5, field)
    assert len(calls) == first


@lru_cache(maxsize=None)
def _generic_basis(n, r):
    return maximal_basis(n, r, GEN)


admissible_q0 = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=12),
).filter(lambda q: q not in (0, 1, -1))


@given(q0=admissible_q0, size=st.sampled_from([(3, 4), (4, 4), (2, 6)]))
@settings(max_examples=40, deadline=None)
def test_specialized_basis_is_generic_basis_specialized(q0, size):
    field = ScalarField.at(q0)
    got = maximal_basis(*size, field)
    want = _generic_basis(*size)
    assert [rec.walk for rec in got] == [rec.walk for rec in want]
    for g, w in zip(got, want):
        values = {k: specialize(c, q0) for k, c in w.vector.coeffs.items()}
        assert g.vector.coeffs == {k: c for k, c in values.items() if c}, (q0, g.walk)


def test_phi_recursion_consistency():
    # phi_m(b) = shifted phi_{m-1}(b) + (-1/q)^(m-1) v_1 (x) psi_{m-1} b,
    # with b treated formally (the shifted variant keeps b's actual weight)
    minus_qinv = GEN.from_int(0) - GEN.q_power(-1)
    for walk in [Walk((1,)), Walk((1, 1)), Walk((1, 2)), Walk((1, 2, 1)), Walk((1, 1, 2)), Walk((1, 2, 3))]:
        rec = build_c_pi(walk, GEN, 4)
        lam, b = rec.weight, rec.vector
        for m in range(2, 5):
            if m >= 2 and lam.row(m - 1) - lam.row(m) == 0:
                continue
            lhs = phi(m, lam, b)
            image = apply_neg(psi(m - 1, lam, GEN), b)
            tail = TensorVector(GEN, b.n, b.r + 1, {(1,) + idx: c for idx, c in image.coeffs.items()})
            tail = tail.scale(minus_qinv ** (m - 1))
            rhs = _phi_oracle(m - 1, lam, b, shift=1) + tail
            assert lhs == rhs, (walk, m)


def test_raising_action_on_psi_images():
    # E_1 undoes one level of the recursion; higher raisings annihilate it
    for n, rmax in [(2, 4), (3, 4), (4, 5)]:
        for r in range(1, rmax + 1):
            for walk in enumerate_walks(n, r):
                rec = build_c_pi(walk, GEN, n)
                lam, b = rec.weight, rec.vector
                for j0 in range(1, n):
                    if lam.row(j0) - lam.row(j0 + 1) == 0:
                        continue
                    image = apply_neg(psi(j0, lam, GEN), b)
                    shifted = apply_neg(psi(j0 - 1, lam, GEN, shift=1), b)
                    assert apply_E(1, image) == shifted, (walk, j0)
                    for j in range(2, j0 + 1):
                        assert apply_E(j, image).is_zero, (walk, j0, j)


@st.composite
def strict_partitions(draw, rows=6):
    # strictly decreasing through enough rows that every shifted pairing
    # the identities touch is nonzero
    gaps = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=rows, max_size=rows))
    parts = []
    total = 0
    for g in reversed(gaps):
        total += g
        parts.append(total)
    return tuple(reversed(parts))


@given(parts=strict_partitions(), j=st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_first_row_insensitivity(parts, j):
    # double shift ignores the first row entirely; single shift rescales by
    # [d^+ + 1]/[d^+] when a box moves from row 1 to row 2
    lam = P(parts)
    dropped = (parts[0] - 1, parts[1] + 1) + parts[2:]
    assert psi(j, lam, GEN, shift=2) == psi(j, dropped, GEN, shift=2)
    d_val = d_const(lam, j, 1)
    expected = psi(j, dropped, GEN, shift=1).scale(GEN.qint(d_val + 1) / GEN.qint(d_val))
    assert psi(j, lam, GEN, shift=1) == expected


def test_is_maximal_examples():
    c = TensorVector(GEN, 2, 2, {(2, 1): GEN.one(), (1, 2): -GEN.q_power(-1)})
    assert is_maximal(c)
    assert not is_maximal(TensorVector.basis(GEN, 2, (1, 2)))
    assert is_maximal(TensorVector.basis(GEN, 2, (1, 1)))
    with pytest.raises(ValueError):
        is_maximal(TensorVector.zero(GEN, 2, 2))


def test_is_maximal_reads_only_the_letters_present(monkeypatch):
    # over 10**12 letters the check costs what it does over 2: one content,
    # and E_i only where the letter i + 1 occurs
    n, q = 10**12, GEN.q_power(1)
    c = TensorVector(GEN, n, 2, {(2, 1): GEN.one(), (1, 2): -GEN.q_power(-1)})
    assert is_maximal(c)
    assert not is_maximal(TensorVector(GEN, n, 2, {(1, 2): GEN.one(), (1, 1): GEN.one()}))
    real, applied = psiphi.apply_E, []

    def skewed(i, v):
        # a stray q on E_1 of the basis vectors that start with the letter 2
        applied.append(i)
        out = TensorVector.zero(v.field, v.n, v.r)
        for idx, x in v.coeffs.items():
            image = real(i, TensorVector(v.field, v.n, v.r, {idx: x}))
            out = out + (image.scale(q) if i == 1 and idx[0] == 2 else image)
        return out

    monkeypatch.setattr(psiphi, "apply_E", skewed)
    assert not is_maximal(c)
    assert applied == [1]


def test_xi_map_entries():
    entries = xi_map(2, P((2, 1)), GEN)
    assert len(entries) == 1
    assert entries[0][0] == 1 and entries[0][1].terms == {(1,): GEN.one()}
    entries = xi_map(3, P((2, 1, 0)), GEN)
    assert [j for j, _ in entries] == [1, 2]
    assert entries[0][1] == psi(2, P((2, 1, 0)), GEN)
    assert entries[1][1] == psi(1, P((2, 1, 0)), GEN, shift=1)
    for _, el in entries:
        assert not el.is_zero
    # defined exactly when the pairing at row m-1 is nonzero
    assert len(xi_map(3, P((2, 2)), GEN)) == 2
    with pytest.raises(PsiUndefinedError):
        xi_map(3, P((3, 1, 1)), GEN)
    with pytest.raises(ValueError):
        xi_map(1, P((2, 1)), GEN)


def test_xi_map_weights_distinct():
    # entry j lowers by the root sum over rows j..m-1: support words confirm it
    lam = P((4, 3, 2, 1))
    for m in (2, 3, 4):
        entries = xi_map(m, lam, GEN)
        letter_sets = []
        for j, el in entries:
            sets = {tuple(sorted(w)) for w in el.terms}
            assert sets == {tuple(range(j, m))}
            letter_sets.append((j, m))
        assert len(set(letter_sets)) == len(entries)


def test_youngs_rule_vector_counts():
    # one new highest-weight vector per addable row, with distinct weights
    for n, r in [(2, 3), (3, 3), (4, 4)]:
        for walk in enumerate_walks(n, r):
            rec = build_c_pi(walk, GEN, n)
            produced = {}
            for j in rec.weight.addable_rows(n):
                out = phi(j, rec.weight, rec.vector)
                produced[weight_of(out)] = out
                assert is_maximal(out)
            assert len(produced) == len(rec.weight.addable_rows(n))


def test_jimbo_base_cases_and_unrolling():
    e_hat, f_hat = jimbo_root_vectors(4, GEN)
    for i in range(1, 4):
        assert f_hat[(i + 1, i)].terms == {(i,): GEN.one()}
        assert e_hat[(i, i + 1)].terms == {(i,): GEN.one()}
    # one unrolling with pivot 2: F_2 F_1 - q^-1 F_1 F_2
    assert f_hat[(3, 1)].terms == {(2, 1): GEN.one(), (1, 2): -GEN.q_power(-1)}
    assert e_hat[(1, 3)].terms == {(1, 2): GEN.one(), (2, 1): -GEN.q_power(1)}
    assert len(e_hat) == 6 and len(f_hat) == 6


def _pivot_agreement(n, field):
    """True when every admissible pivot of the root-vector recursion, at
    every level, gives the same element: the exhaustive comparison."""
    q, qinv = field.q_power(1), field.q_power(-1)

    def variants(lo, hi, raising):
        if hi - lo == 1:
            return [NegElement.generator(field, lo)]
        return list({left * right - (right * left).scale(q if raising else qinv)
                     for k in range(lo + 1, hi)
                     for left in variants(lo, k, raising) for right in variants(k, hi, raising)})

    for span in range(2, n):
        for lo in range(1, n - span + 1):
            for raising in (True, False):
                vals = variants(lo, lo + span, raising)
                if any(v != vals[0] for v in vals[1:]):
                    return False
    return True


def test_jimbo_pivot_agreement():
    # exhaustive pivot comparison; the recursion is pivot-independent here
    for n in (3, 4, 5):
        assert _pivot_agreement(n, GEN)


def test_jimbo_pivot_agreement_sees_past_hash_collisions(monkeypatch):
    # without canonical words the pivots give different elements; equal
    # hashes must not merge them into one
    monkeypatch.setattr(psiphi, "canonical_word", tuple)
    assert not _pivot_agreement(4, GEN)
    monkeypatch.setattr(NegElement, "__hash__", lambda self: 0)
    assert not _pivot_agreement(4, GEN)


def test_neg_element_algebra():
    a = NegElement.generator(GEN, 1)
    b = NegElement.generator(GEN, 3)
    assert a * b == b * a  # far commutation via canonical form
    c = NegElement.generator(GEN, 2)
    assert (a * c).terms != (c * a).terms
    assert (a - a).is_zero
    assert str(psi(1, P((3, 1)), GEN)) == "(q)/(q^2 + 1) * F[1]"


def test_specialized_field_construction():
    for q0 in (Fraction(2), Fraction(3, 2), Fraction(-5)):
        field = ScalarField.at(q0)
        for rows, coeffs in _expected_paper_vectors(field).items():
            rec = build_c_pi(Walk(rows), field, 3)
            assert rec.vector == TensorVector(field, 3, len(rows), coeffs)
            assert is_maximal(rec.vector)


def _count_ring_clears_and_phi(monkeypatch, field):
    # every clear in the numerator ring goes through the field's
    # _ring_clear; counting its calls counts them all
    counts = {"clear": 0, "phi": 0}
    real_clear, real_phi = field._ring_clear, psiphi.phi

    def counted_clear(coeffs):
        counts["clear"] += 1
        return real_clear(coeffs)

    def counted_phi(*args, **kwargs):
        counts["phi"] += 1
        return real_phi(*args, **kwargs)

    monkeypatch.setattr(type(field), "_ring_clear", staticmethod(counted_clear))
    monkeypatch.setattr(psiphi, "phi", counted_phi)
    return counts


FRESH_FIELDS = [None, Fraction(3, 2)]


@pytest.mark.parametrize("q0", FRESH_FIELDS, ids=str)
def test_phi_clears_each_xi_table_once_per_row_and_shape(q0, monkeypatch):
    # phi's input arrives cleared (the previous step's image, or the cleared
    # unit) and is never cleared; the xi_1 .. xi_{m-1} of a row-m step at a
    # shape are cleared once per field, on that (row, shape)'s first step
    # (the shape fixes the ring degree), and kept in the field's ring memo
    field = ScalarField(q0)
    counts = _count_ring_clears_and_phi(monkeypatch, field)
    records = maximal_basis(4, 5, field)
    steps = {(m, lam) for rec in records for m, lam in zip(rec.walk.rows, rec.walk.shapes)}
    assert counts["phi"] == sum(len(rec.walk.rows) for rec in records)
    assert counts["clear"] == sum(m - 1 for m, _ in steps) == 21


@pytest.mark.parametrize("q0", FRESH_FIELDS, ids=str)
def test_rebuild_makes_no_psi_lookups_and_no_clears(q0, monkeypatch):
    # a rebuild in the same field finds every xi table in the ring memo: it
    # calls phi once per walk step, but neither looks up psi nor clears
    field = ScalarField(q0)
    maximal_basis(4, 5, field)
    counts = _count_ring_clears_and_phi(monkeypatch, field)
    before = psiphi._psi_cached.cache_info()
    records = maximal_basis(4, 5, field)
    after = psiphi._psi_cached.cache_info()
    assert counts["phi"] == sum(len(rec.walk.rows) for rec in records)
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert counts["clear"] == 0
