import itertools
import json
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from qtensor.coeff import ScalarField
from qtensor.dualcheck import (
    check_commuting_actions,
    check_hecke_relations,
    check_quantum_relations,
    maximal_basis,
)
from qtensor.psiphi import NegElement, apply_neg, build_c_pi, jimbo_root_vectors
from qtensor.combinatorics import enumerate_walks
from qtensor.tensorspace import (
    MixedWeightError,
    ShapeMismatchError,
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
    weight_of,
)

GEN = ScalarField.generic()
FIELDS = [GEN, ScalarField.at(Fraction(3, 2))]


def basis(idx, n=2):
    return TensorVector.basis(GEN, n, idx)


def test_single_factor_actions():
    assert apply_E(1, basis((2,))) == basis((1,))
    assert apply_F(1, basis((1,))) == basis((2,))
    assert apply_E(1, basis((1,))).is_zero
    assert apply_F(1, basis((2,))).is_zero


def test_coproduct_actions():
    got = apply_F(1, basis((1, 1)))
    expected = TensorVector(GEN, 2, 2, {(2, 1): GEN.q_power(-1), (1, 2): GEN.one()})
    assert got == expected
    assert apply_K(1, basis((1, 2))) == basis((1, 2)).scale(GEN.q_power(1))
    assert apply_E(1, basis((1, 2))) == basis((1, 1)).scale(GEN.q_power(1))
    assert apply_tK(1, basis((1, 1))) == basis((1, 1)).scale(GEN.q_power(2))
    with pytest.raises(ValueError):
        apply_E(2, basis((1,)))


def test_weight_of():
    assert weight_of(basis((1, 2))) == (1, 1)
    c = TensorVector(GEN, 2, 2, {(2, 1): GEN.one(), (1, 2): -GEN.q_power(-1)})
    assert weight_of(c) == (1, 1)
    with pytest.raises(MixedWeightError):
        weight_of(basis((1, 1)) + basis((1, 2)))
    with pytest.raises(ValueError):
        weight_of(TensorVector.zero(GEN, 2, 2))


def test_hecke_three_cases():
    assert apply_T(1, basis((1, 1))) == basis((1, 1)).scale(GEN.q_power(1))
    assert apply_T(1, basis((2, 1))) == basis((1, 2))
    qdiff = GEN.q_power(1) - GEN.q_power(-1)
    assert apply_T(1, basis((1, 2))) == basis((2, 1)) + basis((1, 2)).scale(qdiff)
    with pytest.raises(ValueError):
        apply_T(2, basis((1, 1)))


def _accumulate(out, idx, c):
    cur = out.get(idx)
    cur = c if cur is None else cur + c
    if cur:
        out[idx] = cur
    else:
        out.pop(idx, None)


def apply_T_factored(i: int, v: TensorVector) -> TensorVector:
    """The transposition action through the identity-padded two-site
    operator: an independent oracle for apply_T."""
    if not 1 <= i <= v.r - 1:
        raise ValueError(f"T index {i} out of range 1..{v.r - 1}")
    field = v.field
    q = field.q_power(1)
    qdiff = field.q_power(1) - field.q_power(-1)
    out = {}
    for idx, c in v.coeffs.items():
        head, (s, t), tail = idx[: i - 1], idx[i - 1: i + 1], idx[i + 1:]
        if s == t:
            _accumulate(out, head + (s, t) + tail, c * q)
        elif s < t:
            _accumulate(out, head + (s, t) + tail, c * qdiff)
            _accumulate(out, head + (t, s) + tail, c)
        else:
            _accumulate(out, head + (t, s) + tail, c)
    return TensorVector(field, v.n, v.r, out)


def apply_coproduct_factored(raising: bool, i: int, v: TensorVector) -> TensorVector:
    """E_i (``raising``) or F_i through the factorised iterated coproduct:
    the sum over slots s of the one-site generator on slot s, the coroot
    grouplike K~_i on every slot left of s (for E) or its inverse on every
    slot right of s (for F), and the identity elsewhere.  An independent
    oracle for apply_E and apply_F."""
    field = v.field
    src, dst = (i + 1, i) if raising else (i, i + 1)
    out = {}
    for idx, c in v.coeffs.items():
        for s, a in enumerate(idx):
            if a != src:
                continue
            if raising:
                e = sum((b == i) - (b == i + 1) for b in idx[:s])
            else:
                e = -sum((b == i) - (b == i + 1) for b in idx[s + 1:])
            _accumulate(out, idx[:s] + (dst,) + idx[s + 1:], c * field.q_power(e))
    return TensorVector(field, v.n, v.r, out)


def apply_neg_letterwise(e: NegElement, v: TensorVector) -> TensorVector:
    """Oracle for apply_neg: each word applied letter by letter with
    apply_F, rightmost letter first, and the word images summed."""
    pairs = [(c, reduce(lambda vec, i: apply_F(i, vec), reversed(word), v).coeffs)
             for word, c in e.terms.items()]
    return v._fresh(lincomb(pairs, v.field.one()))


def lowering_elements(field, n):
    """Every word of length <= 3 in F_1..F_{n-1} as an element, their sum
    with distinct powers of q as coefficients (words that share suffixes),
    and the recursive lowering root vectors."""
    words = [w for k in range(4) for w in itertools.product(range(1, n), repeat=k)]
    singles = [NegElement(field, {w: field.one()}) for w in words]
    mixed = NegElement(field, {w: field.q_power(k - 3) for k, w in enumerate(words)})
    return singles + [mixed] + list(jimbo_root_vectors(n, field)[1].values())


def test_hecke_factored_cross_check():
    for field in FIELDS:
        for idx in itertools.product((1, 2, 3), repeat=4):
            v = TensorVector.basis(field, 3, idx)
            for i in (1, 2, 3):
                assert apply_T(i, v) == apply_T_factored(i, v)


@pytest.mark.parametrize("n, r", [(3, 3), (2, 4)])
def test_coproduct_and_words_against_oracles(n, r):
    for field in FIELDS:
        elements = lowering_elements(field, n)
        for idx in itertools.product(range(1, n + 1), repeat=r):
            v = TensorVector.basis(field, n, idx)
            for i in range(1, n):
                assert apply_E(i, v) == apply_coproduct_factored(True, i, v), (i, idx)
                assert apply_F(i, v) == apply_coproduct_factored(False, i, v), (i, idx)
            for el in elements:
                assert apply_neg(el, v) == apply_neg_letterwise(el, v), (el, idx)


@st.composite
def multi_term_vectors(draw):
    """Random vector over either field with several terms of any contents."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(min_value=2, max_value=3))
    r = draw(st.integers(min_value=2, max_value=4))
    indices = list(itertools.product(range(1, n + 1), repeat=r))
    chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=8, unique=True))
    coeffs = {
        idx: field.from_int(draw(st.integers(min_value=-3, max_value=3))) * field.q_power(
            draw(st.integers(min_value=-2, max_value=2)))
        for idx in chosen
    }
    return TensorVector(field, n, r, coeffs)


@given(v=multi_term_vectors(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_hecke_factored_cross_check_multi_term(v, data):
    i = data.draw(st.integers(min_value=1, max_value=v.r - 1))
    assert apply_T(i, v) == apply_T_factored(i, v)


@given(v=multi_term_vectors(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_coproduct_and_words_against_oracles_multi_term(v, data):
    i = data.draw(st.integers(min_value=1, max_value=v.n - 1))
    assert apply_E(i, v) == apply_coproduct_factored(True, i, v)
    assert apply_F(i, v) == apply_coproduct_factored(False, i, v)
    el = data.draw(st.sampled_from(lowering_elements(v.field, v.n)))
    assert apply_neg(el, v) == apply_neg_letterwise(el, v)


@pytest.mark.parametrize("field", FIELDS, ids=["generic", "q0"])
def test_lincomb(field):
    one, q = field.one(), field.q_power(1)
    two = field.from_int(2)
    # entries that cancel are dropped, down to the empty dict
    assert lincomb([(one, {(1,): q, (2,): one}), (-one, {(1,): q}), (q, {(2,): one})], one) == {
        (2,): one + q}
    assert lincomb([(one, {(1,): q}), (-one, {(1,): q})], one) == {}
    # a zero scalar contributes nothing, not even a product
    class NoProducts:
        def __mul__(self, other):
            raise AssertionError("multiplied")
        __rmul__ = __mul__
    assert lincomb([(field.zero(), {(1,): NoProducts()}), (two, {(2,): q})], one) == {(2,): two * q}
    # a coefficient that is one passes the scalar through unmultiplied, and a
    # scalar that is one passes the coefficient through
    out = lincomb([(q, {(1,): one}), (one, {(2,): q})], one)
    assert out == {(1,): q, (2,): q}
    assert out[(1,)] is q and out[(2,)] is q
    assert lincomb([], one) == {}


def termwise_bilinear(u, v):
    """Oracle for the cleared pairing: the standard form summed term by term,
    each partial sum in the field."""
    total = u.field.zero()
    for idx, c in u.coeffs.items():
        d = v.coeffs.get(idx)
        if d is not None:
            total = total + c * d
    return total


@st.composite
def pairing_operands(draw):
    """Two vectors of one space over either field, with coefficients that
    carry integer and polynomial denominators; either may be zero, and their
    supports may be equal, disjoint or overlapping."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(min_value=2, max_value=3))
    r = draw(st.integers(min_value=1, max_value=3))
    indices = list(itertools.product(range(1, n + 1), repeat=r))
    small = st.integers(min_value=1, max_value=4)

    def coeff():
        num = field.from_int(draw(st.sampled_from([-3, -1, 1, 2]))) * field.qint(draw(small))
        return num * field.q_power(draw(st.integers(min_value=-3, max_value=3))) / (
            field.from_int(draw(st.integers(min_value=1, max_value=3))) * field.qint(draw(small)))

    u_keys = draw(st.lists(st.sampled_from(indices), max_size=6, unique=True))
    support = draw(st.sampled_from(["same", "disjoint", "any"]))
    if support == "same":
        v_keys = u_keys
    else:
        pool = [idx for idx in indices if support == "any" or idx not in u_keys]
        v_keys = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True)) if pool else []
    return (TensorVector(field, n, r, {idx: coeff() for idx in u_keys}),
            TensorVector(field, n, r, {idx: coeff() for idx in v_keys}))


@given(case=pairing_operands())
@settings(max_examples=120, deadline=None)
def test_cleared_pairing_matches_termwise(case):
    u, v = case
    field = u.field
    expected = termwise_bilinear(u, v)
    assert field.pair(field.clear(u.coeffs), field.clear(v.coeffs)) == expected
    assert bilinear(u, v) == expected == bilinear(v, u)
    assert bilinear(u, u) == termwise_bilinear(u, u)
    if not expected:
        assert bilinear(u, v) is field.zero()


def test_bilinear_examples():
    v12, v21 = basis((1, 2)), basis((2, 1))
    assert bilinear(v12, v12) == GEN.one()
    assert not bilinear(v12, v21)
    c = v21 - v12.scale(GEN.q_power(-1))
    assert bilinear(c, c) == GEN.one() + GEN.q_power(-2)
    with pytest.raises(ShapeMismatchError):
        bilinear(v12, basis((1,)))


def test_zero_results_keep_shape():
    z = apply_E(1, basis((1, 1)))
    assert z.is_zero and z.n == 2 and z.r == 2
    assert z == TensorVector.zero(GEN, 2, 2)


@pytest.mark.parametrize("n,r", [(2, 3), (3, 2)])
def test_defining_relations_small(n, r):
    for res in check_quantum_relations(n, r, GEN):
        assert res.ok, res.name


@pytest.mark.parametrize("n,r", [(2, 4), (3, 3)])
def test_hecke_relations_small(n, r):
    for res in check_hecke_relations(n, r, GEN):
        assert res.ok, res.name


@pytest.mark.parametrize("n,r", [(2, 3), (3, 3)])
def test_commuting_actions_small(n, r):
    assert check_commuting_actions(n, r, GEN).ok


def test_relations_specialized():
    fq = ScalarField.at(Fraction(3, 2))
    assert all(res.ok for res in check_quantum_relations(2, 3, fq))
    assert all(res.ok for res in check_hecke_relations(2, 3, fq))
    assert check_commuting_actions(2, 3, fq).ok


@st.composite
def weight_vectors(draw, n=3, r=3):
    """Random vector supported on a single letter content."""
    content = tuple(draw(st.integers(min_value=1, max_value=n)) for _ in range(r))
    perms = sorted(set(itertools.permutations(content)))
    chosen = draw(st.lists(st.sampled_from(perms), min_size=1, max_size=4, unique=True))
    coeffs = {}
    for idx in chosen:
        num = draw(st.integers(min_value=-3, max_value=3))
        e = draw(st.integers(min_value=-2, max_value=2))
        coeffs[idx] = GEN.from_int(num) * GEN.q_power(e)
    return TensorVector(GEN, n, r, coeffs)


@given(b=weight_vectors(), bp=weight_vectors(), i=st.integers(min_value=1, max_value=2))
@settings(max_examples=60, deadline=None)
def test_adjointness_on_weight_vectors(b, bp, i):
    # <E_i b, b'> = q^(a_i(wt b)+1) <b, F_i b'>, zero sides included
    if b.is_zero or bp.is_zero:
        return
    lam = weight_of(b)
    a_i = lam[i - 1] - lam[i]
    lhs = bilinear(apply_E(i, b), bp)
    rhs = GEN.q_power(a_i + 1) * bilinear(b, apply_F(i, bp))
    assert lhs == rhs


@given(b=weight_vectors(), bp=weight_vectors())
@settings(max_examples=40, deadline=None)
def test_weight_orthogonality(b, bp):
    if b.is_zero or bp.is_zero:
        return
    if weight_of(b) != weight_of(bp):
        assert not bilinear(b, bp)


def test_contraction_on_maximal_vectors():
    # E_j b = 0 implies E_j F_j b = [a_j] b
    for n, r in [(2, 3), (3, 3), (3, 4)]:
        for walk in enumerate_walks(n, r):
            rec = build_c_pi(walk, GEN, n)
            lam = weight_of(rec.vector)
            for j in range(1, n):
                assert apply_E(j, rec.vector).is_zero
                got = apply_E(j, apply_F(j, rec.vector))
                expect = rec.vector.scale(GEN.qint(lam[j - 1] - lam[j]))
                assert got == expect


def test_shape_validation():
    with pytest.raises(ValueError):
        TensorVector(GEN, 2, 2, {(1, 2, 1): GEN.one()})
    with pytest.raises(ValueError):
        TensorVector(GEN, 2, 2, {(1, 3): GEN.one()})
    with pytest.raises(ShapeMismatchError):
        basis((1, 2)) + TensorVector.basis(GEN, 3, (1, 2))


def _oracle_terms(v):
    """(index list, str of the coefficient) in lexicographic index order."""
    return [(list(idx), str(c)) for idx, c in sorted(v.coeffs.items())]


def _oracle_format(v):
    parts = []
    for idx, ctext in _oracle_terms(v):
        if " " in ctext and not ctext.startswith("("):
            ctext = f"({ctext})"
        body = "v[" + ",".join(map(str, idx)) + "]"
        parts.append(body if ctext == "1" else f"{ctext}*{body}")
    return " + ".join(parts) or "0"


@pytest.mark.parametrize("q0", [None, Fraction(3, 2), Fraction(-2, 5)], ids=str)
def test_rendering_matches_a_list_based_oracle(q0):
    # built vectors (held cleared), vectors made by arithmetic, one with a
    # coefficient repeated on many indices, and the zero vector
    field = ScalarField(q0)
    built = [rec.vector for rec in maximal_basis(3, 4, field)]
    c = field.qint(3) / field.qint(2)
    vectors = built + [v.scale(c) for v in built] + [built[-1] + built[-2], TensorVector.zero(field, 3, 2),
                       TensorVector(field, 3, 2, {idx: c for idx in itertools.product((1, 2, 3), repeat=2)})]
    for v in vectors:
        oracle = {"n": v.n, "r": v.r, "terms": [{"idx": idx, "coeff": text} for idx, text in _oracle_terms(v)]}
        assert json.dumps(vector_to_json_dict(v)) == json.dumps(oracle)
        assert format_vector(v) == _oracle_format(v)
