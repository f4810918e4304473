import itertools
import random
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from qtensor import coeff
from qtensor.coeff import (
    LaurentPoly,
    RatFunc,
    ScalarField,
    parse_laurent,
    parse_ratfunc,
    qfact,
    qint,
    specialize,
)

Q = sympy.Symbol("q")


def to_sympy(p: LaurentPoly):
    return sympy.Add(*(c * Q**e for e, c in p.terms().items()))


@st.composite
def laurent_polys(draw, min_terms=0, max_terms=6):
    pairs = draw(st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-9, max_value=9),
        min_size=min_terms, max_size=max_terms,
    ))
    return LaurentPoly(pairs)


nonzero_laurent = laurent_polys(min_terms=1).filter(lambda p: not p.is_zero)

# products of balanced q-integers: the shape of the denominators the
# construction produces
qint_products = st.lists(st.integers(min_value=1, max_value=8), max_size=4).map(
    lambda ms: reduce(mul, map(qint, ms), LaurentPoly.one()))


def test_qint_examples():
    assert qint(0) == LaurentPoly()
    assert qint(2) == LaurentPoly({1: 1, -1: 1})
    assert qint(-3) == -LaurentPoly({2: 1, 0: 1, -2: 1})
    assert qint(1) == LaurentPoly.one()


def test_qint_balanced_sum():
    for m in range(1, 9):
        assert qint(m) == LaurentPoly({m - 1 - 2 * t: 1 for t in range(m)})
        assert qint(-m) == -qint(m)


def test_qfact_examples():
    assert qfact(0) == LaurentPoly.one()
    assert qfact(2) == qint(2)
    # hand expansion of [2][3] = (q + q^-1)(q^2 + 1 + q^-2)
    assert qfact(3) == LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})
    with pytest.raises(ValueError):
        qfact(-1)


def test_qfact_matches_sympy_product():
    expected = sympy.Integer(1)
    for m in range(1, 7):
        expected *= to_sympy(qint(m))
        assert sympy.expand(to_sympy(qfact(m)) - expected) == 0


def test_ratfunc_arith_examples():
    half = RatFunc(1, qint(2))
    assert half + half == RatFunc(2, qint(2))
    q = RatFunc.from_laurent(LaurentPoly.q_power(1))
    qinv = RatFunc.from_laurent(LaurentPoly.q_power(-1))
    assert q * qinv == RatFunc.from_int(1)
    # [4]/[2]: long-division oracle over the rationals confirms q^2 + q^-2
    assert _divide_laurent(qint(4), qint(2)) == LaurentPoly({2: 1, -2: 1})
    assert RatFunc(qint(4), qint(2)) == RatFunc.from_laurent(LaurentPoly({2: 1, -2: 1}))


def _divide_laurent(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Independent long division of Laurent polynomials (exact or raises)."""
    shift = a.min_exp() - b.min_exp()
    da = [Fraction(a.coeff(a.min_exp() + i)) for i in range(a.max_exp() - a.min_exp() + 1)]
    db = [Fraction(b.coeff(b.min_exp() + i)) for i in range(b.max_exp() - b.min_exp() + 1)]
    quot = [Fraction(0)] * (len(da) - len(db) + 1)
    while da and len(da) >= len(db):
        f = da[-1] / db[-1]
        pos = len(da) - len(db)
        quot[pos] = f
        for i, c in enumerate(db):
            da[pos + i] -= f * c
        while da and da[-1] == 0:
            da.pop()
    assert not da, "inexact division"
    terms = {shift + i: int(c) for i, c in enumerate(quot) if c}
    assert all(c.denominator == 1 for c in quot)
    return LaurentPoly(terms)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RatFunc(qint(2)) / RatFunc.from_int(0)
    with pytest.raises(ZeroDivisionError):
        RatFunc(qint(2), LaurentPoly())


def test_specialize_examples():
    assert specialize(RatFunc.from_laurent(qint(2)), 2) == Fraction(5, 2)
    assert specialize(RatFunc.from_laurent(qint(3)), 3) == Fraction(91, 9)
    for bad in (0, 1, -1, 0.5):  # a float is already rounded, so it is refused too
        with pytest.raises(ValueError):
            specialize(RatFunc.from_laurent(qint(2)), bad)


def test_evaluate_is_exact_and_refuses_floats_and_zero():
    # 2 ** -1 is a float in Python; the value at an int q0 is still a Fraction
    half_sum, three_quarters = LaurentPoly({-1: 1, 1: 1}).evaluate(2), LaurentPoly({-2: 3}).evaluate(2)
    assert (type(half_sum), half_sum) == (Fraction, Fraction(5, 2))
    assert (type(three_quarters), three_quarters) == (Fraction, Fraction(3, 4))
    # only specialize refuses the roots of unity
    assert LaurentPoly({-1: 1, 1: 1}).evaluate(-1) == -2 and RatFunc(qint(2), qint(3)).evaluate(1) == Fraction(2, 3)
    for x in (LaurentPoly({-1: 1, 1: 1}), RatFunc(LaurentPoly({-1: 1}), LaurentPoly({1: 1, 0: -2}))):
        for bad in (0.5, 2.0, 0, Fraction(0)):
            with pytest.raises(ValueError):
                x.evaluate(bad)
    with pytest.raises(ZeroDivisionError):  # 1/(q - 2) at 2
        RatFunc(1, LaurentPoly({1: 1, 0: -2})).evaluate(2)


def _sympy_ratio(x):
    return (to_sympy(x.num), to_sympy(x.den)) if isinstance(x, RatFunc) else (to_sympy(x), sympy.Integer(1))


@given(a=laurent_polys(), b=nonzero_laurent, c=nonzero_laurent, m=st.integers(-9, 9))
@settings(max_examples=40, deadline=None)
def test_reflected_arithmetic_against_sympy(a, b, c, m):
    # the int and LaurentPoly left operands reach LaurentPoly.__rsub__,
    # RatFunc.__rsub__ and RatFunc.__rtruediv__
    x, y = RatFunc(a, b), RatFunc(c, b)
    sa, sb, sc = map(to_sympy, (a, b, c))
    cases = [(a - m, sa - m, 1), (m - a, m - sa, 1), (m - x, m * sb - sa, sb), (c - x, sc * sb - sa, sb),
             (m / y, m * sb, sc), (a / y, sa * sb, sc)]
    assert [type(got) for got, _, _ in cases] == [LaurentPoly] * 2 + [RatFunc] * 4
    for got, num, den in cases:
        got_num, got_den = _sympy_ratio(got)
        assert sympy.expand(got_num * den - got_den * num) == 0


def test_negative_laurent_powers_and_bad_terms_are_refused():
    with pytest.raises(ValueError):
        qint(2) ** -1
    for text in ("2*x", "q^", "q + 3*q^1.5"):
        with pytest.raises(ValueError):
            parse_laurent(text)


def test_qint_identity_a_exhaustive():
    # [y+1][z+1] - [y][z] = [y+z+1] over the stated window
    for y in range(-10, 11):
        for z in range(-10, 11):
            assert qint(y + 1) * qint(z + 1) - qint(y) * qint(z) == qint(y + z + 1)


def test_qint_identity_b_exhaustive():
    # [z] + q^(-z-1) = q^-1 [z+1]
    for z in range(-10, 11):
        lhs = qint(z) + LaurentPoly.q_power(-z - 1)
        rhs = LaurentPoly.q_power(-1) * qint(z + 1)
        assert lhs == rhs


@given(a=laurent_polys(), b=nonzero_laurent)
@settings(max_examples=100, deadline=None)
def test_normalize_round_trip(a, b):
    # normalize(a/b) * b = a
    frac = RatFunc(a, b)
    assert frac * RatFunc.from_laurent(b) == RatFunc.from_laurent(a)


@given(a=laurent_polys(), b=nonzero_laurent, c=laurent_polys(), d=nonzero_laurent)
@settings(max_examples=60, deadline=None)
def test_field_arithmetic_against_sympy(a, b, c, d):
    x = RatFunc(a, b)
    y = RatFunc(c, d)
    sa, sb, sc, sd = map(to_sympy, (a, b, c, d))
    total = x + y
    prod = x * y
    # num/den == a/b + c/d and num/den == (a/b)(c/d), cross-multiplied: exact,
    # since every denominator is nonzero
    assert sympy.expand(to_sympy(total.num) * sb * sd - to_sympy(total.den) * (sa * sd + sc * sb)) == 0
    assert sympy.expand(to_sympy(prod.num) * sb * sd - to_sympy(prod.den) * sa * sc) == 0


@given(a=laurent_polys(), b=laurent_polys(), q0=st.sampled_from([Fraction(2), Fraction(3, 2), Fraction(-5), Fraction(-2, 7)]))
@settings(max_examples=100, deadline=None)
def test_specialize_is_ring_hom(a, b, q0):
    ra, rb = RatFunc.from_laurent(a), RatFunc.from_laurent(b)
    assert specialize(ra + rb, q0) == specialize(ra, q0) + specialize(rb, q0)
    assert specialize(ra * rb, q0) == specialize(ra, q0) * specialize(rb, q0)


@given(a=laurent_polys(), b=nonzero_laurent)
@settings(max_examples=100, deadline=None)
def test_canonical_equality(a, b):
    # scaling numerator and denominator together is invisible
    scale = LaurentPoly({2: 3, -1: -7})
    assert RatFunc(a * scale, b * scale) == RatFunc(a, b)
    x = RatFunc(a, b)
    if x:
        assert x * x.inverse() == RatFunc.from_int(1)
        assert x ** -2 == (x.inverse()) ** 2


@given(a=st.one_of(st.integers(min_value=-9, max_value=9), laurent_polys(max_terms=2)),
       b=st.one_of(st.integers(min_value=-9, max_value=9), laurent_polys(max_terms=2)),
       scale=nonzero_laurent)
@settings(max_examples=150, deadline=None)
def test_equal_coefficients_hash_equal(a, b, scale):
    # every int or Laurent polynomial, as itself, as a constant or a field
    # element, and as that element written over a common factor
    forms = []
    for x in (a, b):
        poly = LaurentPoly.const(x) if isinstance(x, int) else x
        forms += [x, poly, RatFunc(x), RatFunc.from_laurent(poly), RatFunc(poly * scale, scale)]
    for x, y in itertools.product(forms, repeat=2):
        if x == y:
            assert hash(x) == hash(y), (x, y)
    assert len({LaurentPoly.const(2), 2, RatFunc(2)}) == 1
    assert hash(LaurentPoly()) == hash(RatFunc(0)) == hash(0)


def test_rendering_examples():
    assert str(LaurentPoly()) == "0"
    assert str(qint(2)) == "q + q^-1"
    assert str(qfact(3)) == "q^3 + 2*q + 2*q^-1 + q^-3"
    assert str(-qint(3)) == "-q^2 - 1 - q^-2"
    assert str(LaurentPoly({-1: -1})) == "-q^-1"
    assert str(RatFunc(qint(4), qint(2))) == "q^2 + q^-2"
    assert str(RatFunc(1, qint(2))) == "(q)/(q^2 + 1)"


@given(a=laurent_polys())
@settings(max_examples=150, deadline=None)
def test_laurent_text_round_trip(a):
    assert parse_laurent(str(a)) == a


@given(a=laurent_polys(), b=nonzero_laurent)
@settings(max_examples=150, deadline=None)
def test_ratfunc_text_round_trip(a, b):
    x = RatFunc(a, b)
    assert parse_ratfunc(str(x)) == x


@given(a=laurent_polys(), b=laurent_polys(), c=laurent_polys())
@settings(max_examples=80, deadline=None)
def test_ring_axioms_randomized(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_scalar_field_dispatch():
    gen = ScalarField.generic()
    spec = ScalarField.at(Fraction(3, 2))
    assert gen.qint(2) == RatFunc.from_laurent(qint(2))
    assert gen.q_power(-2) == RatFunc.from_laurent(LaurentPoly.q_power(-2))
    assert spec.qint(2) == Fraction(3, 2) + Fraction(2, 3)
    assert spec.q_power(-2) == Fraction(4, 9)
    assert gen.parse(str(gen.qint(3) / gen.qint(2))) == gen.qint(3) / gen.qint(2)
    assert spec.parse(str(spec.qint(3))) == spec.qint(3)
    for bad, reason in ((0, "q0 = 0 is excluded"), (1, "q0 = 1 is excluded"), (-1, "q0 = -1 is excluded"),
                        ("1e99999999", "expected num"), ("0.5", "expected num"), ("1/0", "zero denominator"),
                        ("x", "expected num"), (0.1, "text, not float"), (2.5, "text, not float")):
        for make in (ScalarField, ScalarField.at):
            with pytest.raises(ValueError, match=reason):
                make(bad)
    # text, Fraction and the constructor give one field, of one class
    same = [ScalarField("3/2"), ScalarField.at(Fraction(3, 2)), ScalarField.at("3/2")]
    assert same[0] == same[1] == same[2] and len({type(f) for f in same}) == 1
    assert len({hash(f) for f in same}) == 1 and type(gen) is not type(spec)


@pytest.mark.parametrize("field", [ScalarField.generic(), ScalarField.at("3/2")], ids=["generic", "q0"])
def test_field_one_is_shared(field):
    # lincomb recognises the identity by `is`, so every caller must get the same object
    assert field.one() is field.one()
    assert field.one() == field.from_int(1)


@pytest.mark.parametrize("field", [ScalarField.generic(), ScalarField.at("3/2")], ids=["generic", "q0"])
def test_field_zero_is_shared(field):
    # built once per field, like the one, and returned by pair for a vanishing sum
    assert field.zero() is field.zero()
    assert field.zero() == field.from_int(0) and not field.zero()
    assert field.pair(field.clear({(1,): field.one()}), field.clear({(2,): field.one()})) is field.zero()
    assert field == ScalarField(field.q0) and hash(field) == hash((field.q0,))


@st.composite
def coefficient_dicts(draw):
    """A dict of fractions over either field: q-integer quotients times
    integer fractions and powers of q."""
    field = draw(st.sampled_from([ScalarField.generic(), ScalarField.at("3/2")]))
    small = st.integers(min_value=1, max_value=5)
    out = {}
    for key in range(draw(st.integers(min_value=0, max_value=6))):
        num = field.from_int(draw(st.integers(min_value=-4, max_value=4))) * field.qint(draw(small))
        den = field.from_int(draw(small)) * field.qint(draw(small)) * field.qint(draw(small))
        out[key] = num * field.q_power(draw(st.integers(min_value=-3, max_value=3))) / den
    return field, out


@given(case=coefficient_dicts())
@settings(max_examples=80, deadline=None)
def test_clear_invariants(case):
    field, coeffs = case
    D, numerators = field.clear(coeffs)
    assert numerators.keys() == coeffs.keys()
    if field.q0 is None:
        # numerators in Z[q, 1/q], D the lcm of the denominators in canonical form
        assert isinstance(D, LaurentPoly) and D.min_exp() == 0 and D.coeff(D.max_exp()) > 0
        assert all(isinstance(a, LaurentPoly) for a in numerators.values())
        assert all(RatFunc(numerators[k], D) == c for k, c in coeffs.items())
        dens = [to_sympy(c.den) for c in coeffs.values()]
        assert sympy.expand(to_sympy(D) - reduce(sympy.lcm, dens, sympy.Integer(1))) == 0
    else:
        assert isinstance(D, int) and D > 0
        assert all(isinstance(a, int) for a in numerators.values())
        assert all(Fraction(numerators[k], D) == c for k, c in coeffs.items())
        assert D == reduce(lambda a, b: a * b // gcd(a, b), (c.denominator for c in coeffs.values()), 1)


def test_specialized_q_power_memo_keeps_fields_apart():
    # each field memoises its own powers; q0 and its sign and inverse must not collide
    for _ in range(2):
        assert [ScalarField.at(q).q_power(3) for q in ("3/2", "-3/2", "2/3")] == [
            Fraction(27, 8), Fraction(-27, 8), Fraction(8, 27)]
        assert ScalarField.at("3/2").q_power(0) == 1


@pytest.mark.parametrize("q0", ["2", "3/2", "-2/5", "1/3", "-7"])
def test_numerator_ring_at_q0_is_integer(q0):
    field = ScalarField.at(q0)
    for r in range(5):
        power, den = field.numerator_ring(r)
        assert isinstance(den, int) and den
        for e in range(-r, r + 1):
            assert isinstance(power(e), int)
            assert Fraction(power(e), den) == field.q_power(e)
        coeffs = {(1,): Fraction(3, 4), (2,): field.q_power(-2)}
        D, nums = field._ring_clear(coeffs)
        assert all(field._ring_over(x, D) == coeffs[k] for k, x in nums.items())


def test_numerator_ring_on_generic_field_keeps_field_elements():
    field = ScalarField.generic()
    power, den = field.numerator_ring(3)
    coeffs = {(1,): RatFunc(qint(2), qint(3))}
    assert field._ring_clear(coeffs) == (1, coeffs) and den == 1
    assert power(0) is field.one() and power(-2) == field.q_power(-2)
    x = coeffs[(1,)]
    assert field._ring_over(x, den * den) is x


def test_q_power_zero_is_the_field_one():
    for field in (ScalarField.generic(), ScalarField.at("3/2")):
        assert field.q_power(0) is field.one()


def test_exponent_bound_raises_overflow():
    for e in (10**6, -(10**6)):
        with pytest.raises(OverflowError):
            LaurentPoly({e: 1})
    top = LaurentPoly.q_power(10**6 - 1)
    with pytest.raises(OverflowError):
        top * LaurentPoly.q_power(1)  # single-term product
    with pytest.raises(OverflowError):
        (top + 1) * LaurentPoly({1: 1, 0: 1})  # general product


def test_inexact_division_returns_none():
    assert coeff._divide([1, 2, 1], [1, 1]) == [1, 1]
    assert coeff._divide([1, 2], [1, 1]) is None  # (1 + 2q) / (1 + q)
    assert coeff._divide([1, 0, 1], [1, 1]) is None  # (1 + q^2) / (1 + q)


# -- integer gcd against the sympy oracle ------------------------------------


def _primitive_dense(p: LaurentPoly) -> list[int]:
    cs = coeff._dense(p)[1]
    g = gcd(*cs)
    return [c // g for c in cs]


def _polymul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sympy_gcd(a: list[int], b: list[int]) -> list[int]:
    """sympy's gcd, made primitive with a positive leading coefficient."""
    g = sympy.Poly(a[::-1], Q).gcd(sympy.Poly(b[::-1], Q)).primitive()[1]
    if g.LC() < 0:
        g = -g
    return [int(c) for c in g.all_coeffs()[::-1]]


def _assert_gcd(a: list[int], b: list[int]) -> None:
    g, qa, qb = coeff._poly_gcd(a, b)
    assert g == _sympy_gcd(a, b)
    assert _polymul(g, qa) == a and _polymul(g, qb) == b


def test_poly_gcd_rejects_candidate_dividing_one_operand():
    # At the first xi = 6, gcd(7, 14) = 7 reads back as 1 + q, which divides
    # 1 + q but not 8 + q; trial division must reject it.
    _assert_gcd([1, 1], [8, 1])


@given(a=nonzero_laurent, b=nonzero_laurent, c=nonzero_laurent, u=qint_products, v=qint_products)
@settings(max_examples=150, deadline=None)
def test_poly_gcd_matches_sympy(a, b, c, u, v):
    x = _primitive_dense(a * c * u)
    y = _primitive_dense(b * c * v)
    _assert_gcd(x, y)


@pytest.mark.parametrize("a,b,candidates", [
    ([1, 0, -1], [1, 0, 3, 0, 5, 0, 6, 0, 6, 0, 5, 0, 3, 0, 1], 3),
    ([-1, 0, 1], [1, 0, 1, 0, 1, 0, 1, 0, 1], 2),
], ids=["three xi", "two xi"])
def test_poly_gcd_retries_xi_until_a_candidate_divides(a, b, candidates, monkeypatch):
    # pairs met in the generic (4,7) Specht stage whose first candidates fail
    # the trial division: the gcd reads one candidate per xi until one passes
    reads, real = [], coeff._digits
    monkeypatch.setattr(coeff, "_digits", lambda v, xi: reads.append(xi) or real(v, xi))
    _assert_gcd(a, b)
    assert len(reads) >= candidates and len(set(reads)) == len(reads)


def test_poly_gcd_huge_coefficients():
    rng = random.Random(20)

    def poly(deg, bound):
        return LaurentPoly({e: rng.choice((-1, 1)) * rng.randint(bound, 10 * bound) for e in range(deg + 1)})

    for _ in range(10):
        common = poly(rng.randint(1, 4), 10**20)
        x = _primitive_dense(poly(rng.randint(0, 5), 10**21) * common * qint(rng.randint(1, 6)))
        y = _primitive_dense(poly(rng.randint(0, 5), 10**20) * common)
        assert max(map(abs, x + y)) >= 10**20
        _assert_gcd(x, y)
        frac = RatFunc(LaurentPoly(dict(enumerate(x))), LaurentPoly(dict(enumerate(y))))
        assert frac.den.max_exp() == len(y) - len(_sympy_gcd(x, y))


# -- gcd-free shortcuts give the constructor's canonical form ----------------


def _same_pair(got: RatFunc, expected: RatFunc) -> bool:
    return got.num.terms() == expected.num.terms() and got.den.terms() == expected.den.terms()


@given(a=laurent_polys(), b=nonzero_laurent, k=st.integers(-6, 6), c=st.integers(-12, 12).filter(bool))
@example(a=LaurentPoly.one(), b=LaurentPoly({1: 2, 0: 4}), k=1, c=6)  # content 2 cancels
@settings(max_examples=150, deadline=None)
def test_monomial_product_shortcut_is_canonical(a, b, k, c):
    x = RatFunc(a, b)
    m = LaurentPoly({k: c})
    expected = RatFunc(x.num * m, x.den)
    for got in (x * m, m * x, x * RatFunc.from_laurent(m), RatFunc.from_laurent(m) * x):
        assert _same_pair(got, expected)


@given(a=laurent_polys(), b=nonzero_laurent, p=laurent_polys())
@settings(max_examples=150, deadline=None)
def test_shared_denominator_sum_is_canonical(a, b, p):
    x = RatFunc(a, b)
    # x + p keeps x's canonical denominator, and so does -x
    for y in (x, -x, x + p):
        assert y.den == x.den
        expected = RatFunc(x.num * y.den + y.num * x.den, x.den * y.den)
        assert _same_pair(x + y, expected)
