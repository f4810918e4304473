"""Exact coefficient arithmetic.

Integer Laurent polynomials in q, their fraction field, balanced
q-integers and q-factorials, and evaluation at a rational q.  All values
are immutable; every operation returns a new value, so sharing between
threads needs no synchronization.

Canonical form.  A `RatFunc` is stored as (num, den): integer Laurent
polynomials with no common factor other than a unit +-q^k, den with lowest
exponent 0 and a positive leading coefficient, and the integer coefficients
of num and den together having gcd 1.  Each fraction has exactly one such
pair, so equality is structural.

The canonical form is computed in integers only.  The polynomial gcd is the
heuristic GCD of Char, Geddes & Gonnet (1989): evaluate both primitive parts
at an integer xi, take the integer gcd, and read the candidate back from its
symmetric base-xi digits.  A candidate is accepted only after exact integer
trial division of both operands; with xi above twice the root bound, such a
candidate is the gcd.  A rejected candidate sends xi up, and a large enough
xi always gives the gcd, so the retries end (``_poly_gcd``).  Sums and products
that cannot cancel a polynomial factor skip the gcd: a product with a
monomial +-c*q^k only fixes the integer content, and a sum over a shared
denominator b needs only gcd(a + c, b).

Two domains, one interface.  ``ScalarField(q0)`` is Q(q) for q0 = None,
else Q at the rational q = q0 (an int, a `Fraction` or num[/den] text); it
is the only code that reads a q0.  A field's memo of q-powers fills
idempotently, so sharing a field between threads needs no lock either.

Cleared pairing.  ``ScalarField.clear`` writes a coefficient dict over one
common denominator D, the lcm of its denominators (by the same gcd), with
numerators in the ring: ints at a rational q0, `LaurentPoly` on the generic
field.  ``ScalarField.pair`` sums numerator products in the ring and divides
once, by D_u * D_v, so a pairing of two vectors costs one normalization
however many terms they share, and a pairing that vanishes costs none.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm

__all__ = [
    "LaurentPoly",
    "RatFunc",
    "ScalarField",
    "qint",
    "qfact",
    "specialize",
    "parse_laurent",
    "parse_ratfunc",
]

# Desk-scale guard: exponents anywhere near this indicate a runaway computation.
_EXPONENT_LIMIT = 10**6


def _check_exponents(terms: dict[int, int]) -> None:
    lo, hi = min(terms), max(terms)
    if lo <= -_EXPONENT_LIMIT or hi >= _EXPONENT_LIMIT:
        raise OverflowError(f"exponent {lo if lo <= -_EXPONENT_LIMIT else hi} out of bounds")


class LaurentPoly:
    """Sparse integer Laurent polynomial in q (exponent -> coefficient map).

    Coefficients are arbitrary-precision ints; no stored coefficient is zero.
    It reads as its own fraction ``num`` / ``den`` over one, as an int does.
    """

    __slots__ = ("_terms",)
    num = property(lambda self: self)
    den = property(lambda self: _L_ONE)

    def __init__(self, terms: dict[int, int] | None = None):
        clean = {e: c for e, c in terms.items() if c} if terms else {}
        if clean:
            _check_exponents(clean)
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return _L_ZERO

    @classmethod
    def one(cls) -> LaurentPoly:
        return _L_ONE

    @classmethod
    def const(cls, c: int) -> LaurentPoly:
        return cls({0: c})

    @classmethod
    def q_power(cls, e: int) -> LaurentPoly:
        return cls({e: 1})

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[int, int]:
        """Copy of the exponent -> coefficient map."""
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        terms = self._terms
        return len(terms) == 1 and terms.get(0) == 1

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    def coeff(self, e: int) -> int:
        return self._terms.get(e, 0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _laurent(out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _laurent({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> LaurentPoly:
        return LaurentPoly.const(other) - self

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            if other == 0:
                return _L_ZERO
            return _laurent({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        short, long = self._terms, other._terms
        if len(short) > len(long):
            short, long = long, short
        if len(short) == 1:
            ((k, m),) = short.items()
            out = {e + k: c * m for e, c in long.items()}
        else:
            out = {}
            for e1, c1 in short.items():
                for e2, c2 in long.items():
                    e = e1 + e2
                    s = out.get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
        if out:
            _check_exponents(out)
        return _laurent(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> LaurentPoly:
        if k < 0:
            raise ValueError("negative powers need the fraction field")
        out = _L_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shifted(self, k: int) -> LaurentPoly:
        """Multiply by q^k."""
        return _laurent({e + k: c for e, c in self._terms.items()})

    def evaluate(self, q0: Fraction | int) -> Fraction:
        if not isinstance(q0, (int, Fraction)) or q0 == 0:
            raise ValueError(f"cannot evaluate a Laurent polynomial at {q0!r}: need a nonzero int or Fraction")
        q0 = Fraction(q0)
        return sum((c * q0**e for e, c in self._terms.items()), Fraction(0))

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        terms = self._terms
        if not terms or len(terms) == 1 and 0 in terms:
            return hash(terms.get(0, 0))  # a constant equals, so hashes as, its int
        return hash(tuple(sorted(terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                qpart = "q" if e == 1 else f"q^{e}"
                body = qpart if mag == 1 else f"{mag}*{qpart}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _laurent(terms: dict[int, int]) -> LaurentPoly:
    # Caller guarantees no zero coefficient and exponents within bounds.
    res = LaurentPoly.__new__(LaurentPoly)
    res._terms = terms
    return res


_L_ZERO = LaurentPoly()
_L_ONE = LaurentPoly({0: 1})


def qint(m: int) -> LaurentPoly:
    """Balanced q-integer: (q^m - q^-m)/(q - q^-1), an integer Laurent polynomial."""
    if m == 0:
        return _L_ZERO
    if m < 0:
        return -qint(-m)
    return LaurentPoly({m - 1 - 2 * t: 1 for t in range(m)})


def qfact(m: int) -> LaurentPoly:
    """q-factorial: the product of the q-integers 1..m (1 for m = 0)."""
    if m < 0:
        raise ValueError("q-factorial needs m >= 0")
    out = _L_ONE
    for k in range(2, m + 1):
        out = out * qint(k)
    return out


# -- integer polynomial gcd ---------------------------------------------------
#
# Dense low-to-high int coefficient lists with a nonzero constant term; the
# caller shifts out the q-valuation first so units q^k never enter the gcd.

def _dense(p: LaurentPoly) -> tuple[int, list[int]]:
    terms = p._terms
    lo, hi = min(terms), max(terms)
    get = terms.get
    return lo, [get(e, 0) for e in range(lo, hi + 1)]


def _divide(a: list[int], b: list[int]) -> list[int] | None:
    """Quotient a / b in Z[q], or None when b does not divide a exactly."""
    nb = len(b) - 1
    nq = len(a) - nb
    if nq <= 0 or a[0] % b[0]:
        return None
    rem = list(a)
    lead = b[-1]
    quot = [0] * nq
    for i in range(nq - 1, -1, -1):
        c, r = divmod(rem[i + nb], lead)
        if r:
            return None
        if c:
            quot[i] = c
            for j in range(nb):
                rem[i + j] -= c * b[j]
    return None if any(rem[:nb]) else quot


def _eval(a: list[int], xi: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * xi + c
    return v


def _digits(v: int, xi: int) -> list[int]:
    """Symmetric base-xi digits of v, low to high, each in (-xi/2, xi/2]."""
    half = xi // 2
    out = []
    while v:
        d = v % xi
        if d > half:
            d -= xi
        out.append(d)
        v = (v - d) // xi
    return out


def _poly_gcd(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(g, a / g, b / g) for primitive a, b with nonzero constant terms, where
    g is their gcd: primitive with a positive leading coefficient.

    Heuristic GCD (Char, Geddes & Gonnet 1989).  The roots of g are roots of
    both a and b, so by Cauchy's bound their moduli are below
    R = 1 + min(|a|_inf, |b|_inf), and every xi tried exceeds 2R.  At such xi
    a candidate read from the symmetric digits of gcd(a(xi), b(xi)) whose
    primitive part h divides both a and b is g itself: g = h*k with k
    nonconstant would need |k(xi)| <= xi/2, yet |k(xi)| >= xi - R > xi/2.
    A candidate that fails the trial division sends xi up, and the retries
    end: write a = g*a', b = g*b'.  Then gcd(a(xi), b(xi)) = g(xi)*gamma,
    where gamma divides Res(a', b') != 0, so once xi > 2*|Res|*|g|_inf the
    symmetric digits are those of gamma*g, whose primitive part is g.  Each
    retry multiplies xi by 2.73*floor(xi^(1/4)), rounded down, which takes it
    to at least xi^(5/4), so the number of tries is O(log log(|Res|*|g|_inf))."""
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 4
    while True:
        h = _digits(gcd(_eval(a, xi), _eval(b, xi)), xi)
        if len(h) == 1:
            return [1], a, b
        cont = gcd(*h)  # the leading digit of a positive number is positive
        h = [c // cont for c in h]
        if h[0]:
            qa = _divide(a, h)
            if qa is not None:
                qb = _divide(b, h)
                if qb is not None:
                    return h, qa, qb
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011


def _normalize_pair(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Canonical (num, den) of the fraction num / den (see the module doc)."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return _L_ZERO, _L_ONE
    nval, n = _dense(num)
    dval, d = _dense(den)
    cn, cd = gcd(*n), gcd(*d)
    n = [c // cn for c in n]
    d = [c // cd for c in d]
    if len(n) > 1 and len(d) > 1:
        _, n, d = _poly_gcd(n, d)
    g = gcd(cn, cd)
    cn //= g
    cd //= g
    if d[-1] < 0:
        cn, cd = -cn, -cd
    off = nval - dval
    return (LaurentPoly({off + i: cn * c for i, c in enumerate(n)}),
            LaurentPoly({i: cd * c for i, c in enumerate(d)}))


class RatFunc:
    """Element of the fraction field of the Laurent polynomial ring.

    Kept in a canonical form, so equality is structural comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly | int, den: LaurentPoly | int | None = None):
        if isinstance(num, int):
            num = LaurentPoly.const(num)
        if den is None:
            den = _L_ONE
        elif isinstance(den, int):
            den = LaurentPoly.const(den)
        self.num, self.den = _normalize_pair(num, den)

    @classmethod
    def _raw(cls, num: LaurentPoly, den: LaurentPoly) -> RatFunc:
        # Caller guarantees (num, den) is already canonical.
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def from_int(cls, c: int) -> RatFunc:
        return cls._raw(LaurentPoly.const(c), _L_ONE)

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> RatFunc:
        return cls._raw(p, _L_ONE)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    # -- field arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other: RatFunc | LaurentPoly | int) -> RatFunc | None:
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, LaurentPoly):
            return RatFunc.from_laurent(other)
        if isinstance(other, int):
            return RatFunc.from_int(other)
        return None

    def __add__(self, other: RatFunc | LaurentPoly | int) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one and o.den.is_one:
            return RatFunc._raw(self.num + o.num, _L_ONE)
        if self.den == o.den:
            # a/b + c/b: a common factor must divide b, so gcd(a + c, b) suffices
            return RatFunc(self.num + o.num, self.den)
        num = self.num * o.den + o.num * self.den
        return RatFunc(num, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other: RatFunc | LaurentPoly | int) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: LaurentPoly | int) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: RatFunc | LaurentPoly | int) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.den.is_one:
            if self.den.is_one:
                return RatFunc._raw(self.num * o.num, _L_ONE)
            if len(o.num._terms) == 1:
                return self._times_monomial(o.num)
        elif self.den.is_one and len(self.num._terms) == 1:
            return o._times_monomial(self.num)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def _times_monomial(self, m: LaurentPoly) -> RatFunc:
        """self * m for a single-term m = c*q^k.  q^k is a unit and num, den
        are coprime with joint content 1, so only gcd(c, content(den)) can
        cancel."""
        ((k, c),) = m._terms.items()
        g = gcd(c, *self.den._terms.values())
        if g == 1:
            return RatFunc._raw(self.num * m, self.den)
        return RatFunc._raw(self.num * _laurent({k: c // g}),
                            _laurent({e: d // g for e, d in self.den._terms.items()}))

    def __truediv__(self, other: RatFunc | LaurentPoly | int) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: LaurentPoly | int) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def inverse(self) -> RatFunc:
        if self.num.is_zero:
            raise ZeroDivisionError("inverse of zero")
        num, den = self.den, self.num
        v = den.min_exp()
        if v:
            num, den = num.shifted(-v), den.shifted(-v)
        if den.coeff(den.max_exp()) < 0:
            num, den = -num, -den
        return RatFunc._raw(num, den)

    def __pow__(self, k: int) -> RatFunc:
        if k < 0:
            return self.inverse() ** (-k)
        # canonical form is preserved by powering coprime parts
        return RatFunc._raw(self.num**k, self.den**k)

    def evaluate(self, q0: Fraction | int) -> Fraction:
        d = self.den.evaluate(q0)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q = {q0}")
        return self.num.evaluate(q0) / d

    # -- comparison, text ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # over one, a RatFunc equals (so hashes as) its numerator
        return hash(self.num) if self.den.is_one else hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_one:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def specialize(a: RatFunc | LaurentPoly, q0: Fraction | int | str) -> Fraction:
    """Evaluate at a rational q0 (rejects 0 and the roots of unity +-1)."""
    return a.evaluate(_admissible_q0(q0))


_Q0_GRAMMAR = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _admissible_q0(q0: Fraction | int | str) -> Fraction:
    """q0 as a `Fraction`, from an int, a `Fraction` or num[/den] text (sign,
    digits, optional /digits); a float (already rounded), other values or
    text, 0, +-1 and n/0 raise `ValueError`."""
    if not isinstance(q0, (int, Fraction, str)):
        raise ValueError(f"expected an int, a Fraction or num[/den] text, not {type(q0).__name__}")
    if isinstance(q0, str) and not _Q0_GRAMMAR.fullmatch(q0):
        # Fraction also reads exponents, and would spend seconds expanding 1e99999999
        raise ValueError("expected num[/den]")
    try:
        q0 = Fraction(q0)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None
    if q0 in (0, 1, -1):
        raise ValueError(f"q0 = {q0} is excluded (zero or a root of unity)")
    return q0


# -- text parsing ------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+)\*)?q(?:\^(-?\d+))?$|^(\d+)$")


def parse_laurent(s: str) -> LaurentPoly:
    """Inverse of str(LaurentPoly)."""
    s = s.strip()
    if s == "0":
        return _L_ZERO
    out: dict[int, int] = {}
    for chunk in s.replace(" - ", " + -").split(" + "):
        chunk = chunk.strip()
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad Laurent polynomial term: {chunk!r}")
        if m.group(3) is not None:
            e, c = 0, int(m.group(3))
        else:
            c = int(m.group(1)) if m.group(1) else 1
            e = int(m.group(2)) if m.group(2) else 1
        out[e] = out.get(e, 0) + sign * c
    return LaurentPoly(out)


def parse_ratfunc(s: str) -> RatFunc:
    """Inverse of str(RatFunc)."""
    s = s.strip()
    if s.startswith("(") and s.endswith(")") and ")/(" in s:
        numtxt, dentxt = s[1:-1].split(")/(", 1)
        return RatFunc(parse_laurent(numtxt), parse_laurent(dentxt))
    return RatFunc.from_laurent(parse_laurent(s))


class _Value:
    """Immutable value whose slots named in ``_fields`` are its value: no
    attribute can be assigned or deleted, equality needs the same class and
    equal fields, and the hash is that of the field tuple.  The shared
    ``__init__`` binds arguments to ``_fields`` in order, with ``_defaults``;
    a class that validates writes its own and sets slots by ``object.__setattr__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields, cls = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{cls} takes {len(fields)} fields, not {len(args)}")
        given = {**self._defaults, **dict(zip(fields, args))}
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls} has no field {name!r}")
            if name in fields[:len(args)]:
                raise TypeError(f"{cls} got field {name!r} twice")
            given[name] = value
        for name in fields:
            if name not in given:
                raise TypeError(f"{cls} is missing field {name!r}")
            object.__setattr__(self, name, given[name])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class ScalarField(_Value):
    """Coefficient field for the whole pipeline: Q(q) with `RatFunc` values
    for q0 = None, else Q at q = q0 with `Fraction` values.  Each domain's
    private subclass defines ``from_int``, ``qint``, ``parse`` and the ring:

    - ``clear(coeffs)`` gives (D, numerators), coeffs[k] = numerators[k] / D,
      D the lcm of the denominators: a positive int over ints at q0, and on
      Q(q) a `LaurentPoly` of lowest exponent 0, positive leading coefficient;
      ``pair`` pairs two, and ``_pairing_form(v)`` is vector v's (its clear);
    - ``numerator_ring(r)`` gives (power, den) for building vectors with
      q-exponents in [-r, r], q^e = power(e) / den; ``_ring_clear(coeffs)``
      is (D, numerators) in that ring, and ``_ring_over(x, D)`` is x / D in
      the field.  At q0 the ring is ``clear``'s, and ``_pairing_form`` reads a
      built vector as is.  ``_ring_memo(r)`` keeps its F_i rules beside the
      powers of q, ``_join`` sums cleared parts, ``_text(x, D)`` renders x / D.

    The one, the zero and q - q^-1 are built once, so ``c is field.one()``
    spots the one, and powers of q live in one memo per field.  None is a
    field of the value: two fields are equal, and of one class, when q0 is.
    """

    __slots__ = ("q0", "_one", "_zero", "_q_diff", "_memo")
    _fields = ("q0",)

    def __new__(cls, q0: Fraction | int | str | None = None):
        if cls is ScalarField:
            cls = _GenericField if q0 is None else _RationalField
        return object.__new__(cls)

    def __init__(self, q0: Fraction | None = None):
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "_one", self.from_int(1))
        object.__setattr__(self, "_zero", self.from_int(0))
        object.__setattr__(self, "_memo", {0: self._one})
        object.__setattr__(self, "_q_diff", self.q_power(1) - self.q_power(-1))

    @classmethod
    def generic(cls) -> ScalarField:
        return _GenericField()

    @classmethod
    def at(cls, q0: Fraction | int | str) -> ScalarField:
        return _RationalField(q0)

    def __repr__(self) -> str:
        return f"ScalarField(q0={self.q0!r})"

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def q_diff(self):
        return self._q_diff

    def q_power(self, e: int):
        # The relation suites multiply by q^k tens of thousands of times per run.
        memo = self._memo
        return memo[e] if e in memo else memo.setdefault(e, self._power(e))

    def _ring_memo(self, r: int) -> dict:
        return self._memo.setdefault(("ring memo", r), {})

    def pair(self, u: tuple, v: tuple):
        """Sum over shared keys of the products of two cleared dicts (from
        ``clear``): the numerator products are summed in the ring, then
        divided once by D_u * D_v.  A vanishing sum returns the field's zero."""
        (du, nu), (dv, nv) = u, v
        if len(nv) < len(nu):
            nu, nv = nv, nu
        total = self._ring_sum(nu, nv)
        return self._quotient(total, du * dv) if total else self._zero


class _GenericField(ScalarField):
    """Q(q): `RatFunc` values over `LaurentPoly` numerators."""

    __slots__ = ()
    _quotient = RatFunc
    from_int = RatFunc.from_int

    def _power(self, e: int) -> RatFunc:
        return RatFunc.from_laurent(LaurentPoly.q_power(e))

    def qint(self, m: int) -> RatFunc:
        return RatFunc.from_laurent(qint(m))

    def clear(self, coeffs: dict) -> tuple:
        # For canonical denominators a, b the reduced form of a/b is (a/g, b/g)
        # with g = gcd(a, b), contents included; so lcm(a, b) = a * (b/g), and
        # D/den is the numerator of D/den reduced.
        dens = {c.den for c in coeffs.values()}
        if len(dens) == 1:
            (D,) = dens
            return D, {k: c.num for k, c in coeffs.items()}
        D = _L_ONE
        for den in dens:
            D = D * _normalize_pair(D, den)[1]
        cofactors = {den: _normalize_pair(D, den)[0] for den in dens}
        return D, {k: c.num * cofactors[c.den] for k, c in coeffs.items()}

    _pairing_form = lambda self, v: self.clear(v.coeffs)

    def numerator_ring(self, r: int) -> tuple:
        """The field itself, over D = den = 1: a `LaurentPoly` numerator would
        pay a gcd per term it reaches; a field element times q^e pays none."""
        return self.q_power, 1

    _ring_clear = staticmethod(lambda coeffs: (1, coeffs))
    _ring_over = staticmethod(lambda x, D: x)
    _join = staticmethod(lambda parts: (1, {k: x for _, nums in parts for k, x in nums.items()}))
    _text = staticmethod(lambda x, D: str(x))

    @staticmethod
    def _ring_sum(nu: dict, nv: dict) -> LaurentPoly:
        acc: dict[int, int] = {}
        get = acc.get
        for k, a in nu.items():
            if (b := nv.get(k)) is not None:
                for e1, c1 in a._terms.items():
                    for e2, c2 in b._terms.items():
                        e = e1 + e2
                        acc[e] = get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    def parse(self, s: str) -> RatFunc:
        return parse_ratfunc(s)


class _RationalField(ScalarField):
    """Q at q = q0: `Fraction` values over int numerators."""

    __slots__ = ()
    _quotient = _ring_over = from_int = parse = Fraction

    def __init__(self, q0: Fraction | int | str):
        super().__init__(_admissible_q0(q0))

    def _power(self, e: int) -> Fraction:
        return self.q0 ** e

    def qint(self, m: int) -> Fraction:
        return qint(m).evaluate(self.q0)

    def clear(self, coeffs: dict) -> tuple:
        D = lcm(*[c.denominator for c in coeffs.values()])
        return D, {k: c.numerator * (D // c.denominator) for k, c in coeffs.items()}

    _ring_clear = clear
    _pairing_form = staticmethod(lambda v: v._numerators())

    def numerator_ring(self, r: int) -> tuple:
        """Integers at q0 = a/b: power(e) = a^(r+e) * b^(r-e), den = (ab)^r."""
        memo, key = self._memo, ("ring", r)  # beside the powers of q
        if key not in memo:
            a, b = self.q0.numerator, self.q0.denominator
            table = {e: a ** (r + e) * b ** (r - e) for e in range(-r, r + 1)}
            memo.setdefault(key, (table.__getitem__, (a * b) ** r))
        return memo[key]

    @staticmethod
    def _join(parts) -> tuple:
        """The sum of (d, numerators) parts with disjoint keys over D > 0, the lcm
        of the d (den < 0 at odd r, q0 < 0), with the common content divided out;
        parts over D are taken as they are, and the gcd stops once it is 1."""
        D, out = lcm(*[d for d, _ in parts]), {}
        for d, nums in parts:
            out.update(nums if d == D else {k: x * s for s in [D // d] for k, x in nums.items()})
        g = D
        for x in out.values():
            if (g := gcd(g, x)) == 1:
                return D, out
        return D // g, {k: x // g for k, x in out.items()}

    @staticmethod
    def _text(x: int, D: int) -> str:
        """str(Fraction(x, D)) for D > 0, with one gcd and no Fraction."""
        g = gcd(x, D)
        return str(x // g) if g == D else f"{x // g}/{D // g}"

    @staticmethod
    def _ring_sum(nu: dict, nv: dict) -> int:
        get = nv.get
        return sum([a * b for k, a in nu.items() if (b := get(k)) is not None])
