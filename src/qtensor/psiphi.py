"""Construction of highest-weight vectors in tensor space.

The building blocks are weight-dependent elements of the lowering subalgebra,
defined by a two-term recursion over Coxeter-type words and combined into
box-adding operators: applying the operator for row m to a highest-weight
vector of a given shape yields a highest-weight vector of the shape with one
box added in row m, one tensor factor higher.  Composing the operators along
a walk produces the orthogonal family indexed by walks.

Words in the lowering generators are kept in a canonical form for the
far-commutation relation (letters at distance > 1 commute), which makes
equality of elements a structural comparison.
"""

from __future__ import annotations

from functools import lru_cache

from .coeff import ScalarField, _Value
from .combinatorics import Walk, _entry, a_const, c_const, d_const
from .tensorspace import TensorVector, _act, _lower, _word_images, apply_E, lincomb

__all__ = [
    "NegElement",
    "MaximalVectorRecord",
    "PsiUndefinedError",
    "AddabilityError",
    "canonical_word",
    "psi",
    "apply_neg",
    "phi",
    "build_c_pi",
    "is_maximal",
    "xi_map",
    "jimbo_root_vectors",
]

NegWord = tuple[int, ...]


class PsiUndefinedError(ValueError):
    """The recursion divides by a vanishing q-integer for this weight."""


class AddabilityError(ValueError):
    """The requested row cannot receive a box at this weight."""


def canonical_word(word: NegWord) -> NegWord:
    """Lexicographically least word in the far-commutation class.

    Adjacent letters at distance > 1 commute; bubbling every decreasing
    commuting pair to a fixed point reaches the unique minimum.
    """
    w = list(word)
    changed = True
    while changed:
        changed = False
        for t in range(len(w) - 1):
            if w[t] > w[t + 1] + 1:
                w[t], w[t + 1] = w[t + 1], w[t]
                changed = True
    return tuple(w)


class NegElement:
    """Formal linear combination of generator words with scalar coefficients.

    Words are stored canonically; the same container serves for words in the
    lowering generators and (for the root-vector recursion) in the raising
    generators, since both families satisfy the same far commutation.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: ScalarField, terms: dict[NegWord, object] | None = None):
        self.field = field
        one = field.one()
        pairs = ((c, {canonical_word(tuple(w)): one}) for w, c in (terms or {}).items())
        self.terms = lincomb(pairs, one)

    @classmethod
    def one(cls, field: ScalarField) -> NegElement:
        return cls(field, {(): field.one()})

    @classmethod
    def generator(cls, field: ScalarField, i: int) -> NegElement:
        if i < 1:
            raise ValueError("generator indices start at 1")
        return cls(field, {(i,): field.one()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: NegElement) -> NegElement:
        if not isinstance(other, NegElement):
            return NotImplemented
        one = self.field.one()
        return self._fresh(lincomb(((one, self.terms), (one, other.terms)), one))

    def __sub__(self, other: NegElement) -> NegElement:
        return self + other.scale(self.field.from_int(-1))

    def scale(self, c) -> NegElement:
        if not c:
            return self._fresh({})
        return self._fresh({w: v * c for w, v in self.terms.items()})

    def __mul__(self, other: NegElement) -> NegElement:
        """Concatenation product, re-canonicalized.  Left multiplication by
        a word is injective on canonical words, since the far-commutation
        monoid is cancellative, so each image below has distinct keys."""
        if not isinstance(other, NegElement):
            return NotImplemented
        return self._fresh(lincomb(
            ((c1, {canonical_word(w1 + w2): c2 for w2, c2 in other.terms.items()})
             for w1, c1 in self.terms.items()),
            self.field.one()))

    def _fresh(self, terms: dict[NegWord, object]) -> NegElement:
        e = NegElement.__new__(NegElement)
        e.field = self.field
        e.terms = terms
        return e

    def max_letter(self) -> int:
        return max((max(w) for w in self.terms if w), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NegElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted((w, hash(c)) for w, c in self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms):
            c = str(self.terms[w])
            parts.append(f"{c} * F[{','.join(map(str, w))}]")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"NegElement({self})"


# -- the recursion -------------------------------------------------------------


def _weight_window(weight, j: int, shift: int) -> tuple[int, ...]:
    # Entries below index shift+1 never enter the shifted constants; zeroing
    # them makes the memo key insensitive to them.
    return (0,) * shift + tuple(_entry(weight, i) for i in range(shift + 1, j + shift + 2))


def psi(j: int, weight, field: ScalarField, shift: int = 0) -> NegElement:
    """The j-th lowering element for the given weight, shifted ``shift`` times
    (every generator index and every simple-root index raised by ``shift``).

    Supported on Coxeter-type words in the generators shift+1 .. shift+j.
    Undefined exactly when the (j+shift)-th coroot pairing vanishes; that is
    reported with a distinct error rather than a zero element.

    Level k of the recursion is psi_k at shift j + shift - k: the constants
    are checked from level j in, as the recursion meets them, and the memo is
    filled from level 1 out, so each level finds its inner element cached.
    """
    if j < 0:
        raise ValueError("need j >= 0")
    if shift < 0:
        raise ValueError("need shift >= 0")
    window = _weight_window(weight, j, shift)
    levels = [(k, j + shift - k) for k in range(j, 0, -1)]
    for k, s in levels:
        if d_const(window, k, s) == 0:
            # for k > 1 this cannot happen for dominant weights, only for general integer ones
            raise PsiUndefinedError(f"coroot pairing {1 + s} vanishes for weight {(0,) * s + window[s:]}" if k == 1
                                    else f"denominator constant d_{k} (shift {s}) vanishes")
    for k, s in reversed(levels):
        _psi_cached(k, s, (0,) * s + window[s:], field)
    return _psi_cached(j, shift, window, field)


@lru_cache(maxsize=None)
def _psi_cached(j: int, shift: int, window: tuple[int, ...], field: ScalarField) -> NegElement:
    """psi_j at a shift, for a window whose constants ``psi`` has checked."""
    if j == 0:
        return NegElement.one(field)
    d = d_const(window, j, shift)
    if j == 1:
        return NegElement(field, {(1 + shift,): field.one() / field.qint(d)})
    c = c_const(window, j, shift)
    inner = _psi_cached(j - 1, shift + 1, (0,) * (shift + 1) + window[shift + 1:], field)
    gen = NegElement.generator(field, 1 + shift)
    dd = field.qint(d)
    return (gen * inner).scale(field.qint(c) / dd) - (inner * gen).scale(field.qint(c - 1) / dd)


def apply_neg(e: NegElement, v: TensorVector) -> TensorVector:
    """Realize an element as an operator: each word acts letter by letter,
    rightmost letter first, and words that share a suffix share its image."""
    if e.max_letter() > v.n - 1:
        raise ValueError(f"element uses generator {e.max_letter()}, ambient has {v.n - 1}")
    field = v.field
    one, rules = field.one(), {}
    image = _word_images(v.coeffs, lambda i, coeffs: _lower(i, coeffs, field.q_power, one, rules))
    return v._fresh(_act(e.terms, image, one))


# -- box-adding operators --------------------------------------------------------


def phi(m: int, weight, b: TensorVector) -> TensorVector:
    """Add a box in row m: maps a highest-weight vector of the given weight to
    one of that weight plus a unit in row m, in one more tensor factor (new
    factor on the left).  The image of b is m (x) b plus, for each (j, xi_j)
    of ``xi_map``, (-q^-1)^(m-j) j (x) xi_j(b); letters in the order m .. 1.
    b is read (``_numerators``), and the image held, as (D, numerators) in
    the field's numerator ring: at q0, integers over D > 0 with no common
    factor; on Q(q), the coefficients over 1.  So m (x) b is b as it stands,
    and the whole image for m = 1, which needs no ring powers of q.  The xi_j
    times (-q^-1)^(m-j) are cleared once per (m, weight, degree) and kept in
    the field's ring memo.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    field = b.field
    if m >= 2 and a_const(weight, m - 1) == 0:
        raise AddabilityError(f"row {m} is not addable at weight {tuple(weight)}")
    if m > b.n:
        raise ValueError(f"letter {m} out of range 1..{b.n}")
    D, nums = b._numerators()
    head = (D, {(m,) + k: x for k, x in nums.items()})
    if m == 1:
        return TensorVector._raw(field, b.n, b.r + 1, head)
    degree = max(b.r, 1) - 1
    power, den = field.numerator_ring(degree)
    one, rules = field.one(), field._ring_memo(degree)
    key = (m, tuple(weight))
    if (table := rules.get(key)) is None:
        table = rules[key] = [(j, dj * den ** (m - j), cw) for j, xi in reversed(xi_map(m, weight, field))
                              for dj, cw in [field._ring_clear(xi.scale((-field.q_power(-1)) ** (m - j)).terms)]]
    # words act through the memoised F_i rules, sharing suffix images; parts have disjoint keys
    image = _word_images(nums, lambda i, coeffs: _lower(i, coeffs, power, one, rules))
    parts = [head] + [(D * d, {(j,) + k: x for k, x in _act(cw, image, one).items()}) for j, d, cw in table]
    return TensorVector._raw(field, b.n, b.r + 1, field._join(parts))


class MaximalVectorRecord(_Value):
    """A walk, the highest-weight vector it produces (``phi``'s last image,
    divided out when first read), and its shape."""

    __slots__ = _fields = ("walk", "vector", "weight")


def build_c_pi(pi: Walk, field: ScalarField, n: int | None = None) -> MaximalVectorRecord:
    """Compose the box-adding operators along a walk, starting from the unit
    of the zeroth tensor power, cleared (q^0 over den, both 1 in degree 0)."""
    if n is None:
        n = max(pi.rows, default=1)
    power, den = field.numerator_ring(0)
    vec = TensorVector._raw(field, n, 0, (den, {(): power(0)}))
    for k, lam in zip(pi.rows, pi.shapes):
        vec = phi(k, lam, vec)
    return MaximalVectorRecord(walk=pi, vector=vec, weight=pi.terminal())


def is_maximal(v: TensorVector) -> bool:
    """True when v is a weight vector killed by every raising generator.  Its
    support has one letter content when its sorted indices agree, and E_i
    kills every index without the letter i + 1, so only those E_i are applied."""
    if v.is_zero:
        raise ValueError("the zero vector is not classified")
    contents = {tuple(sorted(idx)) for idx in v.coeffs}
    if len(contents) > 1:
        return False
    return all(apply_E(a - 1, v).is_zero for a in sorted(set(*contents)) if a > 1)


# -- the basis-vector-to-lowering-element map -------------------------------------


def xi_map(m: int, weight, field: ScalarField) -> list[tuple[int, NegElement]]:
    """For each letter j = 1..m-1, the lowering element xi_j (psi_{m-j}
    shifted j-1 times) that ``phi`` for row m applies to b beside the new
    left factor j.

    Entry j has weight minus the root-sum over rows j..m-1; the entries are
    nonzero with pairwise distinct weights.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if a_const(weight, m - 1) == 0:
        raise PsiUndefinedError(f"coroot pairing {m - 1} vanishes for weight {tuple(weight)}")
    return [(j, psi(m - j, weight, field, shift=j - 1)) for j in range(1, m)]


# -- recursive root vectors --------------------------------------------------------


def jimbo_root_vectors(n: int, field: ScalarField) -> tuple[dict, dict]:
    """Recursive root vectors: raising ones E^(i,j) for i < j and lowering
    ones F^(i,j) for i > j, with the adjacent base cases and the fixed pivot
    next to i in the two-term recursion."""
    if n < 2:
        raise ValueError("need n >= 2")
    e_hat: dict[tuple[int, int], NegElement] = {}
    f_hat: dict[tuple[int, int], NegElement] = {}
    q = field.q_power(1)
    qinv = field.q_power(-1)
    for i in range(1, n):
        e_hat[(i, i + 1)] = NegElement.generator(field, i)
        f_hat[(i + 1, i)] = NegElement.generator(field, i)
    for span in range(2, n):
        for i in range(1, n - span + 1):
            j = i + span
            k = i + 1
            e_hat[(i, j)] = e_hat[(i, k)] * e_hat[(k, j)] - (e_hat[(k, j)] * e_hat[(i, k)]).scale(q)
        for i in range(span + 1, n + 1):
            j = i - span
            k = i - 1
            f_hat[(i, j)] = f_hat[(i, k)] * f_hat[(k, j)] - (f_hat[(k, j)] * f_hat[(i, k)]).scale(qinv)
    return e_hat, f_hat

