"""Sparse vectors in the r-fold tensor power of the vector module, the
generator actions obtained from the iterated coproduct, the transposition
generator action, weight extraction, and the standard bilinear form, which
pairs each operand's numerators over one common denominator (its field's
pairing form) and divides once.

Sparse accumulation lives in one place, ``lincomb``.  Every action is a rule
for one basis index that ``_act`` extends linearly through it, and every word
of actions in the package is applied by ``_word_images``, which memoises the
image of each suffix.

Basis vectors are indexed by tuples a in {1..n}^r; the single-factor rules
are F_i: v_i -> v_{i+1}, E_i: v_{i+1} -> v_i (all else to zero), with the
grouplike generators acting diagonally by integer powers of q.  Vectors are
immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from functools import cache

from .coeff import ScalarField

__all__ = [
    "TensorVector",
    "MixedWeightError",
    "ShapeMismatchError",
    "apply_E",
    "apply_F",
    "apply_K",
    "apply_tK",
    "weight_of",
    "apply_T",
    "bilinear",
    "vector_to_json_dict",
    "format_vector",
]

Index = tuple[int, ...]


class MixedWeightError(ValueError):
    """The support mixes several letter contents, so no weight is defined."""


class ShapeMismatchError(ValueError):
    """Operands live in different tensor spaces."""


def lincomb(pairs, one) -> dict:
    """Sparse sum of s * coeffs over (s, coeffs) pairs, with entries that
    cancel dropped.

    ``one`` is the field's one, compared by identity: a coefficient that is
    ``one`` contributes s itself, and a pair whose scalar is ``one`` adds its
    coefficients unscaled.  A pair whose scalar is zero contributes nothing.
    """
    out: dict = {}
    for s, coeffs in pairs:
        if not s:
            continue
        for idx, c in coeffs.items():
            if c is one:
                c = s
            elif s is not one:
                c = c * s
            cur = out.get(idx)
            if cur is not None:
                c = cur + c
            if c:
                out[idx] = c
            else:
                out.pop(idx, None)
    return out


class TensorVector:
    """Finitely supported map from index tuples to scalars, held as its
    coefficients or, as ``psiphi`` builds it, as (D, numerators) in its
    field's numerator ring: coefficient k is numerators[k] / D, divided out
    on the first read of ``coeffs`` (two readers at once form equal dicts)."""

    __slots__ = ("field", "n", "r", "_coeffs", "_cleared")

    def __init__(self, field: ScalarField, n: int, r: int, coeffs: dict[Index, object] | None = None):
        if n < 1 or r < 0:
            raise ValueError("need n >= 1 and r >= 0")
        clean: dict[Index, object] = {}
        if coeffs:
            for idx, c in coeffs.items():
                if not c:
                    continue
                if len(idx) != r or any(not 1 <= a <= n for a in idx):
                    raise ValueError(f"bad index {idx} for degree {r} over {n} letters")
                clean[idx] = c
        self.field, self.n, self.r, self._coeffs, self._cleared = field, n, r, clean, None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def _raw(field: ScalarField, n: int, r: int, cleared: tuple) -> TensorVector:
        """The vector held as ``cleared``, its coefficients not yet divided out."""
        v = TensorVector.__new__(TensorVector)
        v.field, v.n, v.r, v._coeffs, v._cleared = field, n, r, None, cleared
        return v

    @classmethod
    def zero(cls, field: ScalarField, n: int, r: int) -> TensorVector:
        return cls(field, n, r)

    @classmethod
    def unit(cls, field: ScalarField, n: int) -> TensorVector:
        """The basis vector of the zeroth tensor power."""
        return cls(field, n, 0, {(): field.one()})

    @classmethod
    def basis(cls, field: ScalarField, n: int, idx: Index) -> TensorVector:
        return cls(field, n, len(idx), {tuple(idx): field.one()})

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self) -> dict[Index, object]:
        if self._coeffs is None:
            (D, nums), over = self._cleared, self.field._ring_over
            self._coeffs = {k: over(x, D) for k, x in nums.items()}
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _numerators(self) -> tuple:
        """(D, numerators): as stored, or the coefficients cleared in the ring."""
        return self._cleared or self.field._ring_clear(self._coeffs)

    def _texts(self) -> list[tuple[Index, str]]:
        """(index, coefficient text) in index order; each distinct numerator is rendered once."""
        (D, nums), text = self._numerators(), self.field._text
        texts = {x: text(x, D) for x in set(nums.values())}
        return [(idx, texts[nums[idx]]) for idx in sorted(nums)]

    def _check_shape(self, other: TensorVector):
        if self.n != other.n or self.r != other.r:
            raise ShapeMismatchError(
                f"({self.n},{self.r}) vs ({other.n},{other.r})")

    def __add__(self, other: TensorVector) -> TensorVector:
        if not isinstance(other, TensorVector):
            return NotImplemented
        self._check_shape(other)
        one = self.field.one()
        return self._fresh(lincomb(((one, self.coeffs), (one, other.coeffs)), one))

    def __sub__(self, other: TensorVector) -> TensorVector:
        return self + (-other)

    def __neg__(self) -> TensorVector:
        return self._fresh({idx: -c for idx, c in self.coeffs.items()})

    def scale(self, c) -> TensorVector:
        if not c:
            return self._fresh({})
        return self._fresh({idx: v * c for idx, v in self.coeffs.items()})

    def _fresh(self, coeffs: dict[Index, object]) -> TensorVector:
        v = TensorVector.__new__(TensorVector)
        v.field = self.field
        v.n = self.n
        v.r = self.r
        v._coeffs = coeffs
        v._cleared = None
        return v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorVector):
            return NotImplemented
        return (self.n, self.r) == (other.n, other.r) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.r, tuple(sorted((k, hash(v)) for k, v in self.coeffs.items()))))

    def __str__(self) -> str:
        return format_vector(self)

    def __repr__(self) -> str:
        return f"TensorVector({self.n},{self.r}; {format_vector(self)})"


# -- generator actions ---------------------------------------------------------


def _act(coeffs: dict, rule, one) -> dict:
    """Sum of c * rule(key) over the items (key, c) of ``coeffs``: the linear
    extension of a map given on basis keys (indices, or words) as dicts;
    ``one`` is as in ``lincomb``."""
    return lincomb(zip(coeffs.values(), map(rule, coeffs)), one)


def _apply(v: TensorVector, rule) -> TensorVector:
    """An action given by a basis rule whose images are fresh dicts without
    zero entries; a basis vector's image is the rule's own dict."""
    coeffs, one = v._coeffs or v.coeffs, v.field.one()  # the property, a call per read, divides a cleared vector
    if len(coeffs) == 1:
        (idx, c), = coeffs.items()
        if c is one:
            return v._fresh(rule(idx))
    return v._fresh(_act(coeffs, rule, one))


def _word_images(start, step):
    """Images of words under a monoid action, memoised by suffix: the image
    of the empty word is ``start``, and the image of a word is
    ``step(head, image of the rest)``, so words that share a suffix share
    its image.  Returns the function from a word (a tuple) to its image."""
    memo = {(): start}

    def image(word):
        got = memo.get(word)
        if got is None:
            k = 1  # the longest memoised suffix is word[k:]
            while (got := memo.get(word[k:])) is None:
                k += 1
            for t in range(k - 1, -1, -1):
                got = memo[word[t:]] = step(word[t], got)
        return got

    return image


def _check_ef_index(i: int, n: int):
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")


def _coproduct(src: int, dst: int, power):
    """Basis rule of E_i (src i+1, dst i, scanned from the left) and F_i
    (src i, dst i+1, from the right) via the iterated coproduct: each slot
    holding src in turn becomes dst, times power(e) for q^e, where e = #dst -
    #src over the slots already passed, which carry the coroot grouplike."""
    unit, from_right = power(0), src < dst

    def rule(idx):
        if src not in idx:
            return {}
        image = {}
        e = 0
        for s in range(len(idx) - 1, -1, -1) if from_right else range(len(idx)):
            letter = idx[s]
            if letter == src:
                image[idx[:s] + (dst,) + idx[s + 1:]] = power(e) if e else unit
                e -= 1
            elif letter == dst:
                e += 1
        return image

    return rule


def apply_E(i: int, v: TensorVector) -> TensorVector:
    """Raising generator via the iterated coproduct: grouplike factors to the
    left of the active slot contribute a power of q."""
    _check_ef_index(i, v.n)
    return _apply(v, _coproduct(i + 1, i, v.field.q_power))


def apply_F(i: int, v: TensorVector) -> TensorVector:
    """Lowering generator: inverse grouplike factors to the right of the
    active slot contribute the power of q."""
    _check_ef_index(i, v.n)
    return _apply(v, _coproduct(i, i + 1, v.field.q_power))


def _lower(i: int, coeffs: dict, power, one, rules: dict) -> dict:
    """F_i on a coefficient dict, with q^e written as the multiplier
    ``power(e)``.  ``psiphi`` passes ring multipliers of cleared numerators
    (``ScalarField.numerator_ring``), and ``rules`` keeps F_i's rule for them,
    memoised by index, across calls.  ``one`` is as in ``lincomb``."""
    rule = rules.get(i)
    if rule is None:
        rule = rules[i] = cache(_coproduct(i, i + 1, power))
    return _act(coeffs, rule, one)


def _grouplike(v: TensorVector, exponent) -> TensorVector:
    """The diagonal generator v_idx -> q^exponent(idx) v_idx."""
    power = v.field.q_power
    return _apply(v, lambda idx: {idx: power(exponent(idx))})


def apply_K(j: int, v: TensorVector, inverse: bool = False) -> TensorVector:
    """Diagonal grouplike generator: q to the multiplicity of the letter j."""
    if not 1 <= j <= v.n:
        raise ValueError(f"generator index {j} out of range 1..{v.n}")
    sign = -1 if inverse else 1
    return _grouplike(v, lambda idx: sign * idx.count(j))


def apply_tK(i: int, v: TensorVector) -> TensorVector:
    """Diagonal coroot grouplike: q to the content difference at i, i+1."""
    _check_ef_index(i, v.n)
    return _grouplike(v, lambda idx: idx.count(i) - idx.count(i + 1))


def weight_of(v: TensorVector) -> tuple[int, ...]:
    """Letter content (m_1..m_n) common to the whole support; this is the
    eigenvalue exponent tuple of the diagonal generators."""
    if v.is_zero:
        raise ValueError("the zero vector has no weight")
    it = iter(v.coeffs)
    first = next(it)
    content = [0] * v.n
    for a in first:
        content[a - 1] += 1
    for idx in it:
        other = [0] * v.n
        for a in idx:
            other[a - 1] += 1
        if other != content:
            raise MixedWeightError(f"support mixes contents {content} and {other}")
    return tuple(content)


# -- transposition-generator action ---------------------------------------------


def apply_T(i: int, v: TensorVector) -> TensorVector:
    """Right action of the i-th transposition generator by the three-case rule."""
    if not 1 <= i <= v.r - 1:
        raise ValueError(f"T index {i} out of range 1..{v.r - 1}")
    field = v.field
    one, q, qdiff = field.one(), field.q_power(1), field.q_diff()

    def rule(idx):
        a, b = idx[i - 1], idx[i]
        if a == b:
            return {idx: q}
        image = {idx[: i - 1] + (b, a) + idx[i + 1:]: one}
        if a < b:
            image[idx] = qdiff
        return image

    return _apply(v, rule)


# -- bilinear form ---------------------------------------------------------------


def bilinear(u: TensorVector, v: TensorVector):
    """Standard symmetric form: the index basis is orthonormal.  Each operand
    is read in its field's pairing form (numerators over one denominator), and
    they are paired in the ring (``ScalarField.pair``): one normalization."""
    u._check_shape(v)
    field = u.field
    cu = field._pairing_form(u)
    return field.pair(cu, cu if v is u else field._pairing_form(v))


# -- serialization ----------------------------------------------------------------


def vector_to_json_dict(v: TensorVector) -> dict:
    """{"n", "r", "terms"}, the terms in lexicographic index order, each with
    "idx" its index tuple (which JSON writes as a list) and "coeff" its text."""
    terms = [{"idx": idx, "coeff": text} for idx, text in v._texts()]
    return {"n": v.n, "r": v.r, "terms": terms}


def format_vector(v: TensorVector) -> str:
    """Human-readable rendering with terms in lexicographic index order."""
    parts = []
    for idx, ctext in v._texts():
        if " " in ctext and not ctext.startswith("("):
            ctext = f"({ctext})"
        body = "v[" + ",".join(map(str, idx)) + "]"
        parts.append(body if ctext == "1" else f"{ctext}*{body}")
    return " + ".join(parts) or "0"
