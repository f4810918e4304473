"""Sparse vectors in the r-fold tensor power of the vector module, the
generator actions obtained from the iterated coproduct, the transposition
generator action, weight extraction, and the standard bilinear form, which
pairs cleared numerators (one common denominator per operand) and divides
once.

Sparse accumulation lives in one place, ``lincomb``: vector sums, the E, F
and T actions, the lowering elements of ``psiphi`` and the relation suites of
``dualcheck`` all sum scaled coefficient dicts through it.

Basis vectors are indexed by tuples a in {1..n}^r; the single-factor rules
are F_i: v_i -> v_{i+1}, E_i: v_{i+1} -> v_i (all else to zero), with the
grouplike generators acting diagonally by integer powers of q.  Vectors are
immutable; every operation returns a fresh value.
"""

from __future__ import annotations

import json
from typing import Iterator

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
    "prepend",
    "vector_to_json_dict",
    "vector_from_json_dict",
    "vector_to_json",
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
    """Finitely supported map from index tuples to scalars."""

    __slots__ = ("field", "n", "r", "coeffs")

    def __init__(self, field: ScalarField, n: int, r: int, coeffs: dict[Index, object] | None = None):
        if n < 1 or r < 0:
            raise ValueError("need n >= 1 and r >= 0")
        self.field = field
        self.n = n
        self.r = r
        clean: dict[Index, object] = {}
        if coeffs:
            for idx, c in coeffs.items():
                if not c:
                    continue
                if len(idx) != r or any(not 1 <= a <= n for a in idx):
                    raise ValueError(f"bad index {idx} for degree {r} over {n} letters")
                clean[idx] = c
        self.coeffs = clean

    # -- constructors --------------------------------------------------------

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
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def iter_terms(self) -> Iterator[tuple[Index, object]]:
        """Terms in lexicographic index order."""
        for idx in sorted(self.coeffs):
            yield idx, self.coeffs[idx]

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
        v.coeffs = coeffs
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


def _check_ef_index(i: int, n: int):
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")


def apply_E(i: int, v: TensorVector) -> TensorVector:
    """Raising generator via the iterated coproduct: grouplike factors to the
    left of the active slot contribute a power of q."""
    _check_ef_index(i, v.n)
    field = v.field
    one = field.one()
    pairs = []
    for idx, c in v.coeffs.items():
        image = {}
        tk = 0  # exponent from grouplike factors left of the active slot
        for s, letter in enumerate(idx):
            if letter == i + 1:
                image[idx[:s] + (i,) + idx[s + 1:]] = field.q_power(tk) if tk else one
            if letter == i:
                tk += 1
            elif letter == i + 1:
                tk -= 1
        pairs.append((c, image))
    return v._fresh(lincomb(pairs, one))


def apply_F(i: int, v: TensorVector) -> TensorVector:
    """Lowering generator: inverse grouplike factors to the right of the
    active slot contribute the power of q."""
    _check_ef_index(i, v.n)
    field = v.field
    return v._fresh(_lower(i, v.coeffs, field.q_power, field.one()))


def _lower(i: int, coeffs: dict, power, one) -> dict:
    """F_i on a coefficient dict, the one home of its exponent rule: the
    image of slot s carries q^e with e = #(i+1) - #i over the slots right of
    s, written as the multiplier ``power(e)``.  ``apply_F`` passes the
    field's ``q_power``; ``psiphi.phi`` passes ring multipliers of cleared
    numerators (``ScalarField.numerator_ring``).  ``one`` is as in
    ``lincomb``."""
    up = i + 1
    pairs = []
    for idx, c in coeffs.items():
        if i not in idx:
            continue
        e = idx.count(up) - idx.count(i)  # over all slots; each slot passed drops its share
        image = {}
        for s, letter in enumerate(idx):
            if letter == i:
                e += 1
                image[idx[:s] + (up,) + idx[s + 1:]] = power(e)
            elif letter == up:
                e -= 1
        pairs.append((c, image))
    return lincomb(pairs, one)


def apply_K(j: int, v: TensorVector, inverse: bool = False) -> TensorVector:
    """Diagonal grouplike generator: q to the multiplicity of the letter j."""
    if not 1 <= j <= v.n:
        raise ValueError(f"generator index {j} out of range 1..{v.n}")
    sign = -1 if inverse else 1
    field = v.field
    out = {}
    for idx, c in v.coeffs.items():
        e = sign * sum(1 for a in idx if a == j)
        out[idx] = c * field.q_power(e) if e else c
    return v._fresh(out)


def apply_tK(i: int, v: TensorVector, inverse: bool = False) -> TensorVector:
    """Diagonal coroot grouplike: q to the content difference at i, i+1."""
    _check_ef_index(i, v.n)
    sign = -1 if inverse else 1
    field = v.field
    out = {}
    for idx, c in v.coeffs.items():
        e = sign * (sum(1 for a in idx if a == i) - sum(1 for a in idx if a == i + 1))
        out[idx] = c * field.q_power(e) if e else c
    return v._fresh(out)


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
    one = field.one()
    q = field.q_power(1)
    qdiff = q - field.q_power(-1)
    pairs = []
    for idx, c in v.coeffs.items():
        a, b = idx[i - 1], idx[i]
        if a == b:
            image = {idx: q}
        else:
            image = {idx[: i - 1] + (b, a) + idx[i + 1:]: one}
            if a < b:
                image[idx] = qdiff
        pairs.append((c, image))
    return v._fresh(lincomb(pairs, one))


# -- bilinear form ---------------------------------------------------------------


def bilinear(u: TensorVector, v: TensorVector):
    """Standard symmetric form: the index basis is orthonormal.  Each operand
    is cleared to one denominator and the numerators are paired in the ring
    (``ScalarField.clear`` and ``pair``), so the sum is normalized once."""
    u._check_shape(v)
    field = u.field
    cu = field.clear(u.coeffs)
    return field.pair(cu, cu if v is u else field.clear(v.coeffs))


def prepend(letter: int, v: TensorVector) -> TensorVector:
    """Tensor a basis letter onto the left, raising the degree by one."""
    if not 1 <= letter <= v.n:
        raise ValueError(f"letter {letter} out of range 1..{v.n}")
    out = {(letter,) + idx: c for idx, c in v.coeffs.items()}
    w = TensorVector.__new__(TensorVector)
    w.field = v.field
    w.n = v.n
    w.r = v.r + 1
    w.coeffs = out
    return w


# -- serialization ----------------------------------------------------------------


def vector_to_json_dict(v: TensorVector) -> dict:
    terms = [{"idx": list(idx), "coeff": str(c)} for idx, c in v.iter_terms()]
    return {"n": v.n, "r": v.r, "terms": terms}


def vector_from_json_dict(field: ScalarField, obj: dict) -> TensorVector:
    coeffs = {tuple(t["idx"]): field.parse(t["coeff"]) for t in obj["terms"]}
    return TensorVector(field, obj["n"], obj["r"], coeffs)


def vector_to_json(v: TensorVector) -> str:
    return json.dumps(vector_to_json_dict(v), separators=(",", ":"))


def format_vector(v: TensorVector) -> str:
    """Human-readable rendering with terms in lexicographic index order."""
    if v.is_zero:
        return "0"
    parts = []
    for idx, c in v.iter_terms():
        ctext = str(c)
        if " " in ctext and not ctext.startswith("("):
            ctext = f"({ctext})"
        body = "v[" + ",".join(map(str, idx)) + "]"
        parts.append(body if ctext == "1" else f"{ctext}*{body}")
    return " + ".join(parts)
