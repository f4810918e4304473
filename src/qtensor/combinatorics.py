"""Partitions, walks on the growth diagram of partitions, standard tableaux,
Coxeter words, and dimension counts.

A walk records the row in which a box is added at each step; walks of length
r starting from the empty partition are in bijection with standard tableaux
with r boxes.  All enumeration orders are deterministic (lexicographic on the
row sequence).
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Sequence

from .coeff import _Value

__all__ = [
    "Partition",
    "Walk",
    "StandardTableau",
    "a_const",
    "c_const",
    "d_const",
    "enumerate_walks",
    "walk_to_tableau",
    "tableau_to_walk",
    "count_standard",
    "weyl_dim",
    "partitions_in",
    "coxeter_elements",
]

Weight = Sequence[int]


class Partition(_Value):
    """Weakly decreasing nonnegative parts; trailing zeros are stripped."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        ps = tuple(int(p) for p in parts)
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        for i, p in enumerate(ps):
            if p < 0 or (i + 1 < len(ps) and ps[i + 1] > p):
                raise ValueError(f"not a partition: {parts}")
        object.__setattr__(self, "parts", ps)

    @classmethod
    def from_string(cls, text: str) -> Partition:
        text = text.strip()
        if not text:
            return cls()
        return cls(tuple(int(p) for p in text.split(",")))

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def nrows(self) -> int:
        return len(self.parts)

    def row(self, i: int) -> int:
        """1-indexed part, padded with zeros beyond the last row."""
        if i < 1:
            raise ValueError("rows are 1-indexed")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def addable_rows(self, n: int) -> list[int]:
        """Rows j <= n, none below the first empty row, where a box may be added."""
        if self.nrows > n:
            raise ValueError(f"{self} has more than {n} parts")
        return [j for j in range(1, min(n, self.nrows + 1) + 1) if j == 1 or self.row(j - 1) > self.row(j)]

    def add_box(self, row: int) -> Partition:
        if row < 1 or (row > 1 and self.row(row - 1) <= self.row(row)):
            raise ValueError(f"row {row} is not addable to {self}")
        ps = list(self.parts) + [0] * (row - len(self.parts))
        ps[row - 1] += 1
        return Partition(tuple(ps))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "0"

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def _entry(w: Partition | Weight, i: int) -> int:
    """1-indexed weight entry, padded with zeros."""
    seq = w.parts if isinstance(w, Partition) else w
    return seq[i - 1] if 1 <= i <= len(seq) else 0


def a_const(w: Partition | Weight, j: int) -> int:
    """Pairing of the j-th simple coroot with the weight."""
    return _entry(w, j) - _entry(w, j + 1)


def c_const(w: Partition | Weight, j: int, shift: int = 0) -> int:
    """Coroot-sum constant over rows 2..j, shifted by replacing each simple
    root index i with i + shift.  By convention the j = 1 value is 0."""
    if j < 1:
        raise ValueError("j must be >= 1")
    if j == 1:
        return 0
    return _entry(w, 2 + shift) - _entry(w, j + 1 + shift) + j - 1


def d_const(w: Partition | Weight, j: int, shift: int = 0) -> int:
    """Coroot-sum constant over rows 1..j, shifted like c_const."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return _entry(w, 1 + shift) - _entry(w, j + 1 + shift) + j - 1


class Walk(_Value):
    """Path in the growth diagram: the row added at each step, and in
    ``shapes`` the partitions λ^0 = ∅ ... λ^r it passes through."""

    __slots__ = ("rows", "shapes")
    _fields = ("rows",)

    def __init__(self, rows: tuple[int, ...]):
        rows = tuple(int(k) for k in rows)
        shapes = [Partition()]
        for k in rows:
            shapes.append(shapes[-1].add_box(k))  # raises if some step is not addable
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "shapes", tuple(shapes))

    @classmethod
    def _along(cls, rows: tuple[int, ...], shapes: tuple[Partition, ...]) -> Walk:
        """The walk of ``rows`` whose ``shapes`` are already known to be its path."""
        walk = object.__new__(cls)
        object.__setattr__(walk, "rows", rows)
        object.__setattr__(walk, "shapes", shapes)
        return walk

    def __len__(self) -> int:
        return len(self.rows)

    def terminal(self) -> Partition:
        return self.shapes[-1]

    def __str__(self) -> str:
        return "[" + ",".join(str(k) for k in self.rows) + "]"


def enumerate_walks(n: int, r: int, target: Partition | None = None) -> list[Walk]:
    """All length-r walks bounded by n rows, lexicographic on the row sequence.

    With ``target`` given, only walks ending there (empty list when the target
    is not a partition of r into at most n parts).
    """
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    if target is not None and (target.size != r or target.nrows > n):
        return []
    out: list[Walk] = []
    # Depth-first with an explicit stack, since r may exceed the recursion
    # limit; children are pushed largest row first, so walks come out in
    # lexicographic order.  A prefix's shapes become its walks' shapes.
    stack: list[tuple[tuple[int, ...], tuple[Partition, ...]]] = [((), (Partition(),))]
    while stack:
        prefix, shapes = stack.pop()
        if len(prefix) == r:
            out.append(Walk._along(prefix, shapes))
            continue
        lam = shapes[-1]
        for j in reversed(lam.addable_rows(n)):
            # containment prune: stay inside the target shape
            if target is None or lam.row(j) < target.row(j):
                stack.append((prefix + (j,), shapes + (lam.add_box(j),)))
    return out


class StandardTableau(_Value):
    """Filling of a partition shape by 1..r, increasing along rows and columns."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        object.__setattr__(self, "rows", rows)
        shape = tuple(len(row) for row in rows)
        Partition(shape)  # validates the shape
        labels = sorted(x for row in rows for x in row)
        if labels != list(range(1, len(labels) + 1)):
            raise ValueError("labels must be exactly 1..r")
        for row in rows:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError("rows must strictly increase")
        for i in range(1, len(rows)):
            for j in range(len(rows[i])):
                if rows[i - 1][j] >= rows[i][j]:
                    raise ValueError("columns must strictly increase")

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(row) for row in self.rows))

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)


def walk_to_tableau(pi: Walk) -> StandardTableau:
    """Enter j into the box added at step j."""
    rows: list[list[int]] = []
    for j, k in enumerate(pi.rows, start=1):
        while len(rows) < k:
            rows.append([])
        rows[k - 1].append(j)
    return StandardTableau(tuple(tuple(row) for row in rows))


def tableau_to_walk(t: StandardTableau) -> Walk:
    """Inverse of walk_to_tableau (the tableau constructor rejects
    non-standard fillings)."""
    position = {}
    for i, row in enumerate(t.rows, start=1):
        for label in row:
            position[label] = i
    return Walk(tuple(position[j] for j in range(1, t.size + 1)))


def count_standard(lam: Partition) -> int:
    """Number of standard tableaux of the given shape (hook lengths)."""
    parts = lam.parts
    if not parts:
        return 1
    conj = [sum(1 for p in parts if p > c) for c in range(parts[0])]
    hooks = 1
    for i, p in enumerate(parts):
        for j in range(p):
            hooks *= (p - j) + (conj[j] - i) - 1
    return factorial(lam.size) // hooks


def weyl_dim(lam: Partition, n: int) -> int:
    """Dimension of the simple highest weight module, by the type-A product
    over pairs of rows; equals the count of column-bounded semistandard
    tableaux.  Pairs of empty rows give 1; nonempty row i of k against the
    empty rows telescopes to the product of (n-i+t)/(k-i+t), t = 1..lam_i."""
    if lam.nrows > n:
        raise ValueError(f"{lam} has more than {n} parts")
    parts, k = lam.parts, lam.nrows
    num = den = 1
    for i, p in enumerate(parts, start=1):
        for j in range(i + 1, k + 1):
            num *= p - parts[j - 1] + j - i
            den *= j - i
        for t in range(1, p + 1):
            num *= n - i + t
            den *= k - i + t
    return num // den


@cache
def partitions_in(n: int, r: int) -> tuple[Partition, ...]:
    """Partitions of r into at most n parts, largest first part first."""
    out: list[Partition] = []

    def gen(remaining: int, maxpart: int, acc: list[int]):
        if remaining == 0:
            out.append(Partition(tuple(acc)))
            return
        if len(acc) == n:
            return
        for p in range(min(maxpart, remaining), 0, -1):
            acc.append(p)
            gen(remaining - p, p, acc)
            acc.pop()

    gen(r, r, [])
    return tuple(out)


def coxeter_elements(n: int) -> list[tuple[int, ...]]:
    """Distinguished reduced words for the 2^(n-2) Coxeter elements of the
    symmetric group on n letters (generators 1..n-1, each used once).

    Built by the doubling recursion: prepend generator 1 to a shifted word,
    or append it; every word therefore begins or ends with generator 1.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    words: list[tuple[int, ...]] = [(1,)]
    for _ in range(n - 2):
        shifted = [tuple(x + 1 for x in w) for w in words]
        words = [(1,) + w for w in shifted] + [w + (1,) for w in shifted]
    return words
