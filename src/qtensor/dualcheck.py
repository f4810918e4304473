"""End-to-end verification: full highest-weight bases, Gram diagonality,
closed-form norms, transposition matrices on each isotypic block, the
invariant-vector basis, and the multiplicity decomposition report.

Reports are immutable values on `coeff._Value` (fields fixed at
construction, equal when their fields are), so the command line and the
tests share one code path; every check is exact (a nonzero residual anywhere
is a failure, never a tolerance question).

Pairings.  The Gram check and the Specht projections clear each vector once
to one common denominator (``ScalarField.clear``) and pair the numerators in
the ring (``ScalarField.pair``), so each entry is normalized once and a
vanishing entry not at all.

Relation suites.  The Hecke and commuting suites check each identity on all
n^r index basis vectors; the U1-U7 suite checks only the weakly increasing
tuples, one per letter content.  That suffices, and is exact, because:

- the Hecke suite checks that T_i v_idx is supported on idx and s_i idx with
  a nonzero coefficient on s_i idx, so every v_idx is a combination of
  T-words applied to the sorted vector of its content: the sorted vectors
  generate the tensor power as a module over the T_i (Dipper & James 1989;
  Jimbo 1986);
- the commuting suite checks that E_j, F_j, K_j and the coroot grouplikes
  commute with every T_i, and that K_j^-1 inverts K_j, so every relation's
  difference of two sides commutes with the T_i (the scalar part of U2 is a
  function of letter content, which the support condition makes T_i keep);
- an operator that commutes with the T_i and kills the generators kills
  everything.

So ``check_quantum_relations`` alone is complete only together with the
other two suites, as ``verify_suite`` runs them.  Each generator's image of
each basis vector is computed once by the tensor action itself (looked up in
this module when the suite runs, so a replaced action is the one checked)
and kept in a table shared by the three suites of one ``verify_stages`` run.
Words are applied by ``tensorspace._word_images``, the package's one word
recursion: a word's image on a basis vector is its suffix's image pushed
through the head's table, memoised per basis vector.  The relations'
right-hand sides, the Specht residuals and the rank elimination of the
root-vector check are sums through ``tensorspace.lincomb``.
"""

from __future__ import annotations

import itertools

from .coeff import ScalarField, _Value
from .combinatorics import (
    Partition,
    Walk,
    addable_rows,
    count_standard,
    d_const,
    enumerate_walks,
    partitions_in,
    weyl_dim,
)
from .psiphi import MaximalVectorRecord, apply_neg, build_c_pi, is_maximal, xi_map
from .tensorspace import (
    TensorVector,
    _act,
    _word_images,
    apply_E,
    apply_F,
    apply_K,
    apply_T,
    apply_tK,
    lincomb,
)

__all__ = [
    "GramReport",
    "SpechtData",
    "SpechtConsistencyError",
    "YoungsRuleReport",
    "ShapeRow",
    "DecompositionReport",
    "RootVectorReport",
    "CheckResult",
    "VerifyReport",
    "maximal_basis",
    "gram_check",
    "norm_predict",
    "specht_matrices",
    "youngs_rule_check",
    "invariants_basis",
    "decomposition_report",
    "root_vector_check",
    "check_quantum_relations",
    "check_hecke_relations",
    "check_commuting_actions",
    "verify_stages",
    "verify_suite",
]


def maximal_basis(n: int, r: int, field: ScalarField,
                  shape: Partition | None = None) -> list[MaximalVectorRecord]:
    """One record per walk, in walk-lexicographic order; with ``shape``, only
    the walks ending there (none when it is not a partition of r into at most
    n parts), pruned during the enumeration.  Every walk vector the package
    builds comes from here, except the single one of ``root_vector_check``."""
    return [build_c_pi(w, field, n) for w in enumerate_walks(n, r, shape)]


class GramReport(_Value):
    __slots__ = _fields = ("matrix", "diagonal", "ok", "violations")


def gram_check(records: list[MaximalVectorRecord]) -> GramReport:
    """Full Gram matrix; diagonal must be nonzero, off-diagonal zero.  Each
    vector is cleared once, and every entry pairs two cleared vectors."""
    k = len(records)
    matrix = [[None] * k for _ in range(k)]
    violations: list[tuple[Walk, Walk]] = []
    cleared = [rec.vector.field.clear(rec.vector.coeffs) for rec in records]
    for i in range(k):
        pair = records[i].vector.field.pair
        for j in range(i, k):
            val = pair(cleared[i], cleared[j])
            matrix[i][j] = matrix[j][i] = val
            if i == j and not val:
                violations.append((records[i].walk, records[j].walk))
            if i != j and val:
                violations.append((records[i].walk, records[j].walk))
    return GramReport(
        matrix=matrix,
        diagonal=[matrix[i][i] for i in range(k)],
        ok=not violations,
        violations=violations,
    )


def norm_predict(pi: Walk, field: ScalarField):
    """Closed-form self-pairing of the walk vector: the product over the
    steps of the one-step norm factor at the intermediate weight."""
    lam = Partition()
    acc = field.one()
    for m in pi.rows:
        if m >= 2:
            rho = field.q_power(1 - m)
            for t in range(1, m):
                d = d_const(lam, t, m - 1 - t)
                rho = rho * field.qint(d + 1) / field.qint(d)
            acc = acc * rho
        lam = lam.add_box(m)
    return acc


class SpechtConsistencyError(RuntimeError):
    """A transposition image failed to lie in the span of the walk basis."""


class SpechtData(_Value):
    __slots__ = _fields = ("shape", "basis", "gram_diagonal", "t_matrices")


def specht_matrices(lam: Partition, n: int, r: int, field: ScalarField) -> SpechtData:
    """Matrices of the transposition generators on the span of the walk
    vectors ending at the given shape.

    Coordinates come from orthogonal projection (pairing divided by the
    diagonal norm); the residual after projection is asserted to vanish.
    Each walk vector and each image is cleared once for its pairings.
    """
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
            image = apply_T(i, rec.vector)
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
    return SpechtData(shape=lam, basis=records, gram_diagonal=norms, t_matrices=t_matrices)


class YoungsRuleReport(_Value):
    __slots__ = _fields = ("shape", "n", "lhs", "contributions", "ok")


def youngs_rule_check(lam: Partition, n: int) -> YoungsRuleReport:
    """Dimension identity for tensoring with the vector module: n times the
    dimension equals the sum over addable rows of the grown dimensions."""
    lhs = n * weyl_dim(lam, n)
    contributions = []
    for j in addable_rows(lam, n):
        mu = lam.add_box(j)
        contributions.append((j, mu, weyl_dim(mu, n)))
    return YoungsRuleReport(
        shape=lam, n=n, lhs=lhs, contributions=contributions,
        ok=lhs == sum(d for _, _, d in contributions),
    )


def invariants_basis(n: int, r: int, field: ScalarField) -> list[MaximalVectorRecord]:
    """Walk vectors ending at a rectangular shape with n rows: a basis of the
    invariants of the traceless subalgebra.  Empty unless n divides r."""
    if r % n != 0:
        return []
    shape = Partition((r // n,) * n) if r else Partition()
    records = maximal_basis(n, r, field, shape)
    for rec in records:
        v = rec.vector
        for i in range(1, n):
            if not apply_E(i, v).is_zero or not apply_F(i, v).is_zero:
                raise RuntimeError(f"vector for walk {rec.walk} is not invariant")
            if apply_tK(i, v) != v:
                raise RuntimeError(f"vector for walk {rec.walk} is not of trivial coroot weight")
    return records


class ShapeRow(_Value):
    __slots__ = _fields = ("shape", "weyl_dim", "f", "walks", "all_maximal", "gram_diagonal")


class DecompositionReport(_Value):
    __slots__ = _fields = ("n", "r", "rows", "total", "identity_ok")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "shapes": [
                {
                    "shape": list(row.shape.parts),
                    "weyl_dim": row.weyl_dim,
                    "f": row.f,
                    "walks": row.walks,
                    "all_maximal": row.all_maximal,
                    "gram_diagonal": row.gram_diagonal,
                }
                for row in self.rows
            ],
            "total": self.total,
            "identity_ok": self.identity_ok,
        }


def decomposition_report(n: int, r: int, field: ScalarField) -> DecompositionReport:
    """Per-shape multiplicity table plus the dimension identity
    sum(weyl_dim * f) = n^r."""
    rows = []
    for lam in partitions_in(n, r):
        records = maximal_basis(n, r, field, lam)
        rows.append(ShapeRow(
            shape=lam,
            weyl_dim=weyl_dim(lam, n),
            f=count_standard(lam),
            walks=len(records),
            all_maximal=all(is_maximal(rec.vector) for rec in records),
            gram_diagonal=gram_check(records).ok,
        ))
    total = n**r
    identity_ok = (
        sum(row.weyl_dim * row.f for row in rows) == total
        and all(row.walks == row.f for row in rows)
    )
    return DecompositionReport(n=n, r=r, rows=rows, total=total, identity_ok=identity_ok)


# -- root vectors ---------------------------------------------------------------


def _rank(vectors: list[dict], one) -> int:
    """Rank of sparse vectors over an exact field whose one is ``one``, by
    elimination with the smallest key as pivot."""
    pivots: dict = {}
    rank = 0
    for row in vectors:
        while row:
            key = min(row)
            if key not in pivots:
                pivots[key] = row
                rank += 1
                break
            prow = pivots[key]
            row = lincomb(((one, row), (-(row[key] / prow[key]), prow)), one)
    return rank


class RootVectorReport(_Value):
    """``entries`` holds (m, j, element) triples."""

    __slots__ = _fields = ("shape", "n", "entries", "weights", "count_ok", "weights_distinct",
                           "independent", "vanished", "applied_independent")

    @property
    def ok(self) -> bool:
        return self.count_ok and self.weights_distinct and self.independent and self.applied_independent


def root_vector_check(lam: Partition, n: int, field: ScalarField) -> RootVectorReport:
    """Collect the lowering elements attached to all rows m = 2..n, check the
    expected count, distinct weights, and linear independence, then apply them
    to a highest-weight vector in tensor space and re-check independence of
    the nonvanishing images.  Only the first walk vector of the shape is
    needed, so it is built directly rather than through ``maximal_basis``."""
    for j in range(1, n):
        if lam.row(j) - lam.row(j + 1) == 0:
            raise ValueError(f"weight {lam} has a vanishing coroot pairing at {j}")
    entries: list[tuple[int, int, object]] = []
    weights: list[tuple[int, ...]] = []
    for m in range(2, n + 1):
        for j, el in xi_map(m, lam, field):
            entries.append((m, j, el))
            wt = [0] * n
            wt[j - 1] -= 1
            wt[m - 1] += 1
            weights.append(tuple(wt))
            # sanity: every support word uses the letters j..m-1 exactly once
            for word in el.terms:
                if sorted(word) != list(range(j, m)):
                    raise RuntimeError(
                        f"root vector (m={m}, j={j}) has support word {word}, "
                        f"not a permutation of {j}..{m - 1}")
    count_ok = len(entries) == n * (n - 1) // 2
    weights_distinct = len(set(weights)) == len(weights)
    one = field.one()
    independent = _rank([el.terms for _, _, el in entries], one) == len(entries)

    r = lam.size
    base = build_c_pi(enumerate_walks(n, r, lam)[0], field, n).vector
    vanished: list[tuple[int, int]] = []
    images: list[dict] = []
    for m, j, el in entries:
        image = apply_neg(el, base)
        if image.is_zero:
            vanished.append((m, j))
        else:
            images.append(image.coeffs)
    applied_independent = _rank(images, one) == len(images)
    return RootVectorReport(
        shape=lam, n=n, entries=entries, weights=weights,
        count_ok=count_ok, weights_distinct=weights_distinct,
        independent=independent, vanished=vanished,
        applied_independent=applied_independent,
    )


# -- relation suites --------------------------------------------------------------


class CheckResult(_Value):
    __slots__ = _fields = ("name", "ok", "detail")
    _defaults = {"detail": ""}


def _all_indices(n: int, r: int):
    return itertools.product(range(1, n + 1), repeat=r)


def _sorted_indices(n: int, r: int):
    """The weakly increasing index tuples: one per letter content."""
    return itertools.combinations_with_replacement(range(1, n + 1), r)


def _apply_K_inverse(i: int, v: TensorVector) -> TensorVector:
    return apply_K(i, v, inverse=True)


class _Table(dict):
    """One generator's images of the index basis vectors, filled on lookup."""

    def __init__(self, words: _Words, gen: tuple):
        super().__init__()
        self.words = words
        self.gen = gen

    def __missing__(self, idx: tuple[int, ...]) -> dict:
        action, i = self.gen
        words = self.words
        shared = words.shared
        image = self[shared.setdefault(idx, idx)] = {
            shared.setdefault(k, k): shared.setdefault(c, c)
            for k, c in action(i, TensorVector.basis(words.field, words.n, idx)).coeffs.items()}
        return image


class _Words:
    """Images of generator words on the index basis vectors, shared by the
    suites of one battery.

    A generator is a pair (action, i) such as (apply_E, 2).  Its image on a
    basis vector is computed once, by the action itself, and kept in a table.
    Equal table coefficients share one object (there are few distinct ones,
    mostly powers of q), and so do equal index tuples, which keeps the tables
    of a whole battery small; a coefficient equal to one is ``self.one``, so
    composing skips those products.  ``words(g1, ..., gk)`` is g1(...gk(v))
    for the current basis vector v, memoised by suffix until ``start`` moves
    on to the next basis vector.
    """

    def __init__(self, field: ScalarField, n: int):
        self.field = field
        self.n = n
        self.one = field.one()
        self.shared = {self.one: self.one}
        self.tables: dict[tuple, _Table] = {}

    def start(self, idx: tuple[int, ...]) -> dict:
        """Move on to the basis vector of ``idx``; returns its coefficients."""
        v = {idx: self.one}
        one, tables = self.one, self.tables

        def step(gen, coeffs):
            table = tables.get(gen)
            if table is None:
                table = tables[gen] = _Table(self, gen)
            return table[idx] if coeffs is v else _act(coeffs, table.__getitem__, one)

        self._image = _word_images(v, step)
        return v

    def __call__(self, *word: tuple) -> dict:
        return self._image(word)


def check_quantum_relations(n: int, r: int, field: ScalarField, *,
                            words: _Words | None = None) -> list[CheckResult]:
    """Defining relations of the quantized algebra as operator identities on
    the sorted index basis vectors of the degree-r tensor power.

    These vectors generate the tensor power as a module over the
    transposition generators, so a relation that holds on them holds
    everywhere, provided every generator commutes with every T_i and the
    T_i act as the Hecke suite checks.  Alone this suite is therefore not
    complete: it proves the relations only together with
    ``check_hecke_relations`` and ``check_commuting_actions``, as run by
    ``verify_suite``.  ``words`` shares tabulated images with those suites.
    """
    if words is None:
        words = _Words(field, n)
    E = {i: (apply_E, i) for i in range(1, n)}
    F = {i: (apply_F, i) for i in range(1, n)}
    K = {i: (apply_K, i) for i in range(1, n + 1)}
    K_inv = {i: (_apply_K_inverse, i) for i in range(1, n + 1)}
    serre_coeff = field.q_power(1) + field.q_power(-1)
    one = words.one
    q_shift = {-1: field.q_power(-1), 0: one, 1: field.q_power(1)}

    def serre(X, i, j):
        return (lincomb([(one, words(X[i], X[i], X[j])), (one, words(X[j], X[i], X[i]))], one)
                == lincomb([(serre_coeff, words(X[i], X[j], X[i]))], one))

    ok_u1 = ok_u2 = ok_u3 = True
    ok_serre_e = ok_serre_f = ok_far_e = ok_far_f = True
    for idx in _sorted_indices(n, r):
        v = words.start(idx)
        for i in range(1, n + 1):
            if words(K[i], K_inv[i]) != v:
                ok_u1 = False
            for j in range(1, n + 1):
                if words(K[i], K[j]) != words(K[j], K[i]):
                    ok_u1 = False
        for i in range(1, n):
            for j in range(1, n):
                rhs = words(F[j], E[i])
                if i == j:
                    rhs = lincomb([(one, rhs), (field.qint(idx.count(i) - idx.count(i + 1)), v)], one)
                if words(E[i], F[j]) != rhs:
                    ok_u2 = False
        for i in range(1, n + 1):
            for j in range(1, n):
                h = (1 if i == j else 0) - (1 if i == j + 1 else 0)
                if words(K[i], E[j]) != lincomb([(q_shift[h], words(E[j], K[i]))], one):
                    ok_u3 = False
                if words(K[i], F[j]) != lincomb([(q_shift[-h], words(F[j], K[i]))], one):
                    ok_u3 = False
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) == 1:
                    if not serre(E, i, j):
                        ok_serre_e = False
                    if not serre(F, i, j):
                        ok_serre_f = False
                elif abs(i - j) > 1:
                    if words(E[i], E[j]) != words(E[j], E[i]):
                        ok_far_e = False
                    if words(F[i], F[j]) != words(F[j], F[i]):
                        ok_far_f = False
    return [
        CheckResult("U1 grouplike commute/invert", ok_u1),
        CheckResult("U2 raise/lower commutator", ok_u2),
        CheckResult("U3 grouplike conjugation", ok_u3),
        CheckResult("U4 raising Serre", ok_serre_e),
        CheckResult("U5 raising far commutation", ok_far_e),
        CheckResult("U6 lowering Serre", ok_serre_f),
        CheckResult("U7 lowering far commutation", ok_far_f),
    ]


def check_hecke_relations(n: int, r: int, field: ScalarField, *,
                          words: _Words | None = None) -> list[CheckResult]:
    """Quadratic, braid, and far-commutation relations for the transposition
    generators on every index basis vector.

    The quadratic row also checks that T_i v_idx is supported on idx and its
    swap s_i idx, with a nonzero coefficient on s_i idx.  Then each v_idx is
    reached from the sorted tuple of its content by such swaps, so the sorted
    vectors generate the tensor power, which is what lets
    ``check_quantum_relations`` check only them."""
    if words is None:
        words = _Words(field, n)
    T = {i: (apply_T, i) for i in range(1, r)}
    qdiff = field.q_power(1) - field.q_power(-1)

    ok_quad = ok_braid = ok_far = True
    for idx in _all_indices(n, r):
        v = words.start(idx)
        for i in range(1, r):
            image = words(T[i])
            swapped = idx[:i - 1] + (idx[i], idx[i - 1]) + idx[i + 1:]
            if not image.get(swapped) or not image.keys() <= {idx, swapped}:
                ok_quad = False
            if words(T[i], T[i]) != lincomb([(qdiff, image), (words.one, v)], words.one):
                ok_quad = False
        for i in range(1, r - 1):
            if words(T[i], T[i + 1], T[i]) != words(T[i + 1], T[i], T[i + 1]):
                ok_braid = False
        for i in range(1, r):
            for j in range(i + 2, r):
                if words(T[i], T[j]) != words(T[j], T[i]):
                    ok_far = False
    return [
        CheckResult("quadratic relation", ok_quad),
        CheckResult("braid relation", ok_braid),
        CheckResult("far commutation of transpositions", ok_far),
    ]


def check_commuting_actions(n: int, r: int, field: ScalarField, *,
                            words: _Words | None = None) -> CheckResult:
    """Generator-by-generator commutation of the two actions on every index
    basis vector: E_j, F_j, the coroot grouplikes and K_j against every T_i.
    K_j^-1 is checked to invert K_j, so it commutes with the T_i as well."""
    if words is None:
        words = _Words(field, n)
    T = {i: (apply_T, i) for i in range(1, r)}
    gens = [(action, j) for action in (apply_E, apply_F, apply_tK) for j in range(1, n)]
    gens += [(apply_K, j) for j in range(1, n + 1)]
    ok = True
    for idx in _all_indices(n, r):
        v = words.start(idx)
        for j in range(1, n + 1):
            if words((apply_K, j), (_apply_K_inverse, j)) != v:
                ok = False
        for i in range(1, r):
            for gen in gens:
                if words(gen, T[i]) != words(T[i], gen):
                    ok = False
    return CheckResult("commuting actions", ok)


class VerifyReport(_Value):
    __slots__ = _fields = ("n", "r", "checks")

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks],
            "ok": self.ok,
        }


def verify_stages(n: int, r: int, field: ScalarField):
    """The full battery at one size, stage by stage: yields ``(stage,
    checks)`` for build (no checks), maximality, Gram, norms (against the Gram
    diagonal), counting, quantum, Hecke and commuting, in that order.  The
    three relation suites share one table of generator images.  Each stage
    runs when the generator is resumed, so the gaps between yields time it."""
    records = maximal_basis(n, r, field)
    yield "build", []

    yield "maximality", [CheckResult(
        "maximality", all([rec.vector.r == 0 or is_maximal(rec.vector) for rec in records]),
        f"{len(records)} walk vectors")]

    gram = gram_check(records)
    yield "Gram", [CheckResult("orthogonality", gram.ok, f"{len(records)}x{len(records)} Gram matrix")]

    yield "norms", [CheckResult("norm formula", all([
        norm_predict(rec.walk, field) == norm for rec, norm in zip(records, gram.diagonal)]))]

    expected = sum(count_standard(lam) for lam in partitions_in(n, r))
    dim_ok = (
        len(records) == expected
        and sum(weyl_dim(lam, n) * count_standard(lam) for lam in partitions_in(n, r)) == n**r
    )
    yield "counting", [CheckResult("counting", dim_ok, f"{len(records)} = sum of tableau counts")]

    words = _Words(field, n)
    yield "quantum", check_quantum_relations(n, r, field, words=words)
    yield "Hecke", check_hecke_relations(n, r, field, words=words)
    yield "commuting", [check_commuting_actions(n, r, field, words=words)]


def verify_suite(n: int, r: int, field: ScalarField) -> VerifyReport:
    """The checks of every stage of ``verify_stages``, in order."""
    return VerifyReport(n=n, r=r, checks=[c for _, checks in verify_stages(n, r, field) for c in checks])
