"""End-to-end verification: full highest-weight bases, Gram diagonality,
closed-form norms, transposition matrices on each isotypic block, the
invariant-vector basis, and the multiplicity decomposition report.

Reports are immutable values on `coeff._Value` (fields fixed at
construction, equal when their fields are), so the command line and the
tests share one code path; every check is exact (a nonzero residual anywhere
is a failure, never a tolerance question).

Pairings.  The Gram check and the Specht Gram diagonals read each vector once
in its field's pairing form (``ScalarField._pairing_form``) and pair the
numerators in the ring (``ScalarField.pair``), so each entry is normalized
once and a vanishing entry not at all.  The Specht matrices need no pairing:
their rows are read off the walks (``specht_matrices``).

Relation suites.  All three check each generator's local form on all n^r
index vectors, by table lookup, and then decide their relations on V, V⊗V
or V⊗V⊗V (Jimbo 1986):

- premises: T_i is one two-site matrix R^(i) on slots (i, i+1), read off its
  own table; E_j is the iterated coproduct of a one-site e_j without
  diagonal entries and a diagonal grouplike kappa_j, both read off E_j's own
  table (F_j mirrored: f_j, with kappa'_j on the right); K_j is c_j
  k_j⊗...⊗k_j with k_j(j mod n + 1) = 1, and K~_j and K_j^-1 likewise (K_j^-1
  as c'_j k'_j⊗...⊗k'_j); and, for U1-U7 only, c_j c'_j = 1 and kappa_j =
  q^h_j with h_j(a) = δ(a,j) - δ(a,j+1) at each letter a, kappa'_j its
  inverse;
- U1-U7 (r > 1) hold on V^{⊗r} when they hold on V for e_j, f_j, k_j and
  k'_j.  U1 and U3 follow slot by slot (c_j cancels in U3, c_j c'_j = 1 in
  U1).  For U2 and U4-U7, write k(a) for (k_1(a), ..., k_n(a)), α_j for
  ε_j - ε_{j+1} in Z^n, and q^β for (q^β_1, ..., q^β_n); q is not a root of
  unity, so q^β = q^γ only if β = γ.
  (1) U1 on V makes every k_i(a) nonzero, and U3 on V makes k a potential:
  an entry of e_j taking v_b to a multiple of v_a has k(a) = q^α_j k(b)
  (an entry of f_j: q^-α_j).
  (2) U2 on V gives [e_j, f_j] = diag(h_j).  The letters a with k(a) in
  k(j) q^(Z α_j) span a space that e_j and f_j keep, as they keep the span
  of the others, by (1); the commutator's trace there is 0, so j+1 is among
  them: k(j) = q^(z_j α_j) k(j+1) with z_j in Z, and k(a) = q^(z_a α_a +
  ... + z_(b-1) α_(b-1)) k(b) for a < b.  The α_i are independent, so an
  entry of e_j on letters a and b needs j between them (min(a,b) <= j <
  max(a,b)), z_j = ±1 and z_i = 0 for every other i between them.  Every
  e_i has an entry (as [e_i, f_i] is not 0), so every z_i is ±1: e_j has
  one entry, taking v_(j+1) to v_j if z_j = 1 and v_j to v_(j+1) if z_j =
  -1, and f_j one the other way.  Off-diagonal U2 makes z_j = z_(j+1) = s:
  if e_j takes v_(j+1) to v_j and e_(j+1) v_(j+1) to v_(j+2), then e_j
  f_(j+1) v_(j+2) is not 0 and f_(j+1) e_j v_(j+2) is; the other mix fails
  at v_j.
  (3) So kappa_i conjugates e_j to q^(s a_ij) e_j and f_j to q^(-s a_ij) f_j
  on V (h_i(j) - h_i(j+1) = a_ij, the Cartan matrix).  With s = 1, e_j, f_j
  and kappa_j^{±1} are a representation of U_q(sl_n) on V; with s = -1,
  e_j, -f_j and kappa_j^{±1} are one of U_(q^-1)(sl_n), whose U2 has
  q^-1 - q in the denominator and whose Serre relations have q^-1 + q, the
  same [2].  Δ(E) = E⊗1 + K~⊗E, Δ(F) = F⊗K~^-1 + 1⊗F, Δ(K~) = K~⊗K~ is an
  algebra map for both (Jantzen 1996, ch. 3-4; in U2 the cross terms K~_i
  F_j ⊗ E_i K~_j^-1 and F_j K~_i ⊗ K~_j^-1 E_i are equal, as the Cartan
  matrix is symmetric), so its iterate carries the relations to V^{⊗r},
  where it gives E_j and F_j (-F_j if s = -1), and (K~_j - K~_j^-1)/(q -
  q^-1) acts as U2's [m_j - m_{j+1}].  For r <= 1, U1-U7 are decided on the
  tensor power's own tables;
- Hecke and commuting lemmas: the quadratic row, with its support check, is
  R^(i)'s on V⊗V; the braid row is R^(i)_12 R^(i+1)_23 R^(i)_12 =
  R^(i+1)_23 R^(i)_12 R^(i+1)_23 on V⊗V⊗V; far commutation follows from
  disjoint slots; K_j^-1 inverts K_j when c_j c'_j = 1 and k_j(a) k'_j(a) =
  1 at each letter a; a tensor power c k⊗...⊗k (K~_j or K_j) commutes with
  T_i when k⊗k commutes with R^(i) on V⊗V, that is k(a)k(b) = k(c)k(d)
  wherever R^(i) takes ab to cd; [E_j, T_i] = 0 when [Δ(E_j), R^(i)] = 0 on
  V⊗V and, if i < r-1, kappa_j⊗kappa_j commutes with R^(i) (for F_j: if
  i > 1);
- fallback: a row lists only the (relation, generator, i) pairs that no lemma
  proves, because a premise or the local check fails, and each is decided by
  comparing words on all n^r vectors, as the exhaustive suite does it; a
  proved pair is never listed.  Only the local ⇒ global
  direction of each lemma is used, so each suite is exact on its own: every
  row's verdict is the exhaustive one, and a failing row's ``detail`` names
  its first failing pair at its first failing index, with the residual.

A premise reads its generator's images of the n^r basis vectors one at a
time, as the tensor action computes them (looked up in this module when the
suite runs, so a replaced action is the one checked), and keeps none.  Words
are composed on tables (``_Words``), which only a fallback pair and U1-U7 at
r <= 1 fill, by ``tensorspace._word_images``: a word's image on a basis
vector is its suffix's image pushed through the head's table, memoised per
basis vector.  The relations' right-hand sides, the Specht residuals and the
rank elimination of the root-vector check are sums through ``lincomb``.
"""

from __future__ import annotations

import functools
import itertools

from .coeff import ScalarField, _Value
from .combinatorics import (
    Partition,
    Walk,
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
    "ShapeRow",
    "DecompositionReport",
    "RootVectorReport",
    "CheckResult",
    "VerifyReport",
    "maximal_basis",
    "gram_check",
    "norm_predict",
    "specht_matrices",
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
    vector is read once in its pairing form, and every entry pairs two."""
    k = len(records)
    matrix = [[None] * k for _ in range(k)]
    violations: list[tuple[Walk, Walk]] = []
    cleared = [rec.vector.field._pairing_form(rec.vector) for rec in records]
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
    acc = field.one()
    for m, lam in zip(pi.rows, pi.shapes):
        if m >= 2:
            rho = field.q_power(1 - m)
            for t in range(1, m):
                d = d_const(lam, t, m - 1 - t)
                rho = rho * field.qint(d + 1) / field.qint(d)
            acc = acc * rho
    return acc


class SpechtConsistencyError(RuntimeError):
    """A transposition image differs from its row of Young's seminormal form."""


class SpechtData(_Value):
    __slots__ = _fields = ("shape", "basis", "gram_diagonal", "t_matrices")


def specht_matrices(lam: Partition, n: int, r: int, field: ScalarField) -> SpechtData:
    """Matrices of the transposition generators on the span of the walk
    vectors ending at the given shape (row π of T_i holds T_i v_π), read off
    the walks in Young's seminormal form (Hoefsmit 1974; Wenzl 1988).

    ``phi`` puts each new factor on the left, so slot i holds the box added at
    step r-i+1 and slot i+1 the box of step r-i.  With d the first box's
    content (column minus row) minus the second's, and σ the walk π with the
    two steps swapped, the row has q^d/[d] on π; if |d| > 1 it also has 1 on
    σ if d > 0, [d-1][d+1]/[d]^2 if d < 0.  Each row is checked exactly: T_i
    v_π minus those terms must vanish.  It is multiplied through by every
    denominator and summed in ``ScalarField.clear``'s ring, on numerators
    read as the walk vectors' pairing forms, which also give the Gram diagonal.
    """
    records = maximal_basis(n, r, field, lam)
    if not records:
        raise ValueError(f"{lam} is not a shape of degree {r} with at most {n} rows")
    position = {rec.walk.rows: p for p, rec in enumerate(records)}
    zero, one, qint = field.zero(), field.one(), field.qint
    entries = functools.cache(lambda d: (  # on π, and on σ (None if |d| = 1)
        field.q_power(d) / qint(d),
        None if abs(d) == 1 else one if d > 0 else qint(d - 1) * qint(d + 1) / qint(d) ** 2))
    clear = field.clear
    ring_entries = functools.cache(lambda d: clear({k: x for k, x in enumerate(entries(d)) if x is not None}))
    cleared = [field._pairing_form(rec.vector) for rec in records]
    contents = [[shape.row(m) - m for m, shape in zip(rec.walk.rows, rec.walk.shapes[1:])] for rec in records]
    t_matrices = []
    for i in range(1, r):
        rows = []
        for p, (rec, c) in enumerate(zip(records, contents)):
            d = c[r - i] - c[r - i - 1]
            (a, b), (d_ab, ab) = entries(d), ring_entries(d)
            (d_p, n_p), (d_s, n_s) = cleared[p], (1, {})
            row = [zero] * len(records)
            row[p] = a
            if b is not None:
                w = rec.walk.rows
                s = position[w[:r - i - 1] + (w[r - i], w[r - i - 1]) + w[r - i + 1:]]
                row[s] = b
                d_s, n_s = cleared[s]
            d_t, image = clear(apply_T(i, rec.vector._fresh(n_p)).coeffs)
            terms = [(d_ab * d_s, image), (-d_t * d_s * ab[0], n_p), (-d_t * d_p * ab.get(1, 0), n_s)]
            if lincomb(terms, 1):  # 1 is the ring's one at q0; on Q(q) no numerator is it
                raise SpechtConsistencyError(
                    f"T_{i} image of walk {rec.walk} does not match the seminormal form at shape {lam}")
            rows.append(row)
        t_matrices.append(rows)
    return SpechtData(shape=lam, basis=records, t_matrices=t_matrices,
                      gram_diagonal=[field.pair(c, c) for c in cleared])


def invariants_basis(n: int, r: int, field: ScalarField) -> list[MaximalVectorRecord]:
    """Walk vectors ending at a rectangular shape with n rows: a basis of the
    invariants of the traceless subalgebra.  Empty unless n divides r.  E_i,
    F_i and K~_i are checked where i or i + 1 is a letter of the vector: the
    others kill it or fix it on every index."""
    if r % n != 0:
        return []
    shape = Partition((r // n,) * n) if r else Partition()
    records = maximal_basis(n, r, field, shape)
    for rec in records:
        v = rec.vector
        letters = {a for idx in v.coeffs for a in idx}
        for i in sorted({i for a in letters for i in (a - 1, a) if 1 <= i < n}):
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
    needed, so it is built directly rather than through ``maximal_basis``:
    the lexicographically first walk fills row 1, then row 2, and so on."""
    if lam.nrows > n:
        raise ValueError(f"{lam} has more than {n} rows")
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

    first = Walk(tuple(m for m, part in enumerate(lam.parts, 1) for _ in range(part)))
    base = build_c_pi(first, field, n).vector
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


def _apply_K_inverse(i: int, v: TensorVector) -> TensorVector:
    return apply_K(i, v, inverse=True)


class _Words:
    """Images of generator words on the index basis vectors of degree r,
    shared by the suites of one battery.

    A generator is a pair (action, i) such as (apply_E, 2), applied by the
    action itself.  ``image`` and ``images`` compute its images of single
    basis vectors and keep none; ``table`` keeps all n^r of them, for the
    words that ``start`` composes.  The coefficients are the field's memoised
    ones (one, q, q - q^-1, q^e), so a coefficient equal to one is
    ``self.one`` and composing skips those products; ``share`` gives computed
    values the same property.  ``words(g1, ..., gk)`` is g1(...gk(v)) for the
    current basis vector v, memoised by suffix until ``start`` moves on to the
    next basis vector.  A generator may also be any key whose table is put in
    ``tables`` whole, such as a local form on V⊗V; ``forms`` keeps each
    generator's local form (``_cached``) for every suite that uses it.
    """

    def __init__(self, field: ScalarField, n: int, r: int):
        self.field = field
        self.n = n
        self.r = r
        self.one = field.one()
        self.shared = {self.one: self.one}
        self.tables: dict = {}
        self.forms: dict = {}
        self.zero = TensorVector.zero(field, n, r)

    def share(self, x):
        return self.shared.setdefault(x, x)

    def image(self, gen, idx: tuple[int, ...]) -> dict:
        return gen[0](gen[1], self.zero._fresh({idx: self.one})).coeffs

    def images(self, gen):
        """(idx, image) over all n^r indices in order, one at a time."""
        return ((idx, self.image(gen, idx)) for idx in _all_indices(self.n, self.r))

    def table(self, gen) -> dict:
        table = self.tables.get(gen)
        if table is None:
            table = self.tables[gen] = dict(self.images(gen))
        return table

    def start(self, idx: tuple[int, ...]) -> dict:
        """Move on to the basis vector of ``idx``; returns its coefficients."""
        v = {idx: self.one}
        one, tables, table = self.one, self.tables, self.table

        def step(gen, coeffs):
            t = tables.get(gen) or table(gen)
            return t[idx] if coeffs is v else _act(coeffs, t.__getitem__, one)

        self._image = _word_images(v, step)
        return v

    def __call__(self, *word) -> dict:
        return self._image(word)

    def render(self, coeffs: dict) -> str:
        return str(self.zero._fresh(coeffs))

    def residual(self, lhs: dict, rhs: dict) -> str | None:
        """None when the two sides agree, else lhs - rhs rendered."""
        one = self.one
        return None if lhs == rhs else "residual " + self.render(lincomb(((one, lhs), (-one, rhs)), one))


def _vec(idx: tuple[int, ...]) -> str:
    return "v[" + ",".join(map(str, idx)) + "]"


def check_quantum_relations(n: int, r: int, field: ScalarField, *,
                            words: _Words | None = None) -> list[CheckResult]:
    """Defining relations of the quantized algebra as operator identities on
    the degree-r tensor power.

    For r > 1 they are decided on V, through the coproduct, when the
    generators have their one-site forms (``_one_site``), and for r <= 1 on
    the tensor power's own tables.  Otherwise each row compares words on all
    n^r index vectors.  ``words`` shares tabulated images and local forms
    with the other two suites.
    """
    if words is None:
        words = _Words(field, n, r)
    local = _one_site(words) if r > 1 else words
    proved = local is not None and all(
        _scan(local, _all_indices(n, local.r), fails) is None
        for _, pairs in _quantum_rows(local) for _, fails in pairs)
    return [_decide(words, name, () if proved else pairs) for name, pairs in _quantum_rows(words)]


def _quantum_rows(words: _Words) -> list[tuple[str, object]]:
    """U1-U7 on the generators of ``words`` as (row name, (label, fails)
    pairs), each row's pairs made lazily in witness order."""
    n, one, q = words.n, words.one, words.field.q_power
    G = {"E": {i: (apply_E, i) for i in range(1, n)}, "F": {i: (apply_F, i) for i in range(1, n)},
         "K": {i: (apply_K, i) for i in range(1, n + 1)}}
    E, F, K = G["E"], G["F"], G["K"]

    def sums(lhs, rhs):
        side = lambda terms: lincomb([(s, words(*w)) for s, w in terms], one)
        return lambda idx, v: words.residual(side(lhs), side(rhs))

    def commutator(i, j):
        def fails(idx, v):
            rhs = words(F[j], E[i])
            if i == j:  # the balanced q-integer of the content difference
                rhs = lincomb([(one, rhs), (words.field.qint(idx.count(i) - idx.count(i + 1)), v)], one)
            return words.residual(words(E[i], F[j]), rhs)

        return f"[E_{i}, F_{j}]" + (f" - [m_{i} - m_{i + 1}]" if i == j else ""), fails

    def conjugation(i, X, j, h):
        return (f"K_{i} {X}_{j} - {('q^-1 ', '', 'q ')[h + 1]}{X}_{j} K_{i}",
                sums([(one, (K[i], G[X][j]))], [(q(h), (G[X][j], K[i]))]))

    def serre(X, i, j):
        Xi, Xj = G[X][i], G[X][j]
        return (f"{X}_{i}^2 {X}_{j} - (q + q^-1) {X}_{i} {X}_{j} {X}_{i} + {X}_{j} {X}_{i}^2",
                sums([(one, (Xi, Xi, Xj)), (one, (Xj, Xi, Xi))], [(q(1) + q(-1), (Xi, Xj, Xi))]))

    def commute(X, i, j):
        return f"[{X}_{i}, {X}_{j}]", _equal(words, (G[X][i], G[X][j]), (G[X][j], G[X][i]))

    return [
        ("U1 grouplike commute/invert", itertools.chain(
            ((f"K_{i} K_{i}^-1 - 1", _equal(words, (K[i], (_apply_K_inverse, i)), ())) for i in K),
            (commute("K", i, j) for i in K for j in range(i + 1, n + 1)))),
        ("U2 raise/lower commutator", (commutator(i, j) for i in E for j in E)),
        ("U3 grouplike conjugation",
         (conjugation(i, X, j, s * ((i == j) - (i == j + 1))) for i in K for j in E for X, s in (("E", 1), ("F", -1)))),
        ("U4 raising Serre", (serre("E", i, j) for i in E for j in (i - 1, i + 1) if j in E)),
        ("U5 raising far commutation", (commute("E", i, j) for i in E for j in range(i + 2, n))),
        ("U6 lowering Serre", (serre("F", i, j) for i in E for j in (i - 1, i + 1) if j in E)),
        ("U7 lowering far commutation", (commute("F", i, j) for i in E for j in range(i + 2, n))),
    ]


# Relations at one basis vector: each makes a test ``fails(idx, v)`` that
# returns None, or what went wrong there.

def _quadratic(words: _Words, t, i: int = 1):
    one, qdiff = words.one, words.field.q_diff()

    def fails(idx, v):
        image = words(t)
        swapped = idx[:i - 1] + (idx[i], idx[i - 1]) + idx[i + 1:]
        if not image.get(swapped) or not image.keys() <= {idx, swapped}:
            return (f"image {words.render(image)} is not on {_vec(idx)} and {_vec(swapped)}"
                    f" with a nonzero {_vec(swapped)} term")
        return words.residual(words(t, t), lincomb([(qdiff, image), (one, v)], one))

    return fails


def _equal(words: _Words, lhs: tuple, rhs: tuple):
    return lambda idx, v: words.residual(words(*lhs), words(*rhs))


def _scan(words: _Words, indices, fails):
    """The first index at which ``fails`` finds a failure, with it, or None."""
    for idx in indices:
        failure = fails(idx, words.start(idx))
        if failure is not None:
            return idx, failure
    return None


def _locally(words: _Words, rank: int, tables: dict, relation) -> bool:
    """Whether ``relation(local)`` holds on all n^rank index vectors, where
    ``local`` composes the given tables (whole, on the n^rank index tuples)."""
    local = _Words(words.field, words.n, rank)
    local.tables.update(tables)
    return _scan(local, _all_indices(words.n, rank), relation(local)) is None


def _decide(words: _Words, name: str, pairs) -> CheckResult:
    """One row from its (label, fails) pairs in witness order: only the pairs
    that no local lemma proves, each decided by ``fails`` on every basis
    vector, as the exhaustive suite does.  The row's witness is its first
    failing pair at the first failing index."""
    for label, fails in pairs:
        found = _scan(words, _all_indices(words.n, words.r), fails)
        if found:
            return CheckResult(name, False, f"{label} at {_vec(found[0])}: {found[1]}")
    return CheckResult(name, True)


def _on_slots(R: dict, n: int, rank: int, s: int) -> dict:
    """The two-site table R placed on slots (s, s+1) of V^{⊗rank}."""
    return {k: {k[:s - 1] + cd + k[s + 1:]: c for cd, c in R[k[s - 1:s + 1]].items()}
            for k in _all_indices(n, rank)}


def _cached(form):
    """``form(words, gen)``, computed once per generator and kept in
    ``words.forms`` for every suite that asks for it."""

    @functools.wraps(form)
    def cached(words: _Words, gen):
        key = (form.__name__, gen)
        if key not in words.forms:
            words.forms[key] = form(words, gen)
        return words.forms[key]

    return cached


@_cached
def _two_site(words: _Words, t) -> dict | None:
    """R^(i) for t = T_i: the table on V⊗V read off T_i's images of the
    indices whose letters off slots (i, i+1) are 1, or None unless every
    T_i v_idx is R^(i) on those slots and the identity elsewhere."""
    i, R = t[1], {}
    for idx, image in words.images(t):
        head, ab, tail = idx[:i - 1], idx[i - 1:i + 1], idx[i + 1:]
        local = R.get(ab)
        if local is None:
            local = R[ab] = {k[i - 1:i + 1]: c for k, c in image.items()}
        if {head + cd + tail: c for cd, c in local.items()} != image:
            return None
    return R


def _content_product(words: _Words, k: dict, start):
    """The function t -> start * k(t_1) * ... * k(t_m) on tuples of letters,
    multiplied out and shared once per letter content (the factors commute)."""
    one = words.one
    product = functools.cache(lambda key: words.share(functools.reduce(
        lambda x, a: x if k[a] is one else k[a] if x is one else x * k[a], key, start)))
    return lambda t: product(tuple(sorted(t)))


def _coproduct_images(words: _Words, e: dict, kappa: dict, indices, right: bool):
    """(idx, image) of the sum over slots s of the one-site e on slot s and
    the diagonal kappa on every slot left of s (right of s, if ``right``):
    the iterated coproduct of E_j (of F_j, with K~_j^-1 for kappa)."""
    one, product = words.one, _content_product(words, kappa, words.one)
    for idx in indices:
        image = {}
        for s, a in enumerate(idx):
            if e[a]:
                p = product(idx[s + 1:] if right else idx[:s])
                for b, x in e[a].items():
                    image[idx[:s] + (b,) + idx[s + 1:]] = p if x is one else x if p is one else x * p
        yield idx, image


@_cached
def _coproduct_form(words: _Words, gen) -> tuple | None:
    """(e, kappa, Δ(gen) on V⊗V), if gen's images of all n^r vectors (r > 1)
    are the iterated coproduct of a one-site e with no diagonal entry (so the
    slots' terms never meet) and a diagonal grouplike kappa, else None.  e(a)
    is read off the image of (a, 1, ..., 1), and kappa(a) off the second
    slot's term in that of (a, b, 1, ..., 1), for a b with a nonzero
    coefficient in e(b); for F_j, all is mirrored (the last slots, kappa on
    the right)."""
    n, one, right = words.n, words.one, gen[0] is apply_F
    letters, fill = range(1, n + 1), (1,) * (words.r - 1)
    flip = (lambda t: t[::-1]) if right else (lambda t: t)
    at = lambda idx: words.image(gen, flip(idx))
    e = {a: {flip(k)[0]: c for k, c in at((a,) + fill).items() if flip(k)[1:] == fill} for a in letters}
    b, b2, c = next(((b, b2, c) for b in letters for b2, c in e[b].items() if c), (None,) * 3)
    if b is None or any(a in e[a] for a in letters):
        return None
    rest = fill[1:]
    kappa = {a: words.share(x if c is one else x / c) for a in letters
             for x in [at((a, b) + rest).get(flip((a, b2) + rest), words.field.zero())]}
    if any(image != words.image(gen, idx) for idx, image in _coproduct_images(
            words, e, kappa, _all_indices(n, words.r), right)):
        return None
    return e, kappa, dict(_coproduct_images(words, e, kappa, _all_indices(n, 2), right))


@_cached
def _tensor_power(words: _Words, gen) -> tuple | None:
    """(c, k), if gen = (action, j) is diagonal and its images of all n^r
    vectors are c k⊗...⊗k for a one-site k with k(b) = 1, where b = j mod n
    + 1 (so for the true K_j and n > 1, c = 1 and k(a) = q^δ(a,j)), else
    None.  At r = 0, k is 1 and c the one eigenvalue."""
    zero, r, b = words.field.zero(), words.r, (gen[1] % words.n + 1,)
    lam = lambda idx: words.image(gen, idx).get(idx, zero)
    c = lam(b * r)
    if not c:
        return None
    k = {a: words.share(lam((a,) + b * (r - 1)) / c) if r else words.one for a in range(1, words.n + 1)}
    product = _content_product(words, k, c)
    if all(image.keys() <= {idx} and image.get(idx, zero) == product(idx) for idx, image in words.images(gen)):
        return c, k
    return None


def _one_site(words: _Words) -> _Words | None:
    """The one-site forms of E_j, F_j, K_j and K_j^-1 on V, as tables on the
    1-tuples of a new `_Words` under the same keys, if every premise of the
    quantum suite holds on all n^r vectors (r > 1), else None: K_j and
    K_j^-1 are c_j k_j⊗...⊗k_j and c'_j k'_j⊗...⊗k'_j with c_j c'_j = 1, and
    E_j and F_j are iterated coproducts with grouplikes q^h_j and q^-h_j.
    No premise ties k_j to the grouplikes: with U1-U7 on V, each e_j and f_j
    has its one entry where the standard or the twisted vector
    representation has it, and the relations lift either way (module
    docstring)."""
    n, field = words.n, words.field
    letters = range(1, n + 1)
    local = _Words(field, n, 1)
    for j in letters:
        forms = [_tensor_power(words, (action, j)) for action in (apply_K, _apply_K_inverse)]
        if None in forms or forms[0][0] * forms[1][0] != words.one:
            return None
        for action, (_, one_site) in zip((apply_K, _apply_K_inverse), forms):
            local.tables[action, j] = {(a,): {(a,): x} for a, x in one_site.items()}
    for j in range(1, n):
        h = {a: (a == j) - (a == j + 1) for a in letters}
        for action, sign in ((apply_E, 1), (apply_F, -1)):
            form = _coproduct_form(words, (action, j))
            if form is None or form[1] != {a: field.q_power(sign * h[a]) for a in letters}:
                return None
            local.tables[action, j] = {(a,): {(b,): x for b, x in form[0][a].items()} for a in letters}
    return local


def check_hecke_relations(n: int, r: int, field: ScalarField, *,
                          words: _Words | None = None) -> list[CheckResult]:
    """Quadratic, braid, and far-commutation relations for the transposition
    generators on every index basis vector.

    The quadratic row also checks that T_i v_idx is supported on idx and its
    swap s_i idx, with a nonzero coefficient on s_i idx.  Where the T_i are
    two-site matrices, the rows are decided on V⊗V and V⊗V⊗V (module
    docstring)."""
    if words is None:
        words = _Words(field, n, r)
    T = {i: (apply_T, i) for i in range(1, r)}
    R = {i: _two_site(words, T[i]) for i in T}
    quadratic = ((f"T_{i}^2 - (q - q^-1) T_{i} - 1", _quadratic(words, T[i], i)) for i in T
                 if R[i] is None or not _locally(words, 2, {"T": R[i]}, lambda w: _quadratic(w, "T")))
    braid = ((f"T_{i} T_{i + 1} T_{i} - T_{i + 1} T_{i} T_{i + 1}",
              _equal(words, (T[i], T[i + 1], T[i]), (T[i + 1], T[i], T[i + 1]))) for i in range(1, r - 1)
             if None in (R[i], R[i + 1]) or not _locally(
                 words, 3, {"T": _on_slots(R[i], n, 3, 1), "U": _on_slots(R[i + 1], n, 3, 2)},
                 lambda w: _equal(w, "TUT", "UTU")))
    far = ((f"T_{i} T_{j} - T_{j} T_{i}", _equal(words, (T[i], T[j]), (T[j], T[i])))
           for i in T for j in range(i + 2, r) if None in (R[i], R[j])) if None in R.values() else ()
    return [
        _decide(words, "quadratic relation", quadratic),
        _decide(words, "braid relation", braid),
        _decide(words, "far commutation of transpositions", far),
    ]


def check_commuting_actions(n: int, r: int, field: ScalarField, *,
                            words: _Words | None = None) -> CheckResult:
    """Generator-by-generator commutation of the two actions on every index
    basis vector: E_j, F_j, the coroot grouplikes and K_j against every T_i.
    K_j^-1 is checked to invert K_j, so it commutes with the T_i as well; for
    tensor powers c k⊗...⊗k, by their scalars and one-site eigenvalues.
    Where the generators have their local forms, every pair is decided from
    one-site and two-site data (module docstring)."""
    if words is None:
        words = _Words(field, n, r)
    T = {i: (apply_T, i) for i in range(1, r)}
    R = {i: _two_site(words, T[i]) for i in T}
    K = {j: (apply_K, j) for j in range(1, n + 1)}
    K_inv = {j: (_apply_K_inverse, j) for j in K}
    gens = [(f"{x}_{j}", (action, j)) for x, action in (("E", apply_E), ("F", apply_F), ("K~", apply_tK))
            for j in range(1, n)] + [(f"K_{j}", K[j]) for j in K]

    def keeps(i, k):
        """Whether k⊗k commutes with R^(i): k(a)k(b) = k(c)k(d) wherever R^(i) takes ab to cd."""
        return all(k[a] * k[b] == k[c] * k[d] for (a, b), image in R[i].items() for c, d in image)

    def inverts(j):
        powers = _tensor_power(words, K[j]), _tensor_power(words, K_inv[j])
        if None in powers:
            return False
        (c, k), (c_inv, k_inv) = powers
        return c * c_inv == words.one and all(k[a] * k_inv[a] == words.one for a in k)

    def commutes(gen, i):
        if R[i] is None:
            return False
        if gen[0] not in (apply_E, apply_F):  # c k⊗...⊗k commutes with T_i when k⊗k does with R^(i)
            power = _tensor_power(words, gen)
            return power is not None and keeps(i, power[1])
        form = _coproduct_form(words, gen)
        # E's terms on slots after i+1 (F's: before i) put kappa⊗kappa on T_i's slots
        last = 1 if gen[0] is apply_F else r - 1
        return (form is not None and (i == last or keeps(i, form[1]))
                and _locally(words, 2, {"X": form[2], "T": R[i]}, lambda w: _equal(w, "XT", "TX")))

    return _decide(words, "commuting actions", itertools.chain(
        ((f"K_{j} K_{j}^-1 - 1", _equal(words, (K[j], K_inv[j]), ())) for j in K if not inverts(j)),
        ((f"[{label}, T_{i}]", _equal(words, (gen, T[i]), (T[i], gen)))
         for i in T for label, gen in gens if not commutes(gen, i))))


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
    three relation suites share one table of generator images.  A failing
    maximality, orthogonality or norm row names its first failing walk (walk
    pair, for orthogonality).  Each stage runs when the generator is resumed,
    so the gaps between yields time it."""
    records = maximal_basis(n, r, field)
    yield "build", []

    bad = next((rec.walk for rec in records if rec.vector.r and not is_maximal(rec.vector)), None)
    yield "maximality", [CheckResult("maximality", bad is None, f"{len(records)} walk vectors" + (
        "" if bad is None else f"; walk {bad} is not maximal"))]

    gram = gram_check(records)
    yield "Gram", [CheckResult("orthogonality", gram.ok, f"{len(records)}x{len(records)} Gram matrix" + (
        "; first violation at walks {} and {}".format(*gram.violations[0]) if gram.violations else ""))]

    bad = next(((rec.walk, norm, predicted) for rec, norm in zip(records, gram.diagonal)
                if (predicted := norm_predict(rec.walk, field)) != norm), None)
    yield "norms", [CheckResult("norm formula", bad is None,
                                "" if bad is None else "walk {}: Gram diagonal {}, closed form {}".format(*bad))]

    expected = sum(count_standard(lam) for lam in partitions_in(n, r))
    dim_ok = (
        len(records) == expected
        and sum(weyl_dim(lam, n) * count_standard(lam) for lam in partitions_in(n, r)) == n**r
    )
    yield "counting", [CheckResult("counting", dim_ok, f"{len(records)} = sum of tableau counts")]

    words = _Words(field, n, r)
    yield "quantum", check_quantum_relations(n, r, field, words=words)
    yield "Hecke", check_hecke_relations(n, r, field, words=words)
    yield "commuting", [check_commuting_actions(n, r, field, words=words)]


def verify_suite(n: int, r: int, field: ScalarField) -> VerifyReport:
    """The checks of every stage of ``verify_stages``, in order."""
    return VerifyReport(n=n, r=r, checks=[c for _, checks in verify_stages(n, r, field) for c in checks])
