import itertools
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qtensor.combinatorics import (
    Partition,
    StandardTableau,
    Walk,
    a_const,
    c_const,
    count_standard,
    coxeter_elements,
    d_const,
    enumerate_walks,
    partitions_in,
    tableau_to_walk,
    walk_to_tableau,
    weyl_dim,
)
from qtensor.coeff import ScalarField
from qtensor.dualcheck import norm_predict
from qtensor.psiphi import build_c_pi, canonical_word
from qtensor.tensorspace import bilinear


@st.composite
def partitions(draw, max_part=7, max_rows=5):
    parts = draw(st.lists(st.integers(min_value=0, max_value=max_part), max_size=max_rows))
    return Partition(tuple(sorted(parts, reverse=True)))


def test_partition_normalization():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition().parts == ()
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def _record():
    return build_c_pi(Walk((1, 2)), ScalarField.at("3/2"), 2)


# name -> (factory, fields in declaration order or None to read them off the
# value, expected repr with "{}" standing for the vector's repr)
VALUE_TYPES = {
    "Partition": (lambda: Partition((2, 1, 0)), {"parts": (2, 1)}, "Partition(parts=(2, 1))"),
    "Walk": (lambda: Walk((1, 2)), {"rows": (1, 2)}, "Walk(rows=(1, 2))"),
    "StandardTableau": (lambda: StandardTableau(((1, 2), (3,))), {"rows": ((1, 2), (3,))},
                        "StandardTableau(rows=((1, 2), (3,)))"),
    "ScalarField": (lambda: ScalarField.at("3/2"), {"q0": Fraction(3, 2)}, "ScalarField(q0=Fraction(3, 2))"),
    "ScalarField-generic": (ScalarField.generic, {"q0": None}, "ScalarField(q0=None)"),
    "MaximalVectorRecord": (_record, None, "MaximalVectorRecord(walk=Walk(rows=(1, 2)), vector={}, "
                                           "weight=Partition(parts=(1, 1)))"),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_type_semantics(name):
    make, fields, text = VALUE_TYPES[name]
    value = make()
    if fields is None:
        fields = {"walk": value.walk, "vector": value.vector, "weight": value.weight}
        text = text.format(repr(value.vector))
    assert value == make() and not value != make()
    values = tuple(fields.values())
    assert value != values and value != SimpleNamespace(**fields)
    assert {field: getattr(value, field) for field in fields} == fields
    assert hash(value) == hash(make()) == hash(values)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert repr(value) == text


def test_addable_rows_examples():
    assert Partition((2, 1)).addable_rows(3) == [1, 2, 3]
    assert Partition((2, 2)).addable_rows(3) == [1, 3]
    assert Partition((1, 1, 1)).addable_rows(3) == [1]


def test_a_huge_row_bound_reads_only_the_rows_up_to_the_first_empty_one():
    # no row below the first empty one is addable, so n = 10**12 costs what n = 5 does
    assert Partition((2, 1)).addable_rows(10**12) == [1, 2, 3]
    assert enumerate_walks(10**12, 5) == enumerate_walks(5, 5)


def test_pairing_constants_examples():
    def constants(w, j):
        return a_const(w, j), c_const(w, j), d_const(w, j)

    assert constants(Partition((2, 1, 0)), 1) == (1, 0, 1)
    assert constants(Partition((2, 1, 0)), 2) == (1, 2, 3)
    assert constants(Partition((3, 3, 0)), 1) == (0, 0, 0)


@given(lam=partitions())
@settings(max_examples=100, deadline=None)
def test_constant_identities(lam):
    a1 = a_const(lam, 1)
    for j in range(1, 6):
        assert d_const(lam, j) == c_const(lam, j) + a1
        if j >= 2:
            assert c_const(lam, j) == d_const(lam, j - 1, shift=1) + 1


@given(lam=partitions(), j=st.integers(min_value=1, max_value=4), k=st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None)
def test_shifted_constants_from_defining_sums(lam, j, k):
    # shifting replaces each row index i by i + k in the coroot sums
    pad = list(lam.parts) + [0] * 12
    assert d_const(lam, j, k) == sum(pad[i - 1] - pad[i] for i in range(1 + k, j + k + 1)) + j - 1
    if j >= 2:
        assert c_const(lam, j, k) == sum(pad[i - 1] - pad[i] for i in range(2 + k, j + k + 1)) + j - 1


def test_enumerate_walks_examples():
    assert len(enumerate_walks(3, 3)) == 4
    assert len(enumerate_walks(2, 2)) == 2
    walks = enumerate_walks(2, 4)
    assert len(walks) == 6
    by_shape = Counter(w.terminal().parts for w in walks)
    assert by_shape == {(4,): 1, (3, 1): 3, (2, 2): 2}


def test_enumerate_walks_ordering_and_filter():
    walks = enumerate_walks(3, 3)
    assert [w.rows for w in walks] == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 3)]
    only = enumerate_walks(3, 3, Partition((2, 1)))
    assert [w.rows for w in only] == [(1, 1, 2), (1, 2, 1)]
    # non-matching targets give empty lists, not errors
    assert enumerate_walks(2, 3, Partition((1, 1, 1))) == []
    assert enumerate_walks(2, 3, Partition((2, 2))) == []


def test_walk_validation():
    with pytest.raises(ValueError):
        Walk((2,))  # first box must go in row 1
    with pytest.raises(ValueError):
        Walk((1, 3))


def test_walk_shapes_are_read_not_replayed(monkeypatch):
    walk = Walk((1, 2, 1))
    assert walk.shapes == (Partition(), Partition((1,)), Partition((1, 1)), Partition((2, 1)))
    with pytest.raises(AttributeError):
        walk.shapes = ()
    # once the walk exists, its terminal shape, its vector and its norm
    # formula read the shapes it holds
    monkeypatch.setattr(Partition, "add_box", None)
    field = ScalarField.generic()
    record = build_c_pi(walk, field, 3)
    assert walk.terminal() == record.weight == Partition((2, 1))
    assert norm_predict(walk, field) == bilinear(record.vector, record.vector)


def test_enumerated_walks_keep_the_shapes_of_their_prefixes(monkeypatch):
    # one add_box per distinct nonempty prefix, and walks that share a
    # prefix share its partitions; the shapes are those a replay gives
    calls, real = [], Partition.add_box
    monkeypatch.setattr(Partition, "add_box", lambda lam, j: calls.append(j) or real(lam, j))
    walks = enumerate_walks(3, 5)
    monkeypatch.setattr(Partition, "add_box", real)
    assert len(calls) == len({w.rows[:k] for w in walks for k in range(1, 6)})
    for v, w in itertools.combinations(walks, 2):
        shared = next(k for k in range(6) if v.rows[k] != w.rows[k])
        assert all(v.shapes[k] is w.shapes[k] for k in range(shared + 1))
    assert [w.shapes for w in walks] == [Walk(w.rows).shapes for w in walks]


def test_walk_tableau_examples():
    t = walk_to_tableau(Walk((1, 2)))
    assert t.rows == ((1,), (2,))
    t = walk_to_tableau(Walk((1, 1, 2)))
    assert t.rows == ((1, 2), (3,))


def test_walk_tableau_round_trip():
    for w in enumerate_walks(3, 3):
        assert tableau_to_walk(walk_to_tableau(w)) == w
    for n, r in [(2, 5), (4, 4)]:
        for w in enumerate_walks(n, r):
            t = walk_to_tableau(w)
            assert t.shape == w.terminal()
            assert tableau_to_walk(t) == w


def test_tableau_rejects_non_standard():
    with pytest.raises(ValueError):
        StandardTableau(((2, 1),))  # row not increasing
    with pytest.raises(ValueError):
        StandardTableau(((1, 4), (2, 3)))  # second column not increasing
    with pytest.raises(ValueError):
        StandardTableau(((3,), (1,), (2,)))  # column not increasing
    with pytest.raises(ValueError):
        StandardTableau(((1, 1), (2,)))  # labels not 1..r


def test_count_standard_examples():
    assert count_standard(Partition((2, 1))) == 2
    assert count_standard(Partition((1, 1, 1))) == 1
    assert count_standard(Partition((2, 2))) == 2
    assert count_standard(Partition()) == 1
    assert count_standard(Partition((5, 4, 1))) == 288


def _brute_standard_count(lam: Partition) -> int:
    """Oracle: count standard fillings by brute force over label placements."""
    cells = [(i, j) for i, p in enumerate(lam.parts) for j in range(p)]
    count = 0
    for perm in itertools.permutations(range(1, len(cells) + 1)):
        grid = dict(zip(cells, perm))
        ok = all(
            (i == 0 or grid[(i - 1, j)] < grid[(i, j)])
            and (j == 0 or grid[(i, j - 1)] < grid[(i, j)])
            for (i, j) in cells
        )
        count += ok
    return count


def test_count_standard_against_brute_force():
    for parts in [(3,), (2, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2)]:
        lam = Partition(parts)
        assert count_standard(lam) == _brute_standard_count(lam)


def test_walk_count_equals_tableau_count():
    for n in range(1, 5):
        for r in range(0, 7):
            for lam in partitions_in(n, r):
                assert len(enumerate_walks(n, r, lam)) == count_standard(lam)


def _brute_semistandard_count(lam: Partition, n: int) -> int:
    """Oracle: count weakly-row / strictly-column increasing fillings by 1..n."""
    cells = [(i, j) for i, p in enumerate(lam.parts) for j in range(p)]
    count = 0
    for values in itertools.product(range(1, n + 1), repeat=len(cells)):
        grid = dict(zip(cells, values))
        ok = all(
            (j == 0 or grid[(i, j - 1)] <= grid[(i, j)])
            and (i == 0 or grid[(i - 1, j)] < grid[(i, j)])
            for (i, j) in cells
        )
        count += ok
    return count


def test_weyl_dim_examples():
    assert weyl_dim(Partition((1,)), 3) == 3
    assert weyl_dim(Partition((1, 1, 1)), 3) == 1
    assert weyl_dim(Partition((2, 1)), 3) == 8
    assert weyl_dim(Partition((3,)), 3) == 10


def test_weyl_dim_against_semistandard_enumeration():
    for parts, n in [((2, 1), 3), ((2, 2), 2), ((3,), 2), ((1, 1), 3), ((2, 1), 2), ((2, 2), 3)]:
        lam = Partition(parts)
        assert weyl_dim(lam, n) == _brute_semistandard_count(lam, n)


def _pair_product_dim(lam, n):
    num = den = 1
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            num *= lam.row(i) - lam.row(j) + j - i
            den *= j - i
    return num // den


def test_weyl_dim_against_the_pair_product():
    for n in range(1, 9):
        for r in range(0, 7):
            for lam in partitions_in(n, r):
                assert weyl_dim(lam, n) == _pair_product_dim(lam, n), (lam, n)


def test_weyl_dim_at_huge_n():
    # the symmetric square of an n-dimensional space: C(n + 1, 2)
    n = 10**12
    assert weyl_dim(Partition((2,)), n) == (n + 1) * n // 2


def test_bimodule_dimension_identity():
    for n in range(1, 5):
        for r in range(0, 7):
            total = sum(weyl_dim(lam, n) * count_standard(lam) for lam in partitions_in(n, r))
            assert total == n**r


def test_coxeter_elements_small():
    assert coxeter_elements(2) == [(1,)]
    assert coxeter_elements(3) == [(1, 2), (2, 1)]
    four = coxeter_elements(4)
    assert len(four) == 4
    assert all(sorted(w) == [1, 2, 3] for w in four)


def test_coxeter_elements_count_and_reps():
    for n in range(2, 8):
        words = coxeter_elements(n)
        assert len(words) == 2 ** (n - 2)
        for w in words:
            assert sorted(w) == list(range(1, n))
            assert w[0] == 1 or w[-1] == 1


def test_coxeter_elements_match_listed_eight():
    listed = {(1, 2, 3, 4), (2, 3, 4, 1), (1, 3, 4, 2), (3, 4, 2, 1),
              (1, 2, 4, 3), (2, 4, 3, 1), (1, 4, 3, 2), (4, 3, 2, 1)}
    assert set(coxeter_elements(5)) == listed


def test_coxeter_elements_pairwise_inequivalent():
    for n in range(2, 7):
        canon = {canonical_word(w) for w in coxeter_elements(n)}
        assert len(canon) == 2 ** (n - 2)


def test_partitions_in_order():
    assert [p.parts for p in partitions_in(3, 4)] == [(4,), (3, 1), (2, 2), (2, 1, 1)]
    assert [p.parts for p in partitions_in(2, 4)] == [(4,), (3, 1), (2, 2)]
    assert partitions_in(3, 0) == (Partition(),)
