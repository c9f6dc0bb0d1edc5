import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepoly.index_sets import MultiIndexSet, hyperbolic_cross, hyperbolic_cross_size
from sparsepoly.verification import brute_force_hyperbolic_cross


def test_d10_s10_cardinality():
    assert len(hyperbolic_cross(10, 10)) == 571


def test_counted_size_matches_the_enumeration():
    for d in range(1, 6):
        for s in range(1, 40):
            assert hyperbolic_cross_size(d, s) == len(hyperbolic_cross(d, s)), (d, s)
    assert hyperbolic_cross_size(16, 20) == 12645
    # sizes whose enumeration would not fit in memory are counted at once:
    # the axis, the degree-2 terms, and one nonzero entry per coordinate
    assert hyperbolic_cross_size(1, 10**9) == 10**9
    assert hyperbolic_cross_size(10**6, 2) == 10**6 + 1
    # numpy integers are counted like Python ints; a float is still refused
    assert hyperbolic_cross_size(np.int32(4), np.int64(6)) == len(hyperbolic_cross(4, 6))
    with pytest.raises(TypeError):
        hyperbolic_cross_size(4, 6.0)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        hyperbolic_cross_size(0, 5)
    with pytest.raises(ValueError, match="cross order must be >= 1"):
        hyperbolic_cross_size(5, 0)


def test_trivial_order_one():
    ms = hyperbolic_cross(3, 1)
    assert ms.as_tuples() == [(0, 0, 0)]


def test_d2_s3_enumeration():
    ms = hyperbolic_cross(2, 3)
    assert set(ms.as_tuples()) == {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)}
    assert set(ms.as_tuples()) == brute_force_hyperbolic_cross(2, 3)
    assert len(ms) == 5


def test_one_dimensional_count():
    assert len(hyperbolic_cross(1, 7)) == 7


def test_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        hyperbolic_cross(0, 5)
    with pytest.raises(ValueError):
        hyperbolic_cross(5, 0)


@pytest.mark.parametrize("d, s", [(4, 6.0), (4.0, 6)])
def test_builder_and_counter_refuse_the_same_non_integers(d, s):
    for build in (hyperbolic_cross, hyperbolic_cross_size):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build(d, s)


def test_builder_takes_numpy_integers():
    ms = hyperbolic_cross(np.int32(4), np.int64(6))
    assert type(ms.dimension) is int
    assert np.array_equal(ms.indices, hyperbolic_cross(4, 6).indices)


def test_graded_lexicographic_ordering():
    ms = hyperbolic_cross(2, 3)
    assert ms.as_tuples() == [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0)]
    degrees = ms.indices.sum(axis=1)
    assert np.all(np.diff(degrees) >= 0)


def test_graded_order_matches_the_box_scan():
    for d in range(1, 6):
        for s in range(1, 13):
            expected = sorted(brute_force_hyperbolic_cross(d, s), key=lambda j: (sum(j), j))
            assert hyperbolic_cross(d, s).as_tuples() == expected, (d, s)


def test_large_cross_is_distinct_bounded_complete_and_graded():
    # (16, 20) is far beyond the box scan (20^16 points), so check its defining
    # properties one by one
    ms = hyperbolic_cross(16, 20)
    idx, rows = ms.indices, ms.as_tuples()
    assert len(set(rows)) == len(rows)
    assert np.all(np.prod(idx + 1, axis=1) <= 20)
    assert len(rows) == hyperbolic_cross_size(16, 20)
    assert rows == sorted(rows, key=lambda j: (sum(j), j))


def test_order_determinism():
    a = hyperbolic_cross(4, 6)
    b = hyperbolic_cross(4, 6)
    assert np.array_equal(a.indices, b.indices)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), s=st.integers(1, 8))
def test_membership_soundness(d, s):
    ms = hyperbolic_cross(d, s)
    assert set(ms.as_tuples()) == brute_force_hyperbolic_cross(d, s)
    assert np.all(ms.indices <= s - 1)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 4), s=st.integers(1, 7))
def test_monotone_in_order(d, s):
    small = set(hyperbolic_cross(d, s).as_tuples())
    large = set(hyperbolic_cross(d, s + 1).as_tuples())
    assert small <= large


def test_validation_rejects_bad_index_arrays():
    with pytest.raises(ValueError):
        MultiIndexSet(dimension=2, indices=np.array([[0, 0], [0, 0]]))
    with pytest.raises(ValueError):
        MultiIndexSet(dimension=2, indices=np.array([[0, -1]]))
    with pytest.raises(ValueError):
        MultiIndexSet(dimension=3, indices=np.array([[0, 0]]))
    with pytest.raises(ValueError):
        MultiIndexSet(dimension=0, indices=np.zeros((2, 0)))


def test_validation_rejects_non_adjacent_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        MultiIndexSet(dimension=2, indices=np.array([[0, 0], [1, 0], [0, 0]]))
    with pytest.raises(ValueError, match="duplicate"):
        MultiIndexSet(dimension=3, indices=np.array([[2, 0, 1], [0, 1, 0], [1, 1, 1], [0, 1, 0]]))
    assert len(MultiIndexSet(dimension=2, indices=np.array([[1, 0], [0, 1], [0, 0]]))) == 3


def test_rows_that_differ_only_in_high_bytes_are_distinct():
    rows = [(0, 1), (1 << 8, 1), (1 << 16, 1), (1 << 32, 1), (1 << 40, 1)]
    assert MultiIndexSet(2, rows).as_tuples() == rows
    # the check reads rows, whatever the memory layout
    assert MultiIndexSet(2, np.asfortranarray(rows)).as_tuples() == rows
    with pytest.raises(ValueError, match="duplicate"):
        MultiIndexSet(2, np.asfortranarray([[3, 1], [1, 3], [3, 1]]))


def test_validation_accepts_an_empty_set():
    assert MultiIndexSet(2, np.zeros((0, 2))).indices.shape == (0, 2)


def test_validation_rejects_fractional_entries():
    with pytest.raises(ValueError, match="must be integers"):
        MultiIndexSet(2, [[0.5, 1], [2.7, 0]])
    with pytest.raises(ValueError, match="must be integers"):
        MultiIndexSet(2, [[np.nan, 1]])
    # integral floats are integers
    assert MultiIndexSet(2, [[2.0, 0.0]]).as_tuples() == [(2, 0)]


def test_validation_rejects_a_float_dimension():
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        MultiIndexSet(2.0, [[0, 1], [2, 0]])


# small entries make repeated rows likely; shifted ones differ from them only
# in high bytes, and those past 2**32 take the widest type in the check
ENTRY = st.one_of(
    st.integers(0, 2),
    st.builds(lambda low, shift: low << shift, st.integers(0, 2), st.sampled_from([8, 16, 32, 39])),
    st.integers(0, 2**40),
)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 6), data=st.data())
def test_duplicate_check_matches_a_set_of_tuples(d, data):
    # distinct rows, then none, one or two of them again, in any order
    rows = data.draw(st.lists(st.tuples(*[ENTRY] * d), max_size=38, unique=True))
    repeats = data.draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []
    rows = data.draw(st.permutations(rows + repeats))
    indices = np.array(rows, dtype=np.int64).reshape(len(rows), d)
    if len(set(rows)) < len(rows):
        with pytest.raises(ValueError, match="duplicate"):
            MultiIndexSet(d, indices)
    else:
        assert np.array_equal(MultiIndexSet(d, indices).indices, indices)


def test_index_sets_are_equal_only_to_themselves():
    a, b = hyperbolic_cross(2, 3), hyperbolic_cross(2, 3)
    assert a == a
    assert a != b


def test_index_sets_hash_by_identity():
    a = hyperbolic_cross(2, 3)
    assert hash(a) == object.__hash__(a)


def test_two_index_sets_fit_in_a_set():
    a, b = hyperbolic_cross(2, 3), hyperbolic_cross(2, 3)
    assert len({a, b, a}) == 2
    assert a in {a} and b not in {a}
