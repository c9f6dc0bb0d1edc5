import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepoly.index_sets import MultiIndexSet, hyperbolic_cross, hyperbolic_cross_size


def box_scan_cross(d, s):
    """Independent enumeration over the full degree box."""
    out = set()
    for j in itertools.product(range(s), repeat=d):
        prod = 1
        for jk in j:
            prod *= jk + 1
        if prod <= s:
            out.add(j)
    return out


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
    assert set(ms.as_tuples()) == box_scan_cross(2, 3)
    assert len(ms) == 5


def test_one_dimensional_count():
    assert len(hyperbolic_cross(1, 7)) == 7


def test_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        hyperbolic_cross(0, 5)
    with pytest.raises(ValueError):
        hyperbolic_cross(5, 0)


def test_graded_lexicographic_ordering():
    ms = hyperbolic_cross(2, 3)
    assert ms.as_tuples() == [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0)]
    degrees = ms.indices.sum(axis=1)
    assert np.all(np.diff(degrees) >= 0)


def test_order_determinism():
    a = hyperbolic_cross(4, 6)
    b = hyperbolic_cross(4, 6)
    assert np.array_equal(a.indices, b.indices)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), s=st.integers(1, 8))
def test_membership_soundness(d, s):
    ms = hyperbolic_cross(d, s)
    assert set(ms.as_tuples()) == box_scan_cross(d, s)
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
