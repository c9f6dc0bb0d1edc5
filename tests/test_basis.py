import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepoly import basis
from sparsepoly.index_sets import MultiIndexSet, hyperbolic_cross
from sparsepoly.verification import expansion_target, grid_sup_norm, quadrature_gram


def eval_tensor(kind: str, index, point) -> float:
    """Tensor-product polynomial phi_j(t) = prod_k phi_{j_k}(t_k) at one
    point: the direct form that the batched evaluations are compared with."""
    index = np.asarray(index, dtype=np.int64)
    point = np.asarray(point, dtype=np.float64)
    if index.shape != point.shape:
        raise ValueError(f"index/point dimension mismatch: {index.shape} vs {point.shape}")
    value = 1.0
    for jk, tk in zip(index, point):
        value *= float(basis.eval_1d_table(kind, int(jk), tk)[jk])
    return value


def test_constant_polynomial_is_one():
    for kind in basis.BASIS_KINDS:
        for t in (-1.0, -0.3, 0.0, 0.99, 1.0):
            assert basis.eval_1d_table(kind, 0, t)[0] == 1.0


def test_legendre_degree_one():
    # orthonormalized P_1(t) = t against the uniform probability measure
    assert basis.eval_1d_table("legendre", 1, 0.5)[1] == pytest.approx(np.sqrt(3) * 0.5, abs=1e-14)


def test_chebyshev_closed_form():
    # phi_k(t) = sqrt(2) cos(k arccos t) for k >= 1
    t = np.cos(np.pi / 7)
    expected = np.sqrt(2) * np.cos(3 * np.pi / 7)
    assert basis.eval_1d_table("chebyshev", 3, t)[3] == pytest.approx(expected, abs=1e-14)
    ts = np.linspace(-1, 1, 101)
    for k in (1, 2, 5, 9):
        np.testing.assert_allclose(
            basis.eval_1d_table("chebyshev", k, ts)[:, k],
            np.sqrt(2) * np.cos(k * np.arccos(ts)),
            atol=1e-12,
        )


def test_orthonormality_by_quadrature():
    # every univariate degree <= 12 and their products, through evaluate_design
    index_set = hyperbolic_cross(2, 13)
    for kind in basis.BASIS_KINDS:
        gram = quadrature_gram(kind, index_set)
        np.testing.assert_allclose(gram, np.eye(37), atol=1e-10)


def test_rejects_out_of_domain_points():
    with pytest.raises(ValueError):
        basis.eval_1d_table("legendre", 2, 1.0 + 1e-9)
    with pytest.raises(ValueError):
        basis.eval_1d_table("chebyshev", 2, np.array([0.0, -1.1]))
    with pytest.raises(ValueError):
        basis.eval_1d_table("legendre", 2, np.array([0.0, np.nan]))
    with pytest.raises(ValueError, match="max_degree must be >= 0"):
        basis.eval_1d_table("legendre", -1, 0.5)


def test_rejects_unknown_kind():
    with pytest.raises(ValueError):
        basis.eval_1d_table("hermite", 1, 0.0)


def test_tensor_zero_index_is_one():
    for kind in basis.BASIS_KINDS:
        assert eval_tensor(kind, [0, 0, 0], [0.2, -0.7, 0.5]) == 1.0


def test_tensor_reduces_to_univariate_factor():
    j = [1, 0, 0, 0]
    t = [0.5, 0.1, -0.2, 0.9]
    assert eval_tensor("legendre", j, t) == pytest.approx(np.sqrt(3) * 0.5, abs=1e-14)


def test_tensor_chebyshev_degree_one_pair():
    # sqrt(2) T_1(x) * sqrt(2) T_1(y) = 2 x y
    for x, y in [(0.3, -0.8), (0.99, 0.2)]:
        assert eval_tensor("chebyshev", [1, 1], [x, y]) == pytest.approx(
            2 * x * y, abs=1e-14
        )


def test_tensor_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_tensor("legendre", [1, 2], [0.5])


def test_weight_zero_index():
    for kind in basis.BASIS_KINDS:
        assert basis.weights(kind, MultiIndexSet(4, [[0, 0, 0, 0]]))[0] == 1.0


def test_weight_closed_forms():
    legendre = basis.weights("legendre", MultiIndexSet(2, [[2, 1]]))[0]
    assert legendre == pytest.approx(np.sqrt(5) * np.sqrt(3), abs=1e-14)
    chebyshev = basis.weights("chebyshev", MultiIndexSet(3, [[4, 0, 7]]))[0]
    assert chebyshev == pytest.approx(2.0, abs=1e-14)


def test_weight_matches_grid_maximization():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        index = rng.integers(0, 7, size=d)
        for kind in basis.BASIS_KINDS:
            closed = basis.weights(kind, MultiIndexSet(d, [index]))[0]
            assert grid_sup_norm(kind, index) == pytest.approx(closed, rel=1e-6)


def test_legendre_sup_attained_at_corner():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        index = rng.integers(0, 8, size=d)
        value = abs(eval_tensor("legendre", index, np.ones(d)))
        assert value == basis.weights("legendre", MultiIndexSet(d, [index]))[0]


def test_weights_vector_alignment():
    ms = hyperbolic_cross(3, 4)
    w = basis.weights("legendre", ms)
    assert w.shape == (len(ms),)
    assert w[0] == 1.0
    assert np.all(w >= 1.0)
    for i, j in enumerate(ms.indices):
        assert w[i] == basis.weights("legendre", MultiIndexSet(3, [j]))[0]


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(st.integers(0, 6), min_size=1, max_size=4),
    kind=st.sampled_from(basis.BASIS_KINDS),
)
def test_weight_at_least_one(entries, kind):
    assert basis.weights(kind, MultiIndexSet(len(entries), [entries]))[0] >= 1.0


def test_sampling_is_reproducible():
    a = basis.sample_measure("legendre", 2, 3, 99)
    b = basis.sample_measure("legendre", 2, 3, 99)
    assert np.array_equal(a, b)
    c = basis.sample_measure("chebyshev", 2, 3, 99)
    assert not np.array_equal(a, c)


def test_samples_strictly_interior():
    for kind in basis.BASIS_KINDS:
        pts = basis.sample_measure(kind, 3, 2000, 7)
        assert pts.shape == (2000, 3)
        assert np.all(np.abs(pts) < 1.0)


def test_legendre_empirical_mean():
    pts = basis.sample_measure("legendre", 2, 100_000, 11)
    assert np.all(np.abs(pts.mean(axis=0)) < 0.01)


def test_chebyshev_arcsine_tail():
    pts = basis.sample_measure("chebyshev", 2, 100_000, 13)
    expected = 1.0 - (2.0 / np.pi) * np.arcsin(0.9)
    fractions = (np.abs(pts) > 0.9).mean(axis=0)
    assert np.all(np.abs(fractions - expected) < 0.01)


def test_expansion_evaluation_matches_tensor():
    ms = hyperbolic_cross(2, 4)
    coeffs = np.zeros(len(ms))
    coeffs[3] = 2.0
    coeffs[5] = -1.0
    pts = basis.sample_measure("legendre", 2, 10, 1)
    values = expansion_target("legendre", ms, coeffs)(pts)
    expected = [
        2.0 * eval_tensor("legendre", ms.indices[3], p)
        - eval_tensor("legendre", ms.indices[5], p)
        for p in pts
    ]
    np.testing.assert_allclose(values, expected, atol=1e-12)
    # the length is checked when the target is built, not when it is evaluated
    with pytest.raises(ValueError, match="coefficient length"):
        expansion_target("legendre", ms, coeffs[:-1])


def plain_design(kind, index_set, points):
    """[phi_j(t_i)] as the product of all d factors, in coordinate order."""
    design = np.ones((points.shape[0], len(index_set)))
    for k in range(index_set.dimension):
        column = index_set.indices[:, k]
        design *= basis.eval_1d_table(kind, int(column.max()), points[:, k])[:, column]
    return design


@pytest.mark.parametrize(
    "d, s, m, block_elements",
    [(16, 20, 40, None), (3, 6, 50, 7), (2, 9, 300, 64)],
)
def test_design_is_byte_equal_to_plain_product(monkeypatch, d, s, m, block_elements):
    if block_elements is not None:  # many small blocks of points and columns
        monkeypatch.setattr(basis, "_BLOCK_ELEMENTS", block_elements)
    ms = hyperbolic_cross(d, s)
    for kind in basis.BASIS_KINDS:
        pts = basis.sample_measure(kind, d, m, 17)
        design = basis.evaluate_design(kind, ms, pts)
        assert design.flags.c_contiguous
        assert design.shape == (m, len(ms))
        assert design.tobytes() == plain_design(kind, ms, pts).tobytes()
