import numpy as np
import pytest

from sparsepoly import basis
from sparsepoly.assembly import (
    LinearSystem,
    TargetFunction,
    build_system,
    denormalize_solution,
    normalize_columns,
)
from sparsepoly.experiments import target_log_sum
from sparsepoly.index_sets import MultiIndexSet, hyperbolic_cross
from sparsepoly.verification import expansion_target

from test_basis import eval_tensor


def random_system(m, n, seed):
    rng = np.random.default_rng(seed)
    return LinearSystem(matrix=rng.standard_normal((m, n)), rhs=rng.standard_normal(m))


def test_constant_column_has_unit_norm():
    ms = MultiIndexSet(dimension=3, indices=np.zeros((1, 3), dtype=int))
    pts = basis.sample_measure("legendre", 3, 7, 0)
    system = build_system(pts, target_log_sum(3), "legendre", ms)
    assert system.matrix.shape == (7, 1)
    np.testing.assert_allclose(system.matrix[:, 0], 1 / np.sqrt(7), atol=1e-15)
    assert np.linalg.norm(system.matrix[:, 0]) == pytest.approx(1.0, abs=1e-14)
    assert system.column_norms is None


def test_basis_element_target_gives_unit_vector_system():
    ms = hyperbolic_cross(3, 4)
    j_star = 5
    coeffs = np.zeros(len(ms))
    coeffs[j_star] = 1.0
    target = expansion_target("legendre", ms, coeffs)
    pts = basis.sample_measure("legendre", 3, 20, 4)
    system = build_system(pts, target, "legendre", ms)
    residual = system.rhs - system.matrix @ coeffs
    assert np.linalg.norm(residual) <= 1e-12


def test_full_scale_shape():
    ms = hyperbolic_cross(10, 10)
    pts = basis.sample_measure("legendre", 10, 80, 1)
    system = build_system(pts, target_log_sum(10), "legendre", ms)
    assert system.matrix.shape == (80, 571)
    assert system.rhs.shape == (80,)


def test_build_rejects_non_finite_target():
    ms = hyperbolic_cross(2, 2)
    bad = TargetFunction(lambda pts: np.full(pts.shape[0], np.inf), "blows up")
    pts = basis.sample_measure("legendre", 2, 5, 2)
    with pytest.raises(ValueError):
        build_system(pts, bad, "legendre", ms)


def test_build_rejects_dimension_mismatch():
    ms = hyperbolic_cross(3, 2)
    pts = basis.sample_measure("legendre", 2, 5, 2)
    with pytest.raises(ValueError):
        build_system(pts, target_log_sum(3), "legendre", ms)


def test_normalize_unit_columns_unchanged():
    system = LinearSystem(matrix=np.eye(4)[:, :2], rhs=np.ones(4))
    normalized = normalize_columns(system)
    np.testing.assert_array_equal(normalized.matrix, system.matrix)
    np.testing.assert_array_equal(normalized.column_norms, np.ones(2))


def test_normalize_single_column():
    c = 3.7
    system = LinearSystem(matrix=np.array([[c], [0.0], [0.0]]), rhs=np.zeros(3))
    normalized = normalize_columns(system)
    np.testing.assert_allclose(normalized.matrix[:, 0], [1.0, 0.0, 0.0], atol=0)
    assert normalized.column_norms[0] == pytest.approx(c, abs=0)


def test_normalize_random_system_columns():
    system = normalize_columns(random_system(20, 40, 3))
    norms = np.linalg.norm(system.matrix, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_normalize_rejects_zero_column():
    for bad_value in (0.0, np.nan):
        system = random_system(6, 3, 1)
        system.matrix[:, 1] = bad_value
        with pytest.raises(ValueError):
            normalize_columns(system)


def test_denormalize_identity_when_norms_one():
    system = LinearSystem(matrix=np.eye(3), rhs=np.zeros(3), column_norms=np.ones(3))
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(denormalize_solution(system, x), x)


def test_denormalize_zero_is_zero():
    system = normalize_columns(random_system(8, 5, 7))
    np.testing.assert_array_equal(denormalize_solution(system, np.zeros(5)), np.zeros(5))


def test_denormalize_requires_normalized_system():
    system = random_system(8, 5, 7)
    with pytest.raises(ValueError, match="^system is not normalized; nothing to denormalize$"):
        denormalize_solution(system, np.zeros(5))


def test_denormalization_algebraic_identity():
    rng = np.random.default_rng(11)
    for seed in range(5):
        raw = random_system(15, 30, seed)
        normalized = normalize_columns(raw)
        x_hat = rng.standard_normal(30)
        lhs = raw.matrix @ denormalize_solution(normalized, x_hat)
        rhs = normalized.matrix @ x_hat
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_round_trip_scaling():
    rng = np.random.default_rng(17)
    raw = random_system(12, 25, 5)
    normalized = normalize_columns(raw)
    for _ in range(5):
        x = rng.standard_normal(25)
        lhs = normalized.matrix @ (normalized.column_norms * x)
        rhs = raw.matrix @ x
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_expected_squared_column_norms():
    # orthonormality of the basis under its sampling measure makes the
    # pre-normalization squared column norms average to 1
    ms = hyperbolic_cross(2, 3)
    target = target_log_sum(2)
    for kind in basis.BASIS_KINDS:
        totals = np.zeros(len(ms))
        n_draws = 500
        for draw in range(n_draws):
            pts = basis.sample_measure(kind, 2, 20, 1000 + draw)
            system = build_system(pts, target, kind, ms)
            totals += np.sum(system.matrix**2, axis=0)
        np.testing.assert_allclose(totals / n_draws, 1.0, atol=0.05)


def test_column_ordering_matches_index_set():
    ms = hyperbolic_cross(2, 4)
    pts = basis.sample_measure("legendre", 2, 9, 21)
    system = build_system(pts, target_log_sum(2), "legendre", ms)
    for col, index in [(1, ms.indices[1]), (4, ms.indices[4])]:
        expected = [eval_tensor("legendre", index, p) / np.sqrt(9) for p in pts]
        np.testing.assert_allclose(system.matrix[:, col], expected, atol=1e-13)
