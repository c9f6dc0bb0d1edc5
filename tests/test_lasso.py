import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepoly import basis
from sparsepoly.assembly import LinearSystem, build_system, normalize_columns
from sparsepoly.experiments import DEFAULT_SEED, ExperimentConfig, target_log_sum
from sparsepoly.index_sets import hyperbolic_cross
from sparsepoly.lasso import (
    default_alpha_grid,
    lasso_objective,
    lasso_path,
    weighted_l1_norm,
)
from sparsepoly.verification import LASSO_KKT_TOLERANCE, lasso_kkt_residual


def make_system(m, n, seed, noise=0.05):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((m, n))
    x0 = np.zeros(n)
    support = rng.choice(n, size=max(2, n // 6), replace=False)
    x0[support] = rng.uniform(1.0, 2.0, support.size) * rng.choice([-1, 1], support.size)
    y = matrix @ x0 + noise * rng.standard_normal(m)
    return normalize_columns(LinearSystem(matrix, y, np.ones(n), False))


def solve_one(system, w, alpha, max_iterations=2000):
    """`lasso_path` at a single alpha."""
    return lasso_path(system, w, [alpha], max_iterations)[0]


def soft_threshold(v, threshold):
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


def reference_ista(system, alpha, n_iterations=30_000, w=None):
    """Plain proximal gradient (unit weights by default), written from the definition."""
    matrix, y = system.matrix, system.rhs
    w = np.ones(matrix.shape[1]) if w is None else w
    step = 1.0 / (2.0 * np.linalg.norm(matrix, 2) ** 2)
    z = np.zeros(matrix.shape[1])
    for _ in range(n_iterations):
        gradient = 2.0 * matrix.T @ (matrix @ z - y)
        z = soft_threshold(z - step * gradient, step * alpha * w)
    return z


# --- weighted l1 norm -------------------------------------------------------


def test_weighted_l1_zero():
    assert weighted_l1_norm(np.zeros(4), np.ones(4)) == 0.0


def test_weighted_l1_unit_weights_is_l1():
    z = np.array([1.5, -2.0, 0.0, 3.0])
    assert weighted_l1_norm(z, np.ones(4)) == pytest.approx(6.5, abs=1e-14)


def test_weighted_l1_direct_evaluation():
    z = np.array([1.0, -2.0])
    w = np.array([np.sqrt(3.0), 1.0])
    assert weighted_l1_norm(z, w) == pytest.approx(np.sqrt(3.0) + 2.0, abs=1e-14)


# --- solver -----------------------------------------------------------------


def test_config_validation():
    system = make_system(10, 20, 0)
    with pytest.raises(ValueError):
        solve_one(system, np.ones(20), 0.0)
    with pytest.raises(ValueError):
        solve_one(system, np.ones(20), 1.0, max_iterations=0)
    with pytest.raises(ValueError):
        lasso_path(system, np.ones(20), [1.0, -1.0], max_iterations=10)
    with pytest.raises(ValueError):
        lasso_path(system, np.ones(20), [], max_iterations=10)
    # the weights are checked as womp_solve checks them
    for bad_shape in (np.ones(19), np.ones((20, 1))):
        with pytest.raises(ValueError, match=r"weights must have shape \(20,\)"):
            solve_one(system, bad_shape, 1.0)
    for bad_value in (0.0, -1.0):
        w = np.ones(20)
        w[3] = bad_value
        with pytest.raises(ValueError, match="weights must be strictly positive"):
            solve_one(system, w, 1.0)


def test_requires_normalized_system():
    rng = np.random.default_rng(0)
    system = LinearSystem(
        rng.standard_normal((10, 5)), rng.standard_normal(10), np.ones(5), False
    )
    with pytest.raises(ValueError):
        solve_one(system, np.ones(5), 0.1)


def test_large_alpha_gives_zero_solution():
    system = make_system(15, 30, 2)
    rng = np.random.default_rng(12)
    w = rng.uniform(1, 3, 30)
    threshold = 2.0 * float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    result = solve_one(system, w, threshold * 1.01)
    np.testing.assert_array_equal(result.coefficients, np.zeros(30))
    assert result.converged
    assert result.n_iterations == 0


def test_single_column_closed_form():
    rng = np.random.default_rng(3)
    column = rng.standard_normal(12)
    column /= np.linalg.norm(column)
    y = rng.standard_normal(12)
    system = LinearSystem(column[:, None], y, np.ones(1), True)
    inner = float(column @ y)
    for alpha, w in [(0.05, 1.0), (0.3, 2.0)]:
        result = solve_one(system, np.array([w]), alpha)
        expected = soft_threshold(inner, alpha * w / 2.0)
        assert result.coefficients[0] == pytest.approx(expected, abs=1e-14)


def test_vanishing_regularization_matches_exact_solve():
    rng = np.random.default_rng(4)
    matrix = rng.standard_normal((12, 12)) + 3 * np.eye(12)
    raw = LinearSystem(matrix, rng.standard_normal(12), np.ones(12), False)
    system = normalize_columns(raw)
    exact = np.linalg.solve(system.matrix, system.rhs)
    result = solve_one(system, np.ones(12), 1e-12)
    np.testing.assert_allclose(result.coefficients, exact, atol=1e-9)


def test_fixed_point_stationarity():
    system = make_system(20, 35, 5)
    rng = np.random.default_rng(6)
    w = rng.uniform(1, 2, 35)
    alpha = 0.1 * float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    result = solve_one(system, w, alpha)
    z = result.coefficients
    step = 1.0 / (2.0 * np.linalg.norm(system.matrix, 2) ** 2)
    gradient = 2.0 * system.matrix.T @ (system.matrix @ z - system.rhs)
    fixed_point = soft_threshold(z - step * gradient, step * alpha * w)
    np.testing.assert_allclose(z, fixed_point, atol=1e-12 * max(alpha, 1.0))


def test_matches_reference_ista_unweighted():
    for seed in range(3):
        system = make_system(30, 12, 100 + seed)
        alpha = 0.1 * float(np.max(np.abs(system.matrix.T @ system.rhs)))
        result = solve_one(system, np.ones(12), alpha)
        reference = reference_ista(system, alpha)
        np.testing.assert_allclose(result.coefficients, reference, atol=1e-6)


def test_non_convergence_flag():
    system = make_system(15, 40, 9)
    alpha = 1e-4 * float(np.max(np.abs(system.matrix.T @ system.rhs)))
    assert solve_one(system, np.ones(40), alpha).n_iterations > 3
    result = solve_one(system, np.ones(40), alpha, max_iterations=3)
    assert not result.converged
    assert result.n_iterations == 3
    # the cap leaves the solution of the third breakpoint, short of alpha
    assert lasso_kkt_residual(system, np.ones(40), alpha, result.coefficients) > 1e-3


def test_default_alpha_grid_brackets_threshold():
    system = make_system(15, 30, 10)
    w = np.ones(30)
    grid = default_alpha_grid(system, w, num=10)
    assert grid.shape == (10,)
    ratio = float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    assert grid[0] == pytest.approx(1e-8 * ratio)
    assert grid[-1] == pytest.approx(1e-1 * ratio)
    assert np.all(np.diff(grid) > 0)


def test_objective_drops_below_initial():
    system = make_system(15, 40, 11)
    w = np.ones(40)
    alpha = 0.02 * float(np.max(np.abs(system.matrix.T @ system.rhs)))
    result = solve_one(system, w, alpha)
    initial = lasso_objective(np.zeros(40), system, w, alpha)
    assert lasso_objective(result.coefficients, system, w, alpha) < initial


# --- homotopy path ----------------------------------------------------------


def path_problem():
    system = make_system(15, 40, 21)
    w = np.random.default_rng(22).uniform(1, 3, 40)
    ratio = float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    # above the zero-solution threshold, two moderate values, one tiny one
    return system, w, ratio * np.array([3.0, 0.3, 0.05, 1e-6])


def test_path_columns_keep_their_own_counts_and_flags():
    system, w, alphas = path_problem()
    full = lasso_path(system, w, alphas, max_iterations=400)
    counts = [r.n_iterations for r in full]
    assert [r.converged for r in full] == [True] * 4
    assert counts[0] == 0  # above the threshold: no breakpoint walked
    assert 0 < counts[1] < counts[2] < counts[3] < 400

    # a cap that reaches the third alpha but not the fourth
    capped = lasso_path(system, w, alphas, max_iterations=counts[2])
    assert [r.converged for r in capped] == [True, True, True, False]
    assert [r.n_iterations for r in capped] == counts[:3] + [counts[2]]
    for result, reference in zip(capped[:3], full[:3]):
        np.testing.assert_array_equal(result.coefficients, reference.coefficients)


def test_path_converged_columns_match_single_alpha_solves():
    system, w, alphas = path_problem()
    results = lasso_path(system, w, alphas, max_iterations=400)
    for alpha, result in zip(alphas, results):
        single = solve_one(system, w, alpha, max_iterations=400)
        assert result.converged and single.converged
        scale = max(np.linalg.norm(single.coefficients), 1.0)
        assert np.linalg.norm(result.coefficients - single.coefficients) <= 1e-12 * scale


def test_path_single_iteration_never_converges():
    # one breakpoint walks only the first segment, on which a single index
    # is active; every alpha below it keeps that segment's end point
    system, w, alphas = path_problem()
    below_threshold = alphas[1:]
    full = lasso_path(system, w, below_threshold, max_iterations=400)
    assert min(r.n_iterations for r in full) > 1
    results = lasso_path(system, w, below_threshold, max_iterations=1)
    assert [r.converged for r in results] == [False] * len(below_threshold)
    assert [r.n_iterations for r in results] == [1] * len(below_threshold)
    for result in results:
        assert np.count_nonzero(result.coefficients) == 1
        np.testing.assert_array_equal(result.coefficients, results[0].coefficients)


def test_path_results_do_not_depend_on_alpha_order():
    system, w, alphas = path_problem()
    order = [2, 0, 3, 1]
    given_order = lasso_path(system, w, alphas, max_iterations=400)
    shuffled = lasso_path(system, w, alphas[order], max_iterations=400)
    for position, result in zip(order, shuffled):
        expected = given_order[position]
        np.testing.assert_array_equal(result.coefficients, expected.coefficients)
        assert result.converged == expected.converged
        assert result.n_iterations == expected.n_iterations


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(4, 20),
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_path_is_kkt_exact_and_no_worse_than_ista(m, n, seed):
    system = make_system(m, n, seed)
    w = np.random.default_rng(seed).uniform(1, 2, n)
    alpha_max = 2.0 * float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    alphas = alpha_max * np.array([1.5, 0.5, 1e-1, 1e-3, 1e-8])
    results = lasso_path(system, w, alphas, max_iterations=10 * (m + n))
    for alpha, result in zip(alphas, results):
        assert result.converged
        z = result.coefficients
        assert lasso_kkt_residual(system, w, alpha, z) <= LASSO_KKT_TOLERANCE
        reference = reference_ista(system, alpha, n_iterations=1000, w=w)
        objective = lasso_objective(z, system, w, alpha)
        assert objective <= lasso_objective(reference, system, w, alpha) * (1 + 1e-9)


def test_kkt_residual_flags_perturbed_solution():
    system, w, alphas = path_problem()
    for alpha, result in zip(alphas, lasso_path(system, w, alphas, max_iterations=400)):
        z = result.coefficients
        assert lasso_kkt_residual(system, w, alpha, z) <= LASSO_KKT_TOLERANCE
        for j in (int(np.argmax(np.abs(z))), int(np.argmin(np.abs(z)))):
            # moving one coordinate, on or off the support, breaks optimality
            perturbed = z.copy()
            perturbed[j] += 1e-6
            assert lasso_kkt_residual(system, w, alpha, perturbed) > 1e-8
    # the zero vector is optimal exactly from the threshold up
    zero = np.zeros(40)
    alpha_max = 2.0 * float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    assert lasso_kkt_residual(system, w, alpha_max, zero) == 0.0
    assert lasso_kkt_residual(system, w, 0.5 * alpha_max, zero) == pytest.approx(0.5)


# Objectives of the default grid on the first m=80 trial of the full Legendre
# study (default seed), as reached when every alpha was solved from a cold
# zero start by proximal gradient at the default cap; five of these ten solves
# hit the cap.
COLD_START_OBJECTIVES = (
    1.73275512495276e-06,
    9.955855673300568e-06,
    4.8753455813935464e-05,
    0.00016239395877467043,
    0.00011793062450868576,
    0.0006548510693274615,
    0.003850598766061911,
    0.02207317353583918,
    0.12115299992584787,
    0.5785548597743172,
)


def test_study_trial_grid_converges_at_default_cap():
    config = ExperimentConfig()
    index_set = hyperbolic_cross(config.dimension, config.cross_order)
    w = basis.weights(config.basis_kind, index_set)
    seed = np.random.SeedSequence([DEFAULT_SEED, 1, 80, 0])
    points = basis.sample_measure(config.basis_kind, config.dimension, 80, seed)
    system = normalize_columns(
        build_system(points, target_log_sum(config.dimension), config.basis_kind, index_set)
    )
    alphas = default_alpha_grid(system, w, config.lasso_grid_size)
    results = lasso_path(system, w, alphas, config.lasso_max_iterations)
    assert [r.converged for r in results] == [True] * len(alphas)
    for alpha, result, cold in zip(alphas, results, COLD_START_OBJECTIVES, strict=True):
        assert lasso_objective(result.coefficients, system, w, alpha) <= cold * (1 + 1e-5)
        assert lasso_kkt_residual(system, w, alpha, result.coefficients) <= LASSO_KKT_TOLERANCE
