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
    estimate_squared_spectral_norm,
    lasso_objective,
    lasso_path,
    soft_threshold,
    weighted_l1_norm,
)


def make_system(m, n, seed, noise=0.05):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((m, n))
    x0 = np.zeros(n)
    support = rng.choice(n, size=max(2, n // 6), replace=False)
    x0[support] = rng.uniform(1.0, 2.0, support.size) * rng.choice([-1, 1], support.size)
    y = matrix @ x0 + noise * rng.standard_normal(m)
    return normalize_columns(LinearSystem(matrix, y, np.ones(n), False))


def solve_one(system, w, alpha, max_iterations=2000, rel_tolerance=1e-8):
    """`lasso_path` at a single alpha."""
    return lasso_path(system, w, [alpha], max_iterations, rel_tolerance)[0]


def reference_ista(system, alpha, n_iterations=30_000):
    """Plain unweighted proximal gradient, written from the definition."""
    matrix, y = system.matrix, system.rhs
    step = 1.0 / (2.0 * np.linalg.norm(matrix, 2) ** 2)
    z = np.zeros(matrix.shape[1])
    for _ in range(n_iterations):
        gradient = 2.0 * matrix.T @ (matrix @ z - y)
        z = soft_threshold(z - step * gradient, step * alpha)
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


# --- soft threshold ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    v=st.floats(min_value=-10, max_value=10, allow_nan=False),
    t=st.floats(min_value=0, max_value=5, allow_nan=False),
)
def test_soft_threshold_properties(v, t):
    s = float(soft_threshold(np.array([v]), t)[0])
    if abs(v) <= t:
        assert s == 0.0
    else:
        assert s == pytest.approx(np.sign(v) * (abs(v) - t), abs=1e-12)


def test_soft_threshold_vector_thresholds():
    v = np.array([3.0, -3.0, 0.5])
    t = np.array([1.0, 2.0, 1.0])
    np.testing.assert_allclose(soft_threshold(v, t), [2.0, -1.0, 0.0], atol=0)


# --- solver -----------------------------------------------------------------


def test_config_validation():
    system = make_system(10, 20, 0)
    with pytest.raises(ValueError):
        solve_one(system, np.ones(20), 0.0)
    with pytest.raises(ValueError):
        solve_one(system, np.ones(20), 1.0, rel_tolerance=0.0)
    with pytest.raises(ValueError):
        solve_one(system, np.ones(20), 1.0, max_iterations=0)
    with pytest.raises(ValueError):
        lasso_path(system, np.ones(20), [1.0, -1.0], max_iterations=10, rel_tolerance=1e-8)
    with pytest.raises(ValueError):
        lasso_path(system, np.ones(20), [], max_iterations=10, rel_tolerance=1e-8)


def test_requires_normalized_system():
    rng = np.random.default_rng(0)
    system = LinearSystem(
        rng.standard_normal((10, 5)), rng.standard_normal(10), np.ones(5), False
    )
    with pytest.raises(ValueError):
        solve_one(system, np.ones(5), 0.1)


def test_spectral_norm_estimate():
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((20, 30))
    exact = np.linalg.norm(matrix, 2) ** 2
    estimate = estimate_squared_spectral_norm(matrix, n_iterations=60)
    assert estimate == pytest.approx(exact, rel=1e-6)
    assert estimate <= exact * (1 + 1e-9)


def test_large_alpha_gives_zero_solution():
    system = make_system(15, 30, 2)
    rng = np.random.default_rng(12)
    w = rng.uniform(1, 3, 30)
    threshold = 2.0 * float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    result = solve_one(system, w, threshold * 1.01)
    np.testing.assert_array_equal(result.coefficients, np.zeros(30))
    assert result.converged


def test_single_column_closed_form():
    rng = np.random.default_rng(3)
    column = rng.standard_normal(12)
    column /= np.linalg.norm(column)
    y = rng.standard_normal(12)
    system = LinearSystem(column[:, None], y, np.ones(1), True)
    inner = float(column @ y)
    for alpha, w in [(0.05, 1.0), (0.3, 2.0)]:
        result = solve_one(system, np.array([w]), alpha, rel_tolerance=1e-12)
        expected = float(soft_threshold(np.array([inner]), alpha * w / 2.0)[0])
        assert result.coefficients[0] == pytest.approx(expected, abs=1e-8)


def test_vanishing_regularization_matches_exact_solve():
    rng = np.random.default_rng(4)
    matrix = rng.standard_normal((12, 12)) + 3 * np.eye(12)
    raw = LinearSystem(matrix, rng.standard_normal(12), np.ones(12), False)
    system = normalize_columns(raw)
    exact = np.linalg.solve(system.matrix, system.rhs)
    result = solve_one(
        system, np.ones(12), 1e-12, max_iterations=200_000, rel_tolerance=1e-13
    )
    np.testing.assert_allclose(result.coefficients, exact, atol=1e-6)


def test_fixed_point_stationarity():
    system = make_system(20, 35, 5)
    rng = np.random.default_rng(6)
    w = rng.uniform(1, 2, 35)
    alpha = 0.1 * float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    result = solve_one(system, w, alpha, max_iterations=20_000, rel_tolerance=1e-10)
    z = result.coefficients
    step = 1.0 / (2.0 * np.linalg.norm(system.matrix, 2) ** 2)
    gradient = 2.0 * system.matrix.T @ (system.matrix @ z - system.rhs)
    fixed_point = soft_threshold(z - step * gradient, step * alpha * w)
    np.testing.assert_allclose(z, fixed_point, atol=1e-6 * max(alpha, 1.0))


def test_objective_history_non_increasing():
    system = make_system(15, 40, 7)
    rng = np.random.default_rng(8)
    w = rng.uniform(1, 3, 40)
    alpha = 0.05 * float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    result = solve_one(system, w, alpha)
    checkpoints = result.objective_history[::10]
    assert np.all(np.diff(checkpoints) <= 1e-10)


def test_matches_reference_ista_unweighted():
    for seed in range(3):
        system = make_system(30, 12, 100 + seed)
        alpha = 0.1 * float(np.max(np.abs(system.matrix.T @ system.rhs)))
        result = solve_one(
            system, np.ones(12), alpha, max_iterations=50_000, rel_tolerance=1e-13
        )
        reference = reference_ista(system, alpha)
        np.testing.assert_allclose(result.coefficients, reference, atol=1e-6)


def test_non_convergence_flag():
    system = make_system(15, 40, 9)
    alpha = 1e-4 * float(np.max(np.abs(system.matrix.T @ system.rhs)))
    result = solve_one(system, np.ones(40), alpha, max_iterations=3)
    assert not result.converged
    assert result.n_iterations == 3


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
    assert result.objective < initial


# --- batched alpha path -----------------------------------------------------


def path_problem():
    system = make_system(15, 40, 21)
    w = np.random.default_rng(22).uniform(1, 3, 40)
    ratio = float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    # above the zero-solution threshold, two moderate values, one tiny one
    return system, w, ratio * np.array([3.0, 0.3, 0.05, 1e-6])


def test_path_columns_keep_their_own_counts_and_flags():
    system, w, alphas = path_problem()
    results = lasso_path(system, w, alphas, max_iterations=400, rel_tolerance=1e-8)
    assert len(results) == len(alphas)
    flags = [r.converged for r in results]
    counts = [r.n_iterations for r in results]
    assert flags == [True, True, True, False]
    assert counts[0] == 1  # the zero start is already optimal
    assert 1 < counts[1] < counts[2] < 400
    assert counts[3] == 400
    for result in results:
        assert result.objective_history.shape == (result.n_iterations + 1,)
        assert result.objective == result.objective_history[-1]


def test_path_converged_columns_match_single_alpha_solves():
    system, w, alphas = path_problem()
    results = lasso_path(system, w, alphas, max_iterations=5000, rel_tolerance=1e-10)
    for alpha, result in zip(alphas, results):
        if not result.converged:
            continue
        single = solve_one(system, w, alpha, max_iterations=5000, rel_tolerance=1e-10)
        assert single.converged
        scale = max(np.linalg.norm(single.coefficients), 1.0)
        assert np.linalg.norm(result.coefficients - single.coefficients) <= 1e-6 * scale


def test_path_objective_histories_non_increasing():
    system, w, alphas = path_problem()
    for result in lasso_path(system, w, alphas, max_iterations=2000, rel_tolerance=1e-8):
        assert np.all(np.diff(result.objective_history) <= 0.0)


def test_path_recovers_from_underestimated_step():
    # The power method starts from the all-ones vector, which is an
    # eigenvector of this Gram matrix for its smaller eigenvalue (0.4 of
    # 1.6).  The first step is then too long for descent, so every alpha
    # must restart and halve its step.
    raw = LinearSystem(np.array([[1.0, -0.6], [0.0, 0.8]]), np.array([1.0, -2.0]), np.ones(2), False)
    system = normalize_columns(raw)
    exact = np.linalg.norm(system.matrix, 2) ** 2
    assert estimate_squared_spectral_norm(system.matrix) < exact / 2.1

    ratio = float(np.max(np.abs(system.matrix.T @ system.rhs)))
    alphas = ratio * np.array([0.5, 0.1, 0.01])
    results = lasso_path(system, np.ones(2), alphas, max_iterations=5000, rel_tolerance=1e-12)
    for alpha, result in zip(alphas, results):
        assert result.converged
        assert np.all(np.diff(result.objective_history) <= 0.0)
        np.testing.assert_allclose(result.coefficients, reference_ista(system, alpha), atol=1e-8)


def test_path_single_iteration_never_converges():
    system, w, alphas = path_problem()
    below_threshold = alphas[1:]
    results = lasso_path(system, w, below_threshold, max_iterations=1, rel_tolerance=1e-8)
    assert [r.converged for r in results] == [False] * len(below_threshold)
    assert [r.n_iterations for r in results] == [1] * len(below_threshold)


def test_path_results_do_not_depend_on_alpha_order():
    system, w, alphas = path_problem()
    order = [2, 0, 3, 1]
    given_order = lasso_path(system, w, alphas, max_iterations=400, rel_tolerance=1e-8)
    shuffled = lasso_path(system, w, alphas[order], max_iterations=400, rel_tolerance=1e-8)
    for position, result in zip(order, shuffled):
        expected = given_order[position]
        np.testing.assert_array_equal(result.coefficients, expected.coefficients)
        np.testing.assert_array_equal(result.objective_history, expected.objective_history)
        assert result.converged == expected.converged
        assert result.n_iterations == expected.n_iterations


# Objectives of the default grid on the first m=80 trial of the full Legendre
# study (default seed), as reached when every alpha was solved from a cold
# zero start at the default cap; five of these ten solves hit the cap.
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
    results = lasso_path(
        system, w, alphas, config.lasso_max_iterations, config.lasso_rel_tolerance
    )
    assert [r.converged for r in results] == [True] * len(alphas)
    for result, cold in zip(results, COLD_START_OBJECTIVES, strict=True):
        assert result.objective <= cold * (1 + 1e-5)
