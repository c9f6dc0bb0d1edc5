import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepoly import basis, lasso
from sparsepoly.assembly import LinearSystem, build_system, normalize_columns
from sparsepoly.experiments import DEFAULT_SEED, ExperimentConfig, target_log_sum
from sparsepoly.index_sets import hyperbolic_cross
from sparsepoly.lasso import LassoResult, default_alpha_grid, lasso_path
from sparsepoly.verification import LASSO_KKT_TOLERANCE, lasso_kkt_residual


def weighted_l1_norm(z: np.ndarray, w: np.ndarray) -> float:
    """sum_j |z_j| w_j."""
    return float(np.sum(np.abs(np.asarray(z)) * np.asarray(w)))


def lasso_objective(z: np.ndarray, system: LinearSystem, w: np.ndarray, alpha: float) -> float:
    residual = system.rhs - system.matrix @ np.asarray(z, dtype=np.float64)
    return float(residual @ residual) + alpha * weighted_l1_norm(z, w)


def make_system(m, n, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((m, n))
    x0 = np.zeros(n)
    support = rng.choice(n, size=max(2, n // 6), replace=False)
    x0[support] = rng.uniform(1.0, 2.0, support.size) * rng.choice([-1, 1], support.size)
    y = matrix @ x0 + 0.05 * rng.standard_normal(m)
    return normalize_columns(LinearSystem(matrix, y))


def solve_one(system, w, alpha, max_iterations=2000):
    """`lasso_path` at a single alpha: (coefficients, converged, breakpoints)."""
    path = lasso_path(system, w, [alpha], max_iterations)
    return path.coefficients[0], bool(path.converged[0]), int(path.n_iterations[0])


def scratch_path(system, w, alphas, max_iterations):
    """The homotopy path as `lasso_path` walks it, but with the direction
    solved from scratch at every breakpoint: gather the active columns, form
    their Gram matrix and call np.linalg.solve.  The reference for the
    updated inverse."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
    scaled = system.matrix / w
    m, n = scaled.shape
    correlations = 2.0 * (scaled.T @ system.rhs)
    u = np.zeros(n)
    active = []
    alpha = float(np.max(np.abs(correlations)))
    alpha_min = float(alphas.min())
    order = np.argsort(-alphas, kind="stable")
    result = LassoResult(np.zeros((alphas.size, n)), np.zeros(alphas.size, dtype=bool),
                         np.zeros(alphas.size, dtype=np.int64), np.zeros(alphas.size))
    emitted = 0

    def emit(floor, d=0.0, converged=True):
        nonlocal emitted
        while emitted < alphas.size and alphas[order[emitted]] >= floor:
            i = order[emitted]
            result.coefficients[i, active] = (u[active] + 0.5 * (alpha - alphas[i]) * d) / w[active]
            result.converged[i] = converged
            result.n_iterations[i] = breakpoints
            emitted += 1

    joining, dropped, breakpoints = int(np.argmax(np.abs(correlations))), -1, 0
    emit(alpha)
    while emitted < alphas.size:
        if breakpoints == max_iterations:
            emit(-np.inf, converged=False)
            break
        breakpoints += 1
        if joining >= 0:
            active.append(joining)
        columns = scaled[:, active]
        d = np.linalg.solve(columns.T @ columns, np.sign(correlations[active]))
        slopes = scaled.T @ (columns @ d)
        with np.errstate(divide="ignore", invalid="ignore"):
            rising = (alpha - correlations) / (1.0 - slopes)
            falling = (alpha + correlations) / (1.0 + slopes)
            vanishing = -2.0 * u[active] / d
        if dropped >= 0:
            if correlations[dropped] > 0:
                rising[dropped] = np.inf
            else:
                falling[dropped] = np.inf
        joins = np.minimum(
            np.where(rising > 0, rising, np.inf), np.where(falling > 0, falling, np.inf)
        )
        joins[active] = np.inf
        if len(active) == m:
            joins[:] = np.inf
        drops = np.where(vanishing > 0, vanishing, np.inf)
        join, drop = int(np.argmin(joins)), int(np.argmin(drops))
        gamma = min(joins[join], drops[drop], alpha - alpha_min)
        emit(alpha - gamma if gamma < alpha - alpha_min else alpha_min, d)
        u[active] += (0.5 * gamma) * d
        correlations -= gamma * slopes
        alpha -= gamma
        joining, dropped = -1, -1
        if gamma == drops[drop]:
            dropped = active.pop(drop)
            u[dropped] = 0.0
        elif gamma == joins[join]:
            joining = join
    return result


def assert_matches_scratch_path(system, w, alphas, max_iterations=1500):
    """`lasso_path` walks the same breakpoints as `scratch_path`: the same
    counts and flags, the same support after every breakpoint (so the same
    joins and drops), coefficients within 1e-10 relative and KKT-exact
    solutions.

    Two KKT-exact solutions on a support S may differ by about
    cond(G_S) * eps relative, G_S the Gram matrix of the scaled columns on S,
    so where that exceeds 1e-10 the bound is 100 cond(G_S) eps instead (on
    20,000 `study_systems` rows the largest ratio to cond(G_S) eps was 2.6).
    """
    path = lasso_path(system, w, alphas, max_iterations)
    reference = scratch_path(system, w, alphas, max_iterations)
    np.testing.assert_array_equal(path.n_iterations, reference.n_iterations)
    np.testing.assert_array_equal(path.converged, reference.converged)
    scaled = system.matrix / w
    for z, expected in zip(path.coefficients, reference.coefficients):
        support = scaled[:, expected != 0]
        condition = np.linalg.cond(support) ** 2 if support.size else 1.0
        bound = max(1e-10, 100 * condition * np.finfo(np.float64).eps)
        assert np.linalg.norm(z - expected) <= bound * np.linalg.norm(expected)
    kkt = lasso_kkt_residual(system, w, alphas, path.coefficients)
    assert np.max(kkt[path.converged], initial=0.0) <= LASSO_KKT_TOLERANCE  # a NaN fails
    floor = [np.min(alphas)]
    for cap in range(1, int(path.n_iterations.max()) + 1):
        support = lasso_path(system, w, floor, cap).coefficients[0] != 0
        np.testing.assert_array_equal(support, scratch_path(system, w, floor, cap).coefficients[0] != 0)
    return path


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


def test_large_alpha_gives_zero_solution():
    system = make_system(15, 30, 2)
    rng = np.random.default_rng(12)
    w = rng.uniform(1, 3, 30)
    threshold = 2.0 * float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    z, converged, n_iterations = solve_one(system, w, threshold * 1.01)
    np.testing.assert_array_equal(z, np.zeros(30))
    assert converged
    assert n_iterations == 0


def test_single_column_closed_form():
    rng = np.random.default_rng(3)
    column = rng.standard_normal(12)
    column /= np.linalg.norm(column)
    y = rng.standard_normal(12)
    system = LinearSystem(column[:, None], y, np.ones(1))
    inner = float(column @ y)
    for alpha, w in [(0.05, 1.0), (0.3, 2.0)]:
        z, _, _ = solve_one(system, np.array([w]), alpha)
        expected = soft_threshold(inner, alpha * w / 2.0)
        assert z[0] == pytest.approx(expected, abs=1e-14)


def test_vanishing_regularization_matches_exact_solve():
    rng = np.random.default_rng(4)
    matrix = rng.standard_normal((12, 12)) + 3 * np.eye(12)
    raw = LinearSystem(matrix, rng.standard_normal(12))
    system = normalize_columns(raw)
    exact = np.linalg.solve(system.matrix, system.rhs)
    z, _, _ = solve_one(system, np.ones(12), 1e-12)
    np.testing.assert_allclose(z, exact, atol=1e-9)
    # with N > m the path ends with m active indices, and none can join past
    # them however small alpha gets
    system = make_system(6, 12, 3)
    alpha = 1e-30 * 2.0 * float(np.max(np.abs(system.matrix.T @ system.rhs)))
    z, converged, _ = solve_one(system, np.ones(12), alpha)
    assert converged and np.count_nonzero(z) == 6
    assert lasso_kkt_residual(system, np.ones(12), [alpha], z[None])[0] <= LASSO_KKT_TOLERANCE


def test_fixed_point_stationarity():
    system = make_system(20, 35, 5)
    rng = np.random.default_rng(6)
    w = rng.uniform(1, 2, 35)
    alpha = 0.1 * float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    z, _, _ = solve_one(system, w, alpha)
    step = 1.0 / (2.0 * np.linalg.norm(system.matrix, 2) ** 2)
    gradient = 2.0 * system.matrix.T @ (system.matrix @ z - system.rhs)
    fixed_point = soft_threshold(z - step * gradient, step * alpha * w)
    np.testing.assert_allclose(z, fixed_point, atol=1e-12 * max(alpha, 1.0))


def test_matches_reference_ista_unweighted():
    for seed in range(3):
        system = make_system(30, 12, 100 + seed)
        alpha = 0.1 * float(np.max(np.abs(system.matrix.T @ system.rhs)))
        z, _, _ = solve_one(system, np.ones(12), alpha)
        reference = reference_ista(system, alpha)
        np.testing.assert_allclose(z, reference, atol=1e-6)


def test_non_convergence_flag():
    system = make_system(15, 40, 9)
    alpha = 1e-4 * float(np.max(np.abs(system.matrix.T @ system.rhs)))
    assert solve_one(system, np.ones(40), alpha)[2] > 3
    z, converged, n_iterations = solve_one(system, np.ones(40), alpha, max_iterations=3)
    assert not converged
    assert n_iterations == 3
    # the cap leaves the solution of the third breakpoint, short of alpha
    assert lasso_kkt_residual(system, np.ones(40), [alpha], z[None])[0] > 1e-3


def test_default_alpha_grid_brackets_threshold():
    system = make_system(15, 30, 10)
    w = np.ones(30)
    grid = default_alpha_grid(system, w, num=10)
    assert grid.shape == (10,)
    ratio = float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    assert grid[0] == pytest.approx(1e-8 * ratio)
    assert grid[-1] == pytest.approx(1e-1 * ratio)
    assert np.all(np.diff(grid) > 0)


def test_default_alpha_grid_refuses_a_zero_threshold():
    # y = 0: the path's rows are all zero and converged, but no log grid brackets 0
    system = make_system(15, 30, 10)
    system.rhs = np.zeros(15)
    with pytest.raises(ValueError, match="^the zero-solution threshold is 0"):
        default_alpha_grid(system, np.ones(30), num=10)
    path = lasso_path(system, np.ones(30), [1e-3, 1e-6], 50)
    assert path.converged.all() and not path.coefficients.any()
    # with no columns there is no threshold at all
    empty = normalize_columns(LinearSystem(np.ones((15, 0)), np.ones(15)))
    with pytest.raises(ValueError, match="^default_alpha_grid needs a system with at least one"):
        default_alpha_grid(empty, np.ones(0), num=10)


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
    # one row or entry per alpha
    assert full.coefficients.shape == (4, 40)
    assert full.converged.shape == full.n_iterations.shape == (4,)
    counts = full.n_iterations.tolist()
    assert full.converged.tolist() == [True] * 4
    assert counts[0] == 0  # above the threshold: no breakpoint walked
    assert 0 < counts[1] < counts[2] < counts[3] < 400

    # a cap that reaches the third alpha but not the fourth
    capped = lasso_path(system, w, alphas, max_iterations=counts[2])
    assert capped.converged.tolist() == [True, True, True, False]
    assert capped.n_iterations.tolist() == counts[:3] + [counts[2]]
    np.testing.assert_array_equal(capped.coefficients[:3], full.coefficients[:3])


def test_path_converged_columns_match_single_alpha_solves():
    system, w, alphas = path_problem()
    path = lasso_path(system, w, alphas, max_iterations=400)
    assert path.converged.all()
    for alpha, z in zip(alphas, path.coefficients):
        single, converged, _ = solve_one(system, w, alpha, max_iterations=400)
        assert converged
        scale = max(np.linalg.norm(single), 1.0)
        assert np.linalg.norm(z - single) <= 1e-12 * scale


def test_path_single_iteration_never_converges():
    # one breakpoint walks only the first segment, on which a single index
    # is active; every alpha below it keeps that segment's end point
    system, w, alphas = path_problem()
    below_threshold = alphas[1:]
    full = lasso_path(system, w, below_threshold, max_iterations=400)
    assert full.n_iterations.min() > 1
    capped = lasso_path(system, w, below_threshold, max_iterations=1)
    assert capped.converged.tolist() == [False] * len(below_threshold)
    assert capped.n_iterations.tolist() == [1] * len(below_threshold)
    for z in capped.coefficients:
        assert np.count_nonzero(z) == 1
        np.testing.assert_array_equal(z, capped.coefficients[0])


def test_path_results_do_not_depend_on_alpha_order():
    system, w, alphas = path_problem()
    order = [2, 0, 3, 1]
    given_order = lasso_path(system, w, alphas, max_iterations=400)
    shuffled = lasso_path(system, w, alphas[order], max_iterations=400)
    np.testing.assert_array_equal(shuffled.coefficients, given_order.coefficients[order])
    np.testing.assert_array_equal(shuffled.converged, given_order.converged[order])
    np.testing.assert_array_equal(shuffled.n_iterations, given_order.n_iterations[order])


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
    path = lasso_path(system, w, alphas, max_iterations=10 * (m + n))
    assert path.converged.all()
    assert np.max(lasso_kkt_residual(system, w, alphas, path.coefficients)) <= LASSO_KKT_TOLERANCE
    for alpha, z in zip(alphas, path.coefficients):
        reference = reference_ista(system, alpha, n_iterations=1000, w=w)
        objective = lasso_objective(z, system, w, alpha)
        assert objective <= lasso_objective(reference, system, w, alpha) * (1 + 1e-9)


def test_kkt_residual_flags_perturbed_solution():
    system, w, alphas = path_problem()
    path = lasso_path(system, w, alphas, max_iterations=400)
    assert np.max(lasso_kkt_residual(system, w, alphas, path.coefficients)) <= LASSO_KKT_TOLERANCE
    for alpha, z in zip(alphas, path.coefficients):
        for j in (int(np.argmax(np.abs(z))), int(np.argmin(np.abs(z)))):
            # moving one coordinate, on or off the support, breaks optimality
            perturbed = z.copy()
            perturbed[j] += 1e-6
            assert lasso_kkt_residual(system, w, [alpha], perturbed[None])[0] > 1e-8
    # the zero vector is optimal exactly from the threshold up
    zero = np.zeros((2, 40))
    alpha_max = 2.0 * float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
    residuals = lasso_kkt_residual(system, w, [alpha_max, 0.5 * alpha_max], zero)
    assert residuals[0] == 0.0
    assert residuals[1] == pytest.approx(0.5)


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


def study_trial(config=ExperimentConfig()):
    """(system, w, alpha grid) of the first m=80 trial of the full study."""
    index_set = hyperbolic_cross(config.d, config.s)
    w = basis.weights(config.basis, index_set)
    seed = np.random.SeedSequence([DEFAULT_SEED, 1, 80, 0])
    points = basis.sample_measure(config.basis, config.d, 80, seed)
    system = normalize_columns(
        build_system(points, target_log_sum(config.d), config.basis, index_set)
    )
    return system, w, default_alpha_grid(system, w, config.lasso_grid_size)


def test_study_trial_grid_converges_at_default_cap():
    config = ExperimentConfig()
    system, w, alphas = study_trial(config)
    path = lasso_path(system, w, alphas, config.lasso_max_iterations)
    assert path.converged.tolist() == [True] * len(alphas)
    for alpha, z, cold in zip(alphas, path.coefficients, COLD_START_OBJECTIVES, strict=True):
        assert lasso_objective(z, system, w, alpha) <= cold * (1 + 1e-5)
    assert np.max(lasso_kkt_residual(system, w, alphas, path.coefficients)) <= LASSO_KKT_TOLERANCE


# --- the updated inverse against the from-scratch solve ----------------------


def count_refactorizations(monkeypatch) -> list:
    """Record the size of every refactored inverse of the next paths."""
    sizes = []
    original = lasso._refactored

    def counting(rows, signs):
        sizes.append(len(signs))
        return original(rows, signs)

    monkeypatch.setattr(lasso, "_refactored", counting)
    return sizes


@pytest.mark.parametrize("basis_kind", basis.BASIS_KINDS)
def test_study_trial_path_matches_scratch_path(basis_kind, monkeypatch):
    refactorizations = count_refactorizations(monkeypatch)
    system, w, alphas = study_trial(ExperimentConfig(basis=basis_kind))
    path = lasso_path(system, w, alphas, 1500)
    assert_matches_scratch_path(system, w, alphas)
    # the study's well-conditioned systems never need the reset
    assert refactorizations == []
    # the per-alpha times grow as alpha falls
    by_alpha = path.seconds[np.argsort(-alphas)]
    assert np.all(by_alpha > 0) and np.all(np.diff(by_alpha) >= 0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_copy_of_an_active_column_never_joins(sign):
    # orthogonal columns keep every ratio exact: once column 1 is active, the
    # join ratio of column 2 (= sign * column 1) at the bound column 1 sits on
    # is 0/0, a NaN that must not count as a join, and at the other bound it is
    # alpha itself, reached only at alpha = 0
    matrix = np.zeros((3, 4))
    matrix[0, 0] = matrix[1, 1] = matrix[2, 3] = 1.0
    matrix[1, 2] = sign
    system = LinearSystem(matrix, np.array([3.0, 2.0, 1.0]), np.ones(4))
    alphas = np.array([5.0, 3.0, 1.0, 1e-3])
    path = assert_matches_scratch_path(system, np.ones(4), alphas)
    assert path.n_iterations.tolist() == [1, 2, 3, 3]
    assert np.all(path.coefficients[:, 2] == 0.0)


def near_copy_system(distance, seed):
    """(system, alphas): make_system(20, 40, seed) and a 41st unit column at
    angle ~distance from the first index to join, whose Gram matrix with it
    has condition ~1/distance^2 once both are active."""
    base = make_system(20, 40, seed)
    first = int(np.argmax(np.abs(base.matrix.T @ base.rhs)))
    offset = np.random.default_rng(1).standard_normal(20)
    near = base.matrix[:, first] + distance * offset / np.linalg.norm(offset)
    matrix = np.column_stack([base.matrix, near / np.linalg.norm(near)])
    alpha_max = 2.0 * float(np.max(np.abs(matrix.T @ base.rhs)))
    alphas = alpha_max * np.array([0.5, 1e-1, 1e-3, 1e-8])
    return LinearSystem(matrix, base.rhs, np.ones(41)), alphas


@pytest.mark.parametrize("distance", [1e-4, 1e-7])
def test_near_copy_of_an_active_column_resets_the_inverse(monkeypatch, distance):
    # the updated inverse misses its residual check, and the path refactors it
    system, alphas = near_copy_system(distance, 0)
    refactorizations = count_refactorizations(monkeypatch)
    path = assert_matches_scratch_path(system, np.ones(41), alphas)
    assert len(refactorizations) >= 1
    assert np.max(lasso_kkt_residual(system, np.ones(41), alphas, path.coefficients)) <= 1e-12


def test_correction_step_makes_a_nearly_dependent_path_kkt_exact(monkeypatch):
    # at distance 3e-3 the updated inverse passes its check at every
    # breakpoint, but its direction is off by about cond(G_AA) eps: without
    # the correction step the emitted solutions read a KKT residual of 2e-11
    system, alphas = near_copy_system(3e-3, 2)
    refactorizations = count_refactorizations(monkeypatch)
    path = lasso_path(system, np.ones(41), alphas, 1500)
    assert refactorizations == []
    kkt = lasso_kkt_residual(system, np.ones(41), alphas, path.coefficients)
    assert np.max(kkt) <= LASSO_KKT_TOLERANCE
