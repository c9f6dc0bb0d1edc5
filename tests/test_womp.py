import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepoly.assembly import LinearSystem, normalize_columns
from sparsepoly.womp import (
    STOP_IN_SUPPORT_RESELECT,
    STOP_RESIDUAL_FLOOR,
    STOP_ZERO_DELTA,
    SUPPORT_EPSILON,
    WompConfig,
    compute_delta,
    g_lambda,
    restricted_least_squares,
    weighted_l0,
    womp_solve,
)
from sparsepoly.verification import (
    collect_womp_states,
    grid_min_g_lambda,
    random_test_system,
    textbook_omp,
)


def make_system(m, n, seed, noise=0.05):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((m, n))
    x0 = np.zeros(n)
    support = rng.choice(n, size=max(2, n // 8), replace=False)
    x0[support] = rng.uniform(1.0, 2.0, support.size) * rng.choice([-1, 1], support.size)
    y = matrix @ x0 + noise * rng.standard_normal(m)
    raw = LinearSystem(matrix=matrix, rhs=y, column_norms=np.ones(n), normalized=False)
    return normalize_columns(raw)


# --- weighted l0 ------------------------------------------------------------


def test_weighted_l0_zero_vector():
    assert weighted_l0(np.zeros(5), np.ones(5)) == 0.0


def test_weighted_l0_reduces_to_counting():
    z = np.array([0.5, 0.0, -2.0, 1e-15, 3.0])
    assert weighted_l0(z, np.ones(5)) == 3.0


def test_weighted_l0_single_entry():
    z = np.zeros(4)
    z[2] = 1.0
    w = np.ones(4)
    w[2] = np.sqrt(5.0)
    assert weighted_l0(z, w) == pytest.approx(5.0, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    entries=st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=8
    )
)
def test_weighted_l0_unit_weights_counts_support(entries):
    z = np.array(entries)
    assert weighted_l0(z, np.ones(len(entries))) == np.sum(np.abs(z) > SUPPORT_EPSILON)


# --- objective --------------------------------------------------------------


def test_g_lambda_zero_vector_is_rhs_energy():
    system = make_system(10, 20, 0)
    value = g_lambda(np.zeros(20), system, np.ones(20), lam=0.5)
    assert value == pytest.approx(float(system.rhs @ system.rhs), rel=1e-14)


def test_g_lambda_lam_zero_is_squared_residual():
    system = make_system(10, 20, 1)
    rng = np.random.default_rng(2)
    z = rng.standard_normal(20)
    residual = system.rhs - system.matrix @ z
    assert g_lambda(z, system, np.ones(20), 0.0) == pytest.approx(
        float(residual @ residual), rel=1e-12
    )


def test_g_lambda_matches_independent_recomputation():
    system = make_system(12, 18, 3)
    rng = np.random.default_rng(4)
    w = rng.uniform(1, 2, 18)
    z = rng.standard_normal(18)
    z[rng.random(18) < 0.5] = 0.0
    lam = 1e-3
    expected = float(np.sum((system.rhs - system.matrix @ z) ** 2)) + lam * float(
        np.sum(w[np.abs(z) > 1e-12] ** 2)
    )
    assert g_lambda(z, system, w, lam) == pytest.approx(expected, rel=1e-12)


# --- greedy score -----------------------------------------------------------


def test_delta_out_of_support_lam_zero():
    system = make_system(10, 15, 5)
    w = np.ones(15)
    correlations = system.matrix.T @ system.rhs
    for j in range(15):
        expected = correlations[j] ** 2
        assert compute_delta(np.zeros(15), (), j, system, w, 0.0) == pytest.approx(
            expected, rel=1e-12
        )


def test_delta_in_support_zero_coefficient():
    system = make_system(10, 15, 6)
    x = restricted_least_squares(system, [3])
    x_mod = x.copy()
    x_mod[7] = 0.0
    assert compute_delta(x_mod, (3, 7), 7, system, np.ones(15), 1e-2) == 0.0


def test_delta_in_support_small_coefficient():
    system = make_system(10, 15, 6)
    x = restricted_least_squares(system, [3])
    lam = 1.0
    expected = max(lam * 1.0 - x[3] ** 2, 0.0)
    assert compute_delta(x, (3,), 3, system, np.ones(15), lam) == pytest.approx(
        expected, rel=1e-12
    )


def test_delta_matches_grid_oracle_on_solver_states():
    rng = np.random.default_rng(7)
    for seed in range(3):
        system = random_test_system(15, 30, rng)
        w = rng.uniform(1, 2, 30)
        for lam in (0.0, 1e-4, 1e-2):
            states = collect_womp_states(system, w, lam, iterations=4)
            for x, support in states:
                minima = grid_min_g_lambda(system, w, lam, x)
                g_value = g_lambda(x, system, w, lam)
                for j in range(30):
                    delta = compute_delta(x, support, j, system, w, lam)
                    assert minima[j] == pytest.approx(g_value - delta, abs=1e-6)


# --- restricted least squares ----------------------------------------------


def test_restricted_ls_single_column_projection():
    system = make_system(10, 15, 8)
    x = restricted_least_squares(system, [4])
    expected = float(system.matrix[:, 4] @ system.rhs)
    assert x[4] == pytest.approx(expected, rel=1e-12)
    assert np.all(x[np.arange(15) != 4] == 0.0)


def test_restricted_ls_recovers_spanned_rhs():
    rng = np.random.default_rng(9)
    system = make_system(12, 20, 9)
    support = [2, 5, 11]
    c = rng.standard_normal(3)
    system.rhs = system.matrix[:, support] @ c
    x = restricted_least_squares(system, support)
    residual = system.rhs - system.matrix @ x
    assert np.linalg.norm(residual) <= 1e-10
    np.testing.assert_allclose(x[support], c, atol=1e-10)


def test_restricted_ls_normal_equations():
    system = make_system(14, 25, 10)
    support = [0, 3, 9, 17]
    x = restricted_least_squares(system, support)
    residual = system.rhs - system.matrix @ x
    gradient = system.matrix[:, support].T @ residual
    np.testing.assert_allclose(gradient, 0.0, atol=1e-10)


def test_restricted_ls_empty_support():
    system = make_system(10, 15, 11)
    np.testing.assert_array_equal(restricted_least_squares(system, []), np.zeros(15))


# --- solver -----------------------------------------------------------------


def test_refuses_unnormalized_system():
    rng = np.random.default_rng(12)
    system = LinearSystem(
        matrix=rng.standard_normal((10, 15)),
        rhs=rng.standard_normal(10),
        column_norms=np.ones(15),
        normalized=False,
    )
    with pytest.raises(ValueError):
        womp_solve(system, np.ones(15), WompConfig())


def test_rejects_nonpositive_weights():
    system = make_system(10, 15, 13)
    w = np.ones(15)
    w[4] = 0.0
    with pytest.raises(ValueError):
        womp_solve(system, w, WompConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        WompConfig(lam=-1.0)
    with pytest.raises(ValueError):
        WompConfig(max_iterations=0)


def test_matches_textbook_omp():
    for seed in range(10):
        system = make_system(20, 40, 100 + seed)
        trace = womp_solve(system, np.ones(40), WompConfig(lam=0.0, max_iterations=6))
        sequence = [rec.selected_index for rec in trace.records]
        ref_sequence, ref_x = textbook_omp(system.matrix, system.rhs, 6)
        assert sequence == ref_sequence
        np.testing.assert_allclose(trace.final_coefficients, ref_x, atol=1e-10)


def test_single_active_column_recovered_immediately():
    rng = np.random.default_rng(14)
    matrix = rng.standard_normal((12, 20))
    raw = LinearSystem(matrix, np.zeros(12), np.ones(20), False)
    system = normalize_columns(raw)
    system.rhs = system.matrix[:, 7] * 2.5
    trace = womp_solve(system, np.ones(20), WompConfig(lam=0.0, max_iterations=5))
    assert trace.records[0].support == (7,)
    assert trace.records[0].residual_norm <= 1e-10
    assert trace.stop_reason == STOP_RESIDUAL_FLOOR


def test_huge_lambda_stops_immediately():
    system = make_system(10, 15, 15)
    rng = np.random.default_rng(16)
    w = rng.uniform(1, 3, 15)
    correlations = system.matrix.T @ system.rhs
    lam = float(np.max(correlations**2 / w**2)) * 1.01
    trace = womp_solve(system, w, WompConfig(lam=lam, max_iterations=5))
    assert len(trace) == 0
    assert trace.stop_reason == STOP_ZERO_DELTA
    np.testing.assert_array_equal(trace.final_coefficients, np.zeros(15))


def test_in_support_reselect_stop():
    # correlated dictionary where a supported coefficient shrinks below the
    # regularization threshold, so the greedy maximizer re-enters the support
    rng = np.random.default_rng(10)
    matrix = rng.standard_normal((12, 40))
    mix = rng.standard_normal((12, 3))
    matrix += mix @ rng.standard_normal((3, 40)) * 2.0
    x0 = np.zeros(40)
    idx = rng.choice(40, 5, replace=False)
    x0[idx] = rng.uniform(1, 2, 5) * rng.choice([-1, 1], 5)
    y = matrix @ x0 + 0.05 * rng.standard_normal(12)
    system = normalize_columns(LinearSystem(matrix, y, np.ones(40), False))
    w = rng.uniform(1, 3, 40)
    trace = womp_solve(system, w, WompConfig(lam=1e-3, max_iterations=12))
    assert trace.stop_reason == STOP_IN_SUPPORT_RESELECT


def test_supports_nested_and_growing():
    for seed in range(5):
        system = make_system(15, 30, 200 + seed)
        rng = np.random.default_rng(seed)
        w = rng.uniform(1, 2, 30)
        trace = womp_solve(system, w, WompConfig(lam=1e-4, max_iterations=8))
        previous = set()
        for rec in trace.records:
            current = set(rec.support)
            assert previous <= current
            assert len(current) == len(previous) + 1
            assert len(current) <= rec.k
            # numerical support stays inside the selected set
            assert set(np.flatnonzero(np.abs(rec.coefficients) > 1e-12)) <= current
            previous = current


def test_residual_monotonicity():
    for seed in range(5):
        system = make_system(15, 30, 300 + seed)
        trace = womp_solve(system, np.ones(30), WompConfig(lam=0.0, max_iterations=10))
        norms = [float(np.linalg.norm(system.rhs))] + [
            rec.residual_norm for rec in trace.records
        ]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_descent_by_at_least_delta():
    rng = np.random.default_rng(31)
    for seed in range(5):
        system = make_system(15, 30, 400 + seed)
        w = rng.uniform(1, 2, 30)
        for lam in (0.0, 1e-4, 1e-2):
            trace = womp_solve(system, w, WompConfig(lam=lam, max_iterations=8))
            g_previous = float(system.rhs @ system.rhs)
            for rec in trace.records:
                assert rec.g_lambda <= g_previous - rec.delta_value + 1e-9
                g_previous = rec.g_lambda


def test_selection_is_correlation_argmax_when_unweighted():
    system = make_system(15, 30, 500)
    trace = womp_solve(system, np.ones(30), WompConfig(lam=0.0, max_iterations=8))
    x = np.zeros(30)
    residual = system.rhs.copy()
    for rec in trace.records:
        expected = int(np.argmax(np.abs(system.matrix.T @ residual)))
        assert rec.selected_index == expected
        x = rec.coefficients
        residual = system.rhs - system.matrix @ x


def test_first_iteration_scale_covariance():
    system = make_system(15, 30, 600)
    c = 3.5
    scaled = LinearSystem(
        matrix=system.matrix,
        rhs=c * system.rhs,
        column_norms=system.column_norms,
        normalized=True,
    )
    w = np.ones(30)
    base = np.array(
        [compute_delta(np.zeros(30), (), j, system, w, 0.0) for j in range(30)]
    )
    scaled_scores = np.array(
        [compute_delta(np.zeros(30), (), j, scaled, w, 0.0) for j in range(30)]
    )
    np.testing.assert_allclose(scaled_scores, c**2 * base, rtol=1e-12)
    assert int(np.argmax(base)) == int(np.argmax(scaled_scores))


def test_coefficients_at_holds_last_value():
    system = make_system(15, 30, 800)
    trace = womp_solve(system, np.ones(30), WompConfig(lam=0.0, max_iterations=4))
    np.testing.assert_array_equal(trace.coefficients_at(0), np.zeros(30))
    last = trace.records[-1].coefficients
    np.testing.assert_array_equal(trace.coefficients_at(99), last)
    assert trace.support_size_at(99) == len(trace.records[-1].support)


def test_trace_stores_support_values_and_expands_them():
    system = make_system(15, 30, 801)
    trace = womp_solve(system, np.ones(30), WompConfig(lam=1e-2, max_iterations=40))
    assert 0 < len(trace) < 40  # stalls before the budget
    for rec in trace.records:
        assert list(rec.support) == sorted(rec.support)
        assert rec.values.shape == (len(rec.support),)
    for k in range(len(trace) + 3):
        expected = np.zeros(30)
        if k > 0:
            rec = trace.records[min(k, len(trace)) - 1]
            expected[list(rec.support)] = rec.values
        np.testing.assert_array_equal(trace.coefficients_at(k), expected)
    np.testing.assert_array_equal(trace.final_coefficients, trace.coefficients_at(len(trace)))


def test_in_span_column_falls_back_to_least_squares():
    # column 2 is column 0 tilted by 1e-9 out of the (e1, e2) plane: once
    # columns 1 and 2 are in, column 0's orthogonal part is about 1e-9
    matrix = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-9]])
    raw = LinearSystem(matrix, np.array([0.3, 1.0, 1.0]), np.ones(3), False)
    system = normalize_columns(raw)
    trace = womp_solve(system, np.ones(3), WompConfig(lam=0.0, max_iterations=6))
    assert [rec.selected_index for rec in trace.records] == [1, 2, 0]
    assert trace.stop_reason == STOP_ZERO_DELTA
    for rec in trace.records:
        assert np.all(np.isfinite(rec.values))
    np.testing.assert_array_equal(
        trace.final_coefficients, restricted_least_squares(system, (0, 1, 2))
    )


# --- properties on random systems -------------------------------------------

# (m, n) with 3 <= m < 20 and m < n <= 3m + 1
random_shapes = st.integers(3, 19).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(m + 1, 3 * m + 1))
)


@settings(max_examples=60, deadline=None)
@given(
    shape=random_shapes,
    seed=st.integers(0, 2**32 - 1),
    lam=st.sampled_from((0.0, 1e-4, 1e-2)),
)
def test_support_bounded_by_rows_and_iterates_finite(shape, seed, lam):
    m, n = shape
    rng = np.random.default_rng(seed)
    system = random_test_system(m, n, rng)
    w = rng.uniform(1.0, 2.0, n)
    trace = womp_solve(system, w, WompConfig(lam=lam, max_iterations=2 * n))
    for rec in trace.records:
        assert len(rec.support) <= m
        assert np.all(np.isfinite(rec.coefficients))


@settings(max_examples=60, deadline=None)
@given(shape=random_shapes, seed=st.integers(0, 2**32 - 1))
def test_unregularized_run_ends_at_residual_floor(shape, seed):
    m, n = shape
    system = random_test_system(m, n, np.random.default_rng(seed))
    trace = womp_solve(system, np.ones(n), WompConfig(lam=0.0, max_iterations=2 * n))
    assert trace.stop_reason == STOP_RESIDUAL_FLOOR


@settings(max_examples=60, deadline=None)
@given(
    shape=random_shapes,
    seed=st.integers(0, 2**32 - 1),
    lam=st.sampled_from((0.0, 1e-4, 1e-2)),
)
def test_iterates_match_restricted_least_squares(shape, seed, lam):
    m, n = shape
    rng = np.random.default_rng(seed)
    system = random_test_system(m, n, rng)
    w = rng.uniform(1.0, 2.0, n)
    trace = womp_solve(system, w, WompConfig(lam=lam, max_iterations=2 * n))
    for rec in trace.records:
        reference = restricted_least_squares(system, rec.support)
        error = np.linalg.norm(rec.coefficients - reference)
        assert error <= 1e-12 * np.linalg.norm(reference)
