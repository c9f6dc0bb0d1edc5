import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsepoly.assembly import LinearSystem, normalize_columns
from sparsepoly.womp import (
    SPAN_TOLERANCE,
    STOP_IN_SPAN,
    STOP_IN_SUPPORT_RESELECT,
    STOP_MAX_ITERATIONS,
    STOP_REASONS,
    STOP_RESIDUAL_FLOOR,
    STOP_ZERO_DELTA,
    SUPPORT_EPSILON,
    delta_scores,
    womp_path,
)
from sparsepoly.verification import (
    DELTA_CHECK_LAMBDAS,
    g_lambda,
    grid_min_g_lambda,
    random_test_system,
    restricted_least_squares,
    weighted_l0,
)

from test_study_systems import assert_path_rows_are_solves, gaussian_systems, study_systems


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
    system = random_test_system(10, 20, np.random.default_rng(0))
    value = g_lambda(np.zeros(20), system, np.ones(20), lam=0.5)
    assert value == pytest.approx(float(system.rhs @ system.rhs), rel=1e-14)


def test_g_lambda_lam_zero_is_squared_residual():
    system = random_test_system(10, 20, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    z = rng.standard_normal(20)
    residual = system.rhs - system.matrix @ z
    assert g_lambda(z, system, np.ones(20), 0.0) == pytest.approx(
        float(residual @ residual), rel=1e-12
    )


def test_g_lambda_matches_independent_recomputation():
    system = random_test_system(12, 18, np.random.default_rng(3))
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


NO_SUPPORT = np.zeros(0, dtype=np.intp)


def test_delta_out_of_support_lam_zero():
    system = random_test_system(10, 15, np.random.default_rng(5))
    correlations = system.matrix.T @ system.rhs
    scores = delta_scores(NO_SUPPORT, np.zeros(0), correlations, np.ones(15), 0.0)
    np.testing.assert_allclose(scores, correlations**2, rtol=1e-12)


def test_delta_in_support_zero_coefficient():
    system = random_test_system(10, 15, np.random.default_rng(6))
    x = restricted_least_squares(system, [3])
    x_mod = x.copy()
    x_mod[7] = 0.0
    support = np.array([3, 7])
    correlations = system.matrix.T @ (system.rhs - system.matrix @ x_mod)
    assert delta_scores(support, x_mod[support], correlations, np.ones(15), 1e-2)[7] == 0.0


def test_delta_in_support_small_coefficient():
    system = random_test_system(10, 15, np.random.default_rng(6))
    x = restricted_least_squares(system, [3])
    lam = 1.0
    expected = max(lam * 1.0 - x[3] ** 2, 0.0)
    correlations = system.matrix.T @ (system.rhs - system.matrix @ x)
    score = delta_scores(np.array([3]), x[[3]], correlations, np.ones(15), lam)[3]
    assert score == pytest.approx(expected, rel=1e-12)


def test_grid_oracle_finds_a_decrease_smaller_than_its_coarse_cell():
    # column 1 gains c^2 - lam = 4e-6 at t = c = 0.03, but the coarse grid
    # point nearest c (spacing 0.018) is 3.6e-5 worse than t = 0, where the
    # penalty jumps off; the rescan must still look around c
    system = LinearSystem(np.eye(2), np.array([6.0, 0.03]), np.ones(2))
    lam = 0.03**2 - 4e-6
    minima = grid_min_g_lambda(system, np.ones(2), lam, np.zeros(2))
    assert minima[1] == pytest.approx(6.0**2 + 0.03**2 - 4e-6, abs=1e-9)


# --- restricted least squares ----------------------------------------------


def test_restricted_ls_single_column_projection():
    system = random_test_system(10, 15, np.random.default_rng(8))
    x = restricted_least_squares(system, [4])
    expected = float(system.matrix[:, 4] @ system.rhs)
    assert x[4] == pytest.approx(expected, rel=1e-12)
    assert np.all(x[np.arange(15) != 4] == 0.0)


def test_restricted_ls_recovers_spanned_rhs():
    rng = np.random.default_rng(9)
    system = random_test_system(12, 20, np.random.default_rng(9))
    support = [2, 5, 11]
    c = rng.standard_normal(3)
    system.rhs = system.matrix[:, support] @ c
    x = restricted_least_squares(system, support)
    residual = system.rhs - system.matrix @ x
    assert np.linalg.norm(residual) <= 1e-10
    np.testing.assert_allclose(x[support], c, atol=1e-10)


def test_restricted_ls_normal_equations():
    system = random_test_system(14, 25, np.random.default_rng(10))
    support = [0, 3, 9, 17]
    x = restricted_least_squares(system, support)
    residual = system.rhs - system.matrix @ x
    gradient = system.matrix[:, support].T @ residual
    np.testing.assert_allclose(gradient, 0.0, atol=1e-10)


def test_restricted_ls_empty_support():
    system = random_test_system(10, 15, np.random.default_rng(11))
    np.testing.assert_array_equal(restricted_least_squares(system, []), np.zeros(15))


# --- solver -----------------------------------------------------------------


def test_single_active_column_recovered_immediately():
    rng = np.random.default_rng(14)
    matrix = rng.standard_normal((12, 20))
    raw = LinearSystem(matrix, np.zeros(12))
    system = normalize_columns(raw)
    system.rhs = system.matrix[:, 7] * 2.5
    trace = womp_path(system, np.ones(20), [0.0], 5)[0]
    assert trace.selected.tolist() == [7]
    assert np.linalg.norm(system.rhs - system.matrix @ trace.coefficients_at(1)) <= 1e-10
    assert trace.stop_reason == STOP_RESIDUAL_FLOOR


def reselect_system():
    """(system, w): a correlated dictionary where, at lam = 1e-3, a supported
    coefficient shrinks below the regularization threshold, so the greedy
    maximizer re-enters the support."""
    rng = np.random.default_rng(10)
    matrix = rng.standard_normal((12, 40))
    mix = rng.standard_normal((12, 3))
    matrix += mix @ rng.standard_normal((3, 40)) * 2.0
    x0 = np.zeros(40)
    idx = rng.choice(40, 5, replace=False)
    x0[idx] = rng.uniform(1, 2, 5) * rng.choice([-1, 1], 5)
    y = matrix @ x0 + 0.05 * rng.standard_normal(12)
    return normalize_columns(LinearSystem(matrix, y)), rng.uniform(1, 3, 40)


def test_supports_nested_and_growing():
    for seed in range(5):
        system = random_test_system(15, 30, np.random.default_rng(200 + seed))
        rng = np.random.default_rng(seed)
        w = rng.uniform(1, 2, 30)
        trace = womp_path(system, w, [1e-4], 8)[0]
        # one new index per iteration: the support after k iterations is selected[:k]
        assert len(set(trace.selected.tolist())) == len(trace) <= 8
        for k in range(len(trace) + 1):
            assert trace.support_size_at(k) == k
            # numerical support stays inside the selected set
            x = trace.coefficients_at(k)
            assert set(np.flatnonzero(np.abs(x) > 1e-12)) <= set(trace.selected[:k].tolist())


def test_residual_monotonicity():
    for seed in range(5):
        system = random_test_system(15, 30, np.random.default_rng(300 + seed))
        trace = womp_path(system, np.ones(30), [0.0], 10)[0]
        norms = [
            float(np.linalg.norm(system.rhs - system.matrix @ trace.coefficients_at(k)))
            for k in range(len(trace) + 1)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_descent_by_at_least_delta():
    rng = np.random.default_rng(31)
    for seed in range(5):
        system = random_test_system(15, 30, np.random.default_rng(400 + seed))
        w = rng.uniform(1, 2, 30)
        for lam in (0.0, 1e-4, 1e-2):
            trace = womp_path(system, w, [lam], 8)[0]
            for k, j in enumerate(trace.selected.tolist(), start=1):
                x_previous = trace.coefficients_at(k - 1)
                support = trace.selected[: k - 1]
                correlations = system.matrix.T @ (system.rhs - system.matrix @ x_previous)
                delta = delta_scores(support, x_previous[support], correlations, w, lam)[j]
                g_previous = g_lambda(x_previous, system, w, lam)
                g_value = g_lambda(trace.coefficients_at(k), system, w, lam)
                assert g_value <= g_previous - delta + 1e-9


def test_coefficients_at_holds_last_value():
    system = random_test_system(15, 30, np.random.default_rng(800))
    trace = womp_path(system, np.ones(30), [0.0], 4)[0]
    np.testing.assert_array_equal(trace.coefficients_at(0), np.zeros(30))
    # a negative k is the zero start too, not an index from the end
    np.testing.assert_array_equal(trace.coefficients_at(-1), np.zeros(30))
    assert trace.support_size_at(-1) == 0
    last = trace.coefficients_at(len(trace))
    assert np.count_nonzero(last) == len(trace) == 4
    np.testing.assert_array_equal(trace.coefficients_at(99), last)
    assert trace.support_size_at(99) == len(trace)


def test_trace_stores_support_values_and_expands_them():
    system = random_test_system(15, 30, np.random.default_rng(801))
    trace = womp_path(system, np.ones(30), [1e-2], 40)[0]
    n = len(trace)
    assert 0 < n < 40  # stalls before the budget
    assert trace.selected.shape == (n,)
    assert trace.values.shape == (n + 1, n)
    # row k holds iterate k on selected[:k]; the zero start and the entries
    # right of column k are zero
    np.testing.assert_array_equal(np.triu(trace.values), 0.0)
    for k in range(n + 3):
        step = min(k, n)
        expected = np.zeros(30)
        expected[trace.selected[:step]] = trace.values[step, :step]
        np.testing.assert_array_equal(trace.coefficients_at(k), expected)
    # one call with an array of k stacks the scalar calls bit for bit
    ks = np.arange(0, n + 3)
    np.testing.assert_array_equal(
        trace.coefficients_at(ks), np.stack([trace.coefficients_at(int(k)) for k in ks])
    )
    np.testing.assert_array_equal(trace.support_size_at(ks), np.minimum(ks, n))
    np.testing.assert_array_equal(trace.final_coefficients, trace.coefficients_at(n))
    # a budget far above the iterations run gives the same trace, sized by
    # the iterations run
    unbounded = womp_path(system, np.ones(30), [1e-2], 10**6)[0]
    assert unbounded.stop_reason == trace.stop_reason
    np.testing.assert_array_equal(unbounded.selected, trace.selected)
    np.testing.assert_array_equal(unbounded.values, trace.values)


def tilted_system(tilt):
    """Column 2 is column 0 tilted by `tilt` out of the (e1, e2) plane: once
    columns 1 and 2 are in, column 0's orthogonal part is about `tilt`."""
    matrix = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, tilt]])
    return normalize_columns(LinearSystem(matrix, np.array([0.3, 1.0, 1.0])))


@pytest.mark.parametrize("tilt", [1e-9, 1e-4, 5e-4])
def test_in_span_column_stops_the_solve(tilt):
    # column 0 is the maximizer after [1, 2], but its orthogonal part is below
    # SPAN_TOLERANCE, so the solve stops without selecting it
    system = tilted_system(tilt)
    trace = womp_path(system, np.ones(3), [0.0], 6)[0]
    assert trace.selected.tolist() == [1, 2]
    assert trace.stop_reason == STOP_IN_SPAN
    np.testing.assert_allclose(
        trace.final_coefficients, restricted_least_squares(system, (1, 2)), rtol=1e-12, atol=0
    )


def test_column_above_the_span_tolerance_is_appended():
    # at tilt 1e-2 column 0's orthogonal part is ten times SPAN_TOLERANCE: the
    # QR refit takes it, at cond(A_S) about 1e2, and fits y exactly; the
    # solver's own residual y - Q Q^T y sees that only while Q stays
    # orthonormal, which takes Gram-Schmidt's second pass
    system = tilted_system(1e-2)
    trace = womp_path(system, np.ones(3), [0.0], 6)[0]
    assert trace.selected.tolist() == [1, 2, 0]
    assert trace.stop_reason == STOP_RESIDUAL_FLOOR
    x = trace.final_coefficients
    np.testing.assert_allclose(x, restricted_least_squares(system, (0, 1, 2)), rtol=1e-12, atol=0)
    residual = system.rhs - system.matrix @ x
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(system.rhs)


def test_ties_go_to_the_smallest_index_and_a_zero_score_names_the_stop():
    # every correlation is 1 at the first step, and columns 0 and 1 are equal
    matrix = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    system = normalize_columns(LinearSystem(matrix, np.ones(2)))
    assert womp_path(system, np.ones(3), [0.0], 5)[0].selected.tolist() == [0, 2]
    # after [0] every score is zero at lam = 0.5, and the argmax, index 0, is
    # in the support and in the span: the first check that holds names the stop
    system = normalize_columns(LinearSystem(np.eye(2), np.array([1.0, 0.1])))
    trace = womp_path(system, np.ones(2), [0.5], 5)[0]
    assert (trace.selected.tolist(), trace.stop_reason) == ([0], STOP_ZERO_DELTA)


def test_womp_path_rows_stop_at_different_steps_for_every_reason():
    # each call's rows stop at distinct steps; together they meet all five
    # stop reasons, and each row is its one-lambda solve
    reselect, w = reselect_system()
    lams = (0.0, 1e-3, 1e-1, 10.0)
    cases = {
        # residual_floor at 12, in_support_reselect at 9, zero_delta at 8 and at 1;
        # a budget of 10**6 sizes the buffers by m, not by the budget
        (STOP_RESIDUAL_FLOOR, STOP_IN_SUPPORT_RESELECT, STOP_ZERO_DELTA, STOP_ZERO_DELTA):
            (reselect, w, lams, 10**6),
        (STOP_MAX_ITERATIONS, STOP_IN_SUPPORT_RESELECT, STOP_ZERO_DELTA, STOP_ZERO_DELTA):
            (reselect, w, lams, 10),
        # in_span after [1, 2], zero_delta after one step and at the start
        (STOP_IN_SPAN, STOP_ZERO_DELTA, STOP_ZERO_DELTA):
            (tilted_system(1e-4), np.ones(3), (0.0, 0.5, 10.0), 6),
    }
    for reasons, (system, w, lams, budget) in cases.items():
        traces = assert_path_rows_are_solves(system, w, lams, budget)
        assert tuple(trace.stop_reason for trace in traces) == reasons
        assert len({len(trace) for trace in traces}) == len(traces)
    assert {reason for reasons in cases for reason in reasons} == set(STOP_REASONS)


@settings(max_examples=60, deadline=None)
@given(
    drawn=st.one_of(study_systems(), gaussian_systems()),
    lam=st.sampled_from(DELTA_CHECK_LAMBDAS),
)
@example(drawn=(tilted_system(1e-4), np.ones(3)), lam=0.0)
def test_an_in_span_stop_gives_up_the_refit_on_its_column(drawn, lam):
    # the refused maximizer j is in the span at SPAN_TOLERANCE, and the stop
    # gives up what appending it would have gained: the oracle's refit on
    # S + {j} lowers ||r||^2 by (v^T r)^2 / rho^2 <= ||r||^2, where v is the
    # part of column j orthogonal to A_S and rho = ||v||
    system, w = drawn
    matrix, y = system.matrix, system.rhs
    trace = womp_path(system, w, [lam], system.n_columns + 3)[0]
    if trace.stop_reason != STOP_IN_SPAN or len(trace) >= matrix.shape[0]:
        return
    x, support = trace.final_coefficients, trace.selected
    correlations = matrix.T @ (y - matrix @ x)
    j = int(np.argmax(delta_scores(support, x[support], correlations, w, lam)))
    column, selected = matrix[:, j], matrix[:, support]
    v = column - selected @ np.linalg.lstsq(selected, column, rcond=None)[0]
    rho = np.linalg.norm(v)
    assert rho <= SPAN_TOLERANCE
    residual = y - matrix @ restricted_least_squares(system, support)
    refit = y - matrix @ restricted_least_squares(system, [*support, j])
    given_up = residual @ residual - refit @ refit
    assert abs(given_up - (v @ residual) ** 2 / rho**2) <= 1e-9 * (residual @ residual)
    assert given_up <= (1 + 1e-9) * (residual @ residual)


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
    trace = womp_path(system, w, [lam], 2 * n)[0]
    assert len(trace) <= m
    assert np.all(np.isfinite(trace.values))


@settings(max_examples=60, deadline=None)
@given(shape=random_shapes, seed=st.integers(0, 2**32 - 1))
def test_unregularized_run_ends_at_residual_floor(shape, seed):
    m, n = shape
    system = random_test_system(m, n, np.random.default_rng(seed))
    trace = womp_path(system, np.ones(n), [0.0], 2 * n)[0]
    assert trace.stop_reason == STOP_RESIDUAL_FLOOR
