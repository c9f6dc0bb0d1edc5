"""Solver properties on the systems the study itself builds: polynomial
designs at points from `sample_measure`, column-normalized, with the basis
weights, rather than the Gaussian test systems of test_womp.py and
test_lasso.py.  The properties that take `st.one_of` draw from both."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepoly import basis
from sparsepoly.assembly import build_system, normalize_columns
from sparsepoly.experiments import DEFAULT_LAMBDAS, target_log_sum
from sparsepoly.index_sets import hyperbolic_cross
from sparsepoly.lasso import default_alpha_grid, lasso_path
from sparsepoly.verification import (
    DELTA_CHECK_LAMBDAS,
    LASSO_KKT_TOLERANCE,
    collect_womp_states,
    expansion_target,
    g_lambda,
    grid_min_g_lambda,
    lasso_kkt_residual,
    random_test_system,
    restricted_least_squares,
)
from sparsepoly.womp import STOP_REASONS, delta_scores, womp_path

from test_lasso import assert_matches_scratch_path, lasso_objective, reference_ista


@st.composite
def study_systems(draw):
    """(system, w): a Legendre or Chebyshev hyperbolic cross with d <= 4 and
    s <= 8, m from 2 to N + 3 points from `sample_measure`, and the log-sum
    target or a random expansion of at most 8 terms."""
    kind = draw(st.sampled_from(basis.BASIS_KINDS))
    d = draw(st.integers(1, 4))
    index_set = hyperbolic_cross(d, draw(st.integers(1, 8)))
    n = len(index_set)
    m = draw(st.integers(2, n + 3))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        target = target_log_sum(d)
    else:
        rng = np.random.default_rng(seed)
        terms = rng.choice(n, size=rng.integers(1, min(n, 8), endpoint=True), replace=False)
        coefficients = np.zeros(n)
        signs = rng.choice([-1.0, 1.0], terms.size)
        coefficients[terms] = rng.uniform(1.0, 2.0, terms.size) * signs
        target = expansion_target(kind, index_set, coefficients)
    points = basis.sample_measure(kind, d, m, np.random.SeedSequence([seed, 1]))
    system = normalize_columns(build_system(points, target, kind, index_set))
    return system, basis.weights(kind, index_set)


@st.composite
def gaussian_systems(draw):
    """(system, w): `random_test_system` with m <= 20, n <= 40 and weights in
    [1, 2]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    system = random_test_system(draw(st.integers(2, 20)), n, rng)
    return system, rng.uniform(1.0, 2.0, n)


# lambda grids whose rows stop at different steps: the study's, and the
# oracle's with a lambda large enough to stop after a step or two
LAMBDA_GRIDS = (DEFAULT_LAMBDAS, (*DELTA_CHECK_LAMBDAS, 1.0))


def assert_path_rows_are_solves(system, w, lams, max_iterations):
    """Check each row of one `womp_path` call against a one-lambda
    `womp_path` call: the same selections and stop reason, and every iterate
    within 1e-13 relative.  A row that ran fewer steps stopped no later.
    Returns the path's traces."""
    traces = womp_path(system, w, lams, max_iterations)
    assert len(traces) == len(lams)
    for lam, trace in zip(lams, traces):
        alone = womp_path(system, w, [lam], max_iterations)[0]
        assert trace.selected.tolist() == alone.selected.tolist()
        assert trace.stop_reason == alone.stop_reason
        assert trace.values.shape == alone.values.shape
        gap = np.linalg.norm(trace.values - alone.values, axis=1)
        assert np.all(gap <= 1e-13 * np.linalg.norm(alone.values, axis=1))
    for earlier in traces:
        assert all(earlier.seconds <= t.seconds for t in traces if len(earlier) < len(t))
    return traces


@settings(max_examples=60, deadline=None)
@given(
    drawn=st.one_of(study_systems(), gaussian_systems()),
    lams=st.sampled_from(LAMBDA_GRIDS),
    short=st.booleans(),
)
def test_womp_path_rows_are_the_one_lambda_solves(drawn, lams, short):
    system, w = drawn
    # a budget of 3 stops long rows at max_iterations; one past N leaves the
    # other four reasons to the solver
    budget = 3 if short else system.n_columns + 3
    for trace in assert_path_rows_are_solves(system, w, lams, budget):
        # every prefix of each row's QR refit against the SVD oracle
        for k in range(1, len(trace) + 1):
            reference = restricted_least_squares(system, trace.selected[:k])
            error = np.linalg.norm(trace.coefficients_at(k) - reference)
            assert error <= 1e-12 * np.linalg.norm(reference)


@settings(max_examples=40, deadline=None)
@given(drawn=st.one_of(study_systems(), gaussian_systems()), lams=st.sampled_from(LAMBDA_GRIDS))
def test_block_delta_scores_are_the_row_scores_bit_for_bit(drawn, lams):
    system, w = drawn
    matrix, y = system.matrix, system.rhs
    traces = womp_path(system, w, lams, system.n_columns + 3)
    for k in range(max(map(len, traces)) + 1):
        # the states after k steps of the rows that ran k steps, as one block
        rows = [i for i, trace in enumerate(traces) if len(trace) >= k]
        support = np.stack([traces[i].selected[:k] for i in rows])
        values = np.stack([traces[i].values[k, :k] for i in rows])
        correlations = np.stack(
            [matrix.T @ (y - matrix @ traces[i].coefficients_at(k)) for i in rows]
        )
        lam = np.array(lams)[rows]
        block = delta_scores(support, values, correlations, w, lam)
        shared = delta_scores(support, values, correlations, w, lam[0])
        for r in range(len(rows)):
            row = (support[r], values[r], correlations[r], w)
            np.testing.assert_array_equal(block[r], delta_scores(*row, lam[r]))
            np.testing.assert_array_equal(shared[r], delta_scores(*row, lam[0]))


@settings(max_examples=60, deadline=None)
@given(drawn=study_systems())
def test_lasso_path_reaches_every_grid_alpha_with_a_kkt_certificate(drawn):
    system, w = drawn
    alphas = default_alpha_grid(system, w, 10)
    path = lasso_path(system, w, alphas, 1500)
    assert path.converged.all()
    residuals = lasso_kkt_residual(system, w, alphas, path.coefficients)
    assert np.max(residuals) <= LASSO_KKT_TOLERANCE  # a NaN fails


@settings(max_examples=40, deadline=None)
@given(drawn=st.one_of(study_systems(), gaussian_systems()))
def test_lasso_path_matches_the_from_scratch_solve(drawn):
    # the updated inverse walks the same joins and drops as a path that
    # solves the active Gram system afresh at every breakpoint
    system, w = drawn
    assert_matches_scratch_path(system, w, default_alpha_grid(system, w, 10))


@settings(max_examples=60, deadline=None)
@given(drawn=study_systems(), lam=st.sampled_from(DEFAULT_LAMBDAS))
def test_womp_trace_is_bounded_finite_and_names_its_stop(drawn, lam):
    system, w = drawn
    m, n = system.matrix.shape
    # a budget past N, so the bound below is the solver's and not the cap's
    trace = womp_path(system, w, [lam], n + 3)[0]
    assert len(trace) <= min(m, n)
    assert np.all(np.isfinite(trace.values))
    assert trace.stop_reason in STOP_REASONS


@settings(max_examples=60, deadline=None)
@given(
    drawn=st.one_of(study_systems(), gaussian_systems()),
    lam=st.sampled_from(DELTA_CHECK_LAMBDAS),
)
def test_womp_selects_the_argmax_of_the_delta_scores(drawn, lam):
    system, w = drawn
    trace = womp_path(system, w, [lam], system.n_columns + 3)[0]
    for k, j in enumerate(trace.selected.tolist()):
        x, support = trace.coefficients_at(k), trace.selected[:k]
        correlations = system.matrix.T @ (system.rhs - system.matrix @ x)
        assert j == int(np.argmax(delta_scores(support, x[support], correlations, w, lam)))


@settings(max_examples=20, deadline=None)
@given(drawn=study_systems())
def test_delta_scores_match_the_grid_minimum_on_solver_states(drawn):
    system, w = drawn
    for lam in DELTA_CHECK_LAMBDAS:
        # the first three states: the zero start and the first two iterates
        for x, support in collect_womp_states(system, w, lam, 2):
            correlations = system.matrix.T @ (system.rhs - system.matrix @ x)
            scores = delta_scores(support, x[support], correlations, w, lam)
            predicted = g_lambda(x, system, w, lam) - scores
            deviation = np.abs(grid_min_g_lambda(system, w, lam, x) - predicted)
            assert np.max(deviation) <= 1e-6  # the tolerance of `verify`; a NaN fails


@settings(max_examples=20, deadline=None)
@given(drawn=study_systems())
def test_lasso_path_objective_is_no_worse_than_ista(drawn):
    system, w = drawn
    alphas = default_alpha_grid(system, w, 10)[::3]
    path = lasso_path(system, w, alphas, 1500)
    for alpha, z in zip(alphas, path.coefficients):
        reference = reference_ista(system, alpha, n_iterations=1000, w=w)
        objective = lasso_objective(z, system, w, alpha)
        assert objective <= lasso_objective(reference, system, w, alpha) * (1 + 1e-9)
