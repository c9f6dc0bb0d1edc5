"""Solver properties on the systems the study itself builds: polynomial
designs at points from `sample_measure`, column-normalized, with the basis
weights, rather than the Gaussian test systems of test_womp.py and
test_lasso.py."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepoly import basis
from sparsepoly.assembly import build_system, normalize_columns
from sparsepoly.experiments import DEFAULT_LAMBDAS, target_log_sum
from sparsepoly.index_sets import hyperbolic_cross
from sparsepoly.lasso import default_alpha_grid, lasso_path
from sparsepoly.verification import LASSO_KKT_TOLERANCE, expansion_target, lasso_kkt_residual
from sparsepoly.womp import (
    STOP_IN_SUPPORT_RESELECT,
    STOP_MAX_ITERATIONS,
    STOP_RESIDUAL_FLOOR,
    STOP_ZERO_DELTA,
    WompConfig,
    womp_solve,
)


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


@settings(max_examples=60, deadline=None)
@given(drawn=study_systems())
def test_lasso_path_reaches_every_grid_alpha_with_a_kkt_certificate(drawn):
    system, w = drawn
    alphas = default_alpha_grid(system, w, 10)
    path = lasso_path(system, w, alphas, 1500)
    assert path.converged.all()
    residuals = [lasso_kkt_residual(system, w, a, z) for a, z in zip(alphas, path.coefficients)]
    assert np.max(residuals) <= LASSO_KKT_TOLERANCE  # a NaN fails


@settings(max_examples=60, deadline=None)
@given(drawn=study_systems(), lam=st.sampled_from(DEFAULT_LAMBDAS))
def test_womp_trace_is_bounded_finite_and_names_its_stop(drawn, lam):
    system, w = drawn
    m, n = system.matrix.shape
    # a budget past N, so the bound below is the solver's and not the cap's
    trace = womp_solve(system, w, WompConfig(lam=lam, max_iterations=n + 3))
    assert len(trace) <= min(m, n)
    assert np.all(np.isfinite(trace.values))
    assert trace.stop_reason in (
        STOP_MAX_ITERATIONS, STOP_ZERO_DELTA, STOP_IN_SUPPORT_RESELECT, STOP_RESIDUAL_FLOOR
    )
