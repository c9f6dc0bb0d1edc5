"""Sparse approximation of multivariate functions from small random sample
sets, via weighted orthogonal matching pursuit over tensorized Legendre or
Chebyshev polynomial systems, with a weighted-LASSO baseline decoder and a
reproducible experiment harness."""

from .index_sets import MultiIndexSet, hyperbolic_cross
from .basis import (
    BASIS_KINDS,
    CHEBYSHEV,
    LEGENDRE,
    eval_1d,
    eval_tensor,
    evaluate_expansion,
    sample_measure,
    weight,
    weights,
)
from .assembly import (
    LinearSystem,
    TargetFunction,
    build_system,
    denormalize_solution,
    normalize_columns,
)
from .womp import (
    SolveTrace,
    WompConfig,
    compute_delta,
    g_lambda,
    restricted_least_squares,
    weighted_l0,
    womp_solve,
)
from .lasso import LassoResult, default_alpha_grid, lasso_path, weighted_l1_norm
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    reference_coefficients,
    relative_error,
    run_sweep,
    target_log_sum,
)

__version__ = "0.1.0"
