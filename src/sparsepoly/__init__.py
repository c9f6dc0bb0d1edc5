"""Sparse approximation of multivariate functions from small random sample
sets, via weighted orthogonal matching pursuit over tensorized Legendre or
Chebyshev polynomial systems, with a weighted-LASSO baseline decoder and a
reproducible experiment harness."""

from .index_sets import hyperbolic_cross
from .basis import sample_measure, weights
from .assembly import TargetFunction, build_system, denormalize_solution, normalize_columns
from .womp import WompConfig, womp_path, womp_solve
from .lasso import default_alpha_grid, lasso_path
from .experiments import ExperimentConfig, relative_error, run_sweep, target_log_sum

__version__ = "0.1.0"
