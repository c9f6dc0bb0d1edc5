r"""Weighted orthogonal matching pursuit.

The solver greedily minimizes

    G_lam(z) = ||y - A z||_2^2 + lam * ||z||_{0,w},

where the weighted l0 "norm" sums w_j^2 over the support of z.  Each
iteration adds the single index whose optimal one-coordinate update of the
current iterate decreases G_lam the most; for a least-squares-optimal iterate
x supported on S and unit-norm columns, that exact decrease is

    delta(x, S, j) = max(|(A^T r)_j|^2 - lam * w_j^2, 0)   if j not in S,
                     max(lam * w_j^2 - x_j^2, 0)           if j in S, x_j != 0,
                     0                                     if j in S, x_j == 0,

with r = y - A x.  After selection the coefficients are refit by least
squares restricted to the enlarged support.  With lam = 0 and unit weights
the scheme reduces to classical OMP.

The greedy maximizer can land on an index already in the support (the
middle case above scores the *removal* of a small coefficient, which the
support-enlarging iteration cannot realize); the solver then stops with
``stop_reason = "in_support_reselect"`` since no further move can help.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import LinearSystem

# Iterations stop once the residual is this small relative to ||y||; further
# refits would only churn floating-point noise.
RESIDUAL_FLOOR = 1e-14

# |x_j| above this counts as support, below as zero.
SUPPORT_EPSILON = 1e-12

STOP_MAX_ITERATIONS = "max_iterations"
STOP_ZERO_DELTA = "zero_delta"
STOP_IN_SUPPORT_RESELECT = "in_support_reselect"
STOP_RESIDUAL_FLOOR = "residual_floor"


@dataclass
class WompConfig:
    """Solver knobs.

    lam: regularization strength (0 gives classical OMP behaviour).
    max_iterations: iteration budget K.
    """

    lam: float = 0.0
    max_iterations: int = 25

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class IterationRecord:
    k: int
    selected_index: int
    delta_value: float
    support: tuple[int, ...]
    coefficients: np.ndarray = field(repr=False)
    residual_norm: float
    g_lambda: float


@dataclass
class SolveTrace:
    """Full per-iteration history of one solver run."""

    n_columns: int
    records: list[IterationRecord]
    stop_reason: str

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final_coefficients(self) -> np.ndarray:
        if not self.records:
            return np.zeros(self.n_columns)
        return self.records[-1].coefficients

    def coefficients_at(self, k: int) -> np.ndarray:
        """Iterate after k iterations; holds the last value past a stall."""
        if k <= 0 or not self.records:
            return np.zeros(self.n_columns)
        return self.records[min(k, len(self.records)) - 1].coefficients

    def support_size_at(self, k: int) -> int:
        if k <= 0 or not self.records:
            return 0
        return len(self.records[min(k, len(self.records)) - 1].support)


def weighted_l0(z: np.ndarray, w: np.ndarray, eps: float = SUPPORT_EPSILON) -> float:
    """Sum of w_j^2 over the numerical support {j : |z_j| > eps}."""
    z = np.asarray(z)
    w = np.asarray(w)
    mask = np.abs(z) > eps
    return float(np.sum(w[mask] ** 2))


def g_lambda(
    z: np.ndarray,
    system: LinearSystem,
    w: np.ndarray,
    lam: float,
    eps: float = SUPPORT_EPSILON,
) -> float:
    """Objective value ||y - A z||^2 + lam * weighted_l0(z)."""
    residual = system.rhs - system.matrix @ np.asarray(z, dtype=np.float64)
    value = float(residual @ residual)
    if lam > 0:
        value += lam * weighted_l0(z, w, eps)
    return value


def delta_scores(
    x: np.ndarray,
    in_support: np.ndarray,
    correlations: np.ndarray,
    w: np.ndarray,
    lam: float,
    eps: float,
) -> np.ndarray:
    """Vector of greedy scores for all candidate indices at once.

    `correlations` is A^T r for the current residual r; `in_support` is a
    boolean mask of the support set.  Assumes x is least-squares optimal on
    its support and the columns of A have unit norm.
    """
    lw2 = lam * np.asarray(w, dtype=np.float64) ** 2
    out_scores = np.maximum(correlations**2 - lw2, 0.0)
    in_scores = np.where(
        np.abs(x) > eps, np.maximum(lw2 - np.asarray(x) ** 2, 0.0), 0.0
    )
    return np.where(in_support, in_scores, out_scores)


def compute_delta(
    x: np.ndarray,
    support,
    j: int,
    system: LinearSystem,
    w: np.ndarray,
    lam: float,
    eps: float = SUPPORT_EPSILON,
) -> float:
    """Exact achievable decrease of G_lam by re-optimizing coordinate j.

    Assumes x minimizes the residual over vectors supported on `support`
    and that the system columns are unit-norm.
    """
    x = np.asarray(x, dtype=np.float64)
    in_support = np.zeros(system.n_columns, dtype=bool)
    in_support[list(support)] = True
    residual = system.rhs - system.matrix @ x
    correlations = system.matrix.T @ residual
    return float(delta_scores(x, in_support, correlations, w, lam, eps)[j])


def restricted_least_squares(system: LinearSystem, support) -> np.ndarray:
    """Minimize ||A_S z - y|| over z supported on S; zero elsewhere.

    Returns the minimum-norm minimizer when A_S is rank-deficient at the
    machine-precision cutoff.  An empty support returns the zero vector.
    """
    support = sorted(int(j) for j in support)
    x = np.zeros(system.n_columns)
    if not support:
        return x
    solution, *_ = np.linalg.lstsq(system.matrix[:, support], system.rhs, rcond=None)
    x[support] = solution
    return x


def womp_solve(
    system: LinearSystem,
    w: np.ndarray,
    config: WompConfig,
) -> SolveTrace:
    """Run the greedy pursuit on a column-normalized system.

    Starting from the zero iterate and empty support, each iteration selects
    the score-maximizing index (smallest index wins ties), enlarges the
    support, and refits by restricted least squares.  Stops at the iteration
    budget, when the best score is zero, when the maximizer is already in
    the support, or when the residual hits the floor.

    Raises:
        ValueError: if the system is not normalized or some weight is <= 0.
    """
    if not system.normalized:
        raise ValueError(
            "womp_solve requires unit-norm columns; apply normalize_columns first"
        )
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (system.n_columns,):
        raise ValueError(f"weights must have shape ({system.n_columns},)")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")

    matrix, y = system.matrix, system.rhs
    n = system.n_columns
    lam = config.lam
    y_norm = float(np.linalg.norm(y))

    x = np.zeros(n)
    in_support = np.zeros(n, dtype=bool)
    support: list[int] = []
    residual = y.copy()
    records: list[IterationRecord] = []
    stop_reason = STOP_MAX_ITERATIONS

    for k in range(1, config.max_iterations + 1):
        correlations = matrix.T @ residual
        scores = delta_scores(x, in_support, correlations, w, lam, SUPPORT_EPSILON)
        j = int(np.argmax(scores))
        best = float(scores[j])
        if best <= 0.0:
            stop_reason = STOP_ZERO_DELTA
            break
        if in_support[j]:
            stop_reason = STOP_IN_SUPPORT_RESELECT
            break
        in_support[j] = True
        support.append(j)
        support.sort()
        x = restricted_least_squares(system, support)
        residual = y - matrix[:, support] @ x[support]
        residual_norm = float(np.linalg.norm(residual))
        g_value = residual_norm**2
        if lam > 0:
            g_value += lam * weighted_l0(x, w)
        records.append(
            IterationRecord(
                k=k,
                selected_index=j,
                delta_value=best,
                support=tuple(support),
                coefficients=x.copy(),
                residual_norm=residual_norm,
                g_lambda=g_value,
            )
        )
        if residual_norm < RESIDUAL_FLOOR * y_norm:
            stop_reason = STOP_RESIDUAL_FLOOR
            break

    return SolveTrace(n_columns=n, records=records, stop_reason=stop_reason)
