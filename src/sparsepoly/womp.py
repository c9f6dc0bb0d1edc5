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
squares restricted to the enlarged support.  The refit keeps a thin QR
factorization A_S = Q R of the selected columns in insertion order: a new
column is appended by classical Gram-Schmidt with one re-orthogonalization,
R^{-1} and Q^T y are extended in O(k^2) and O(m), x_S = R^{-1} (Q^T y), and
the residual is y - Q (Q^T y).
Once a new column is numerically in the span of the selected ones (k >= m,
or its orthogonal part is tiny), the rest of the solve refits with
`restricted_least_squares` instead, which returns the minimum-norm
minimizer.  With lam = 0 and unit weights the scheme reduces to classical
OMP.

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

# A unit-norm column whose part orthogonal to the selected columns is
# shorter than this counts as in their span (with it, cond(A_S) would be at
# least 1 / SPAN_TOLERANCE); the QR refit then hands over to
# `restricted_least_squares`, whose SVD cutoff handles rank deficiency.
SPAN_TOLERANCE = 1e-6

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
    """One iteration; `values` holds the iterate on `support` (ascending)."""

    k: int
    selected_index: int
    delta_value: float
    support: tuple[int, ...]
    values: np.ndarray = field(repr=False)
    residual_norm: float
    g_lambda: float
    n_columns: int

    @property
    def coefficients(self) -> np.ndarray:
        """The iterate expanded to length n_columns."""
        x = np.zeros(self.n_columns)
        x[list(self.support)] = self.values
        return x


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
        return self.coefficients_at(len(self.records))

    def coefficients_at(self, k: int) -> np.ndarray:
        """Iterate after k iterations; holds the last value past a stall."""
        if k <= 0 or not self.records:
            return np.zeros(self.n_columns)
        return self.records[min(k, len(self.records)) - 1].coefficients

    def support_size_at(self, k: int) -> int:
        if k <= 0 or not self.records:
            return 0
        return len(self.records[min(k, len(self.records)) - 1].support)


def weighted_l0(z: np.ndarray, w: np.ndarray) -> float:
    """Sum of w_j^2 over the numerical support {j : |z_j| > SUPPORT_EPSILON}."""
    z = np.asarray(z)
    w = np.asarray(w)
    mask = np.abs(z) > SUPPORT_EPSILON
    return float(np.sum(w[mask] ** 2))


def g_lambda(z: np.ndarray, system: LinearSystem, w: np.ndarray, lam: float) -> float:
    """Objective value ||y - A z||^2 + lam * weighted_l0(z)."""
    residual = system.rhs - system.matrix @ np.asarray(z, dtype=np.float64)
    value = float(residual @ residual)
    if lam > 0:
        value += lam * weighted_l0(z, w)
    return value


def delta_scores(
    support: np.ndarray, values: np.ndarray, correlations: np.ndarray, w: np.ndarray, lam: float
) -> np.ndarray:
    """Vector of greedy scores for all candidate indices at once.

    `correlations` is A^T r for the current residual r; `support` is an
    integer array of the support set and `values` the iterate on it.
    Assumes the iterate is least-squares optimal on its support and the
    columns of A have unit norm.
    """
    lw2 = lam * np.asarray(w, dtype=np.float64) ** 2
    scores = np.maximum(correlations**2 - lw2, 0.0)
    scores[support] = np.where(
        np.abs(values) > SUPPORT_EPSILON, np.maximum(lw2[support] - values**2, 0.0), 0.0
    )
    return scores


def compute_delta(
    x: np.ndarray, support, j: int, system: LinearSystem, w: np.ndarray, lam: float
) -> float:
    """Exact achievable decrease of G_lam by re-optimizing coordinate j.

    Assumes x minimizes the residual over vectors supported on `support`
    and that the system columns are unit-norm.
    """
    x = np.asarray(x, dtype=np.float64)
    support = np.asarray(list(support), dtype=np.intp)
    residual = system.rhs - system.matrix @ x
    correlations = system.matrix.T @ residual
    return float(delta_scores(support, x[support], correlations, w, lam)[j])


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


class _IncrementalQR:
    """Thin QR factorization A_S = Q R of columns appended one at a time.

    Stores Q (one row per column of Q), R^{-1} and Q^T y, so that the
    least-squares coefficients on the selected columns, in insertion order,
    are R^{-1} (Q^T y), and the least-squares residual is y - Q (Q^T y).
    """

    def __init__(self, y: np.ndarray, capacity: int):
        m = y.shape[0]
        self.y = y
        self.size = 0
        self.q = np.empty((capacity, m))
        self.r_inv = np.zeros((capacity, capacity))
        self.qty = np.empty(capacity)

    def append(self, column: np.ndarray) -> bool:
        """Append a unit-norm column; False (and no change) if it is in span."""
        k = self.size
        if k == self.q.shape[0]:  # k = m: the selected columns span R^m
            return False
        q = self.q[:k]
        # classical Gram-Schmidt with one re-orthogonalization
        h = q @ column
        v = column - h @ q
        h2 = q @ v
        v -= h2 @ q
        h += h2
        rho = float(np.linalg.norm(v))
        if rho <= SPAN_TOLERANCE:
            return False
        # R_new = [[R, h], [0, rho]]  =>  R_new^{-1} = [[R^{-1}, -R^{-1} h / rho], [0, 1 / rho]]
        self.r_inv[:k, k] = (self.r_inv[:k, :k] @ h) / -rho
        self.r_inv[k, k] = 1.0 / rho
        self.q[k] = v / rho
        self.qty[k] = self.q[k] @ self.y
        self.size = k + 1
        return True

    def coefficients(self) -> np.ndarray:
        k = self.size
        return self.r_inv[:k, :k] @ self.qty[:k]


def womp_solve(
    system: LinearSystem,
    w: np.ndarray,
    config: WompConfig,
) -> SolveTrace:
    """Run the greedy pursuit on a column-normalized system.

    Starting from the zero iterate and empty support, each iteration selects
    the score-maximizing index (smallest index wins ties), enlarges the
    support, and refits by least squares on it: through an incremental QR
    factorization of the selected columns while each new column adds a
    direction, by `restricted_least_squares` from the first column that is
    numerically in span (k >= m, or an orthogonal part below
    SPAN_TOLERANCE) on.  Stops at the iteration budget, when the best score
    is zero, when the maximizer is already in the support, or when the
    residual hits the floor.

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
    m, n = matrix.shape
    lam = config.lam
    y_norm = float(np.linalg.norm(y))

    in_support = np.zeros(n, dtype=bool)
    selected: list[int] = []  # insertion order
    support = np.zeros(0, dtype=np.intp)
    values = np.zeros(0)
    qr = _IncrementalQR(y, min(config.max_iterations, m))
    residual = y.copy()
    records: list[IterationRecord] = []
    stop_reason = STOP_MAX_ITERATIONS

    for k in range(1, config.max_iterations + 1):
        correlations = matrix.T @ residual
        scores = delta_scores(support, values, correlations, w, lam)
        j = int(np.argmax(scores))
        best = float(scores[j])
        if best <= 0.0:
            stop_reason = STOP_ZERO_DELTA
            break
        if in_support[j]:
            stop_reason = STOP_IN_SUPPORT_RESELECT
            break
        in_support[j] = True
        selected.append(j)
        support = np.sort(selected)
        if qr is not None and qr.append(matrix[:, j]):
            coefficients = qr.coefficients()
            residual = y - qr.qty[: qr.size] @ qr.q[: qr.size]
            values = coefficients[np.argsort(selected)]
        else:
            qr = None
            values = restricted_least_squares(system, support)[support]
            residual = y - matrix[:, support] @ values
        residual_norm = float(np.linalg.norm(residual))
        g_value = residual_norm**2
        if lam > 0:
            g_value += lam * weighted_l0(values, w[support])
        records.append(
            IterationRecord(
                k=k,
                selected_index=j,
                delta_value=best,
                support=tuple(support.tolist()),
                values=values,
                residual_norm=residual_norm,
                g_lambda=g_value,
                n_columns=n,
            )
        )
        if residual_norm < RESIDUAL_FLOOR * y_norm:
            stop_reason = STOP_RESIDUAL_FLOOR
            break

    return SolveTrace(n_columns=n, records=records, stop_reason=stop_reason)
