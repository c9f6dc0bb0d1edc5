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
the residual is y - Q (Q^T y).  With lam = 0 and unit weights the scheme
reduces to classical OMP.

A maximizer j whose column is numerically in the span of the selected ones
(k = m, or an orthogonal part rho <= SPAN_TOLERANCE) stops the solve unselected,
with ``stop_reason = "in_span"``.  That can give up the whole residual:
appending j would lower ||r||^2 by (A^T r)_j^2 / rho^2, which is at most ||r||^2.

The solver returns its history as a `SolveTrace`, the selection order plus
one block of iterates, and keeps the iterate in selection order throughout.
It never evaluates G_lam itself; the oracles do, with `verification.g_lambda`
and its `verification.weighted_l0` term.

The greedy maximizer can land on an index already in the support (the
middle case above scores the *removal* of a small coefficient, which the
support-enlarging iteration cannot realize); the solver then stops with
``stop_reason = "in_support_reselect"`` since no further move can help.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import LinearSystem, at_least, check_solver_inputs

# Iterations stop once the residual is this small relative to ||y||; further
# refits would only churn floating-point noise.
RESIDUAL_FLOOR = 1e-14

# |x_j| above this counts as support, below as zero.
SUPPORT_EPSILON = 1e-12

# A unit-norm column whose part orthogonal to the selected columns is at most
# this is in their span: with it, the QR refit's error (~ cond(A_S) eps) would pass 1e-13.
SPAN_TOLERANCE = 1e-3

STOP_MAX_ITERATIONS = "max_iterations"
STOP_ZERO_DELTA = "zero_delta"
STOP_IN_SUPPORT_RESELECT = "in_support_reselect"
STOP_RESIDUAL_FLOOR = "residual_floor"
STOP_IN_SPAN = "in_span"
STOP_REASONS = (
    STOP_MAX_ITERATIONS, STOP_ZERO_DELTA, STOP_IN_SUPPORT_RESELECT, STOP_RESIDUAL_FLOOR, STOP_IN_SPAN
)


@dataclass
class WompConfig:
    """Solver knobs.

    lam: regularization strength (0 gives classical OMP behaviour).
    max_iterations: iteration budget K.
    """

    lam: float = 0.0
    max_iterations: int = 25

    def __post_init__(self):
        if not at_least(self.lam, 0, whole=False):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not at_least(self.max_iterations, 1):
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations}")
        self.max_iterations = int(self.max_iterations)


@dataclass
class SolveTrace:
    """Full history of one solver run: the columns in selection order and the
    iterate after every iteration.

    Each iteration selects one new column and a reselect stops the solve, so
    the support after k iterations is `selected[:k]`.  Row k of `values` is
    that iterate on `selected`, in selection order; row 0 is the zero start,
    and entries right of column k are zero.
    """

    n_columns: int
    selected: np.ndarray
    values: np.ndarray = field(repr=False)
    stop_reason: str

    def __len__(self) -> int:
        return self.selected.size

    @property
    def final_coefficients(self) -> np.ndarray:
        return self.coefficients_at(len(self))

    def coefficients_at(self, k) -> np.ndarray:
        """Iterate after k iterations, expanded to length n_columns: the zero
        start for k <= 0, the last iterate past a stall.  An integer array k
        gives one row per entry."""
        step = self.support_size_at(k)
        x = np.zeros(step.shape + (self.n_columns,))
        x[..., self.selected] = self.values[step]
        return x

    def support_size_at(self, k):
        """min(k, len(self)), and 0 for k <= 0; elementwise for an array k."""
        # two ufuncs rather than np.clip, whose call on a scalar costs about
        # three times as much
        return np.minimum(np.maximum(k, 0), len(self))


def delta_scores(
    support: np.ndarray, values: np.ndarray, correlations: np.ndarray, w: np.ndarray, lam: float
) -> np.ndarray:
    """Vector of greedy scores for all candidate indices at once.

    `correlations` is A^T r for the current residual r; `support` is an
    integer array of the support set, in any order, and `values` the iterate
    on it, in the same order.
    Assumes the iterate is least-squares optimal on its support and the
    columns of A have unit norm.
    """
    lw2 = lam * np.asarray(w, dtype=np.float64) ** 2
    scores = np.maximum(correlations**2 - lw2, 0.0)
    scores[support] = np.where(
        np.abs(values) > SUPPORT_EPSILON, np.maximum(lw2[support] - values**2, 0.0), 0.0
    )
    return scores


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
    support, and refits by least squares on it through an incremental QR
    factorization of the selected columns.  Stops at the iteration budget,
    when the best score is zero, when the maximizer is already in the
    support, when its column is in the span of the selected ones (see
    SPAN_TOLERANCE), or when the residual hits the floor.

    Raises:
        ValueError: from `check_solver_inputs`, on an unnormalized system or bad weights.
    """
    w = check_solver_inputs(system, w, "womp_solve")

    matrix, y = system.matrix, system.rhs
    m, n = matrix.shape
    lam = config.lam
    y_norm = float(np.linalg.norm(y))

    in_support = np.zeros(n, dtype=bool)
    selected = np.zeros(0, dtype=np.intp)
    values = np.zeros(0)  # the iterate on `selected`, in selection order
    iterates = [values]
    qr = _IncrementalQR(y, min(config.max_iterations, m))
    residual = y.copy()
    stop_reason = STOP_MAX_ITERATIONS

    for _ in range(config.max_iterations):
        correlations = matrix.T @ residual
        scores = delta_scores(selected, values, correlations, w, lam)
        j = int(np.argmax(scores))
        if scores[j] <= 0.0:
            stop_reason = STOP_ZERO_DELTA
            break
        if in_support[j]:
            stop_reason = STOP_IN_SUPPORT_RESELECT
            break
        if not qr.append(matrix[:, j]):
            stop_reason = STOP_IN_SPAN
            break
        in_support[j] = True
        selected = np.append(selected, j)
        values = qr.coefficients()
        residual = y - qr.qty[: qr.size] @ qr.q[: qr.size]
        iterates.append(values)
        if np.linalg.norm(residual) < RESIDUAL_FLOOR * y_norm:
            stop_reason = STOP_RESIDUAL_FLOOR
            break

    block = np.zeros((len(iterates), selected.size))
    for k, row in enumerate(iterates):
        block[k, :k] = row
    return SolveTrace(n_columns=n, selected=selected, values=block, stop_reason=stop_reason)
