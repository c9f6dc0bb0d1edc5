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

`womp_path` runs several lambdas on one system in lockstep, in the one greedy
loop; a one-lambda solve is its call with a list of one.  Every running lambda
adds one column per step, so all of them are at the same k, and each is one
row of the loop's stacked arrays: its lambda and position in the caller's
list, its support in selection order, its iterates after steps 0..k on that
support, and its factorization as Q (one row per column of Q), R^{-1} and
Q^T y, with its residual.  A step is one product of the (L x m) residual block
with A, one `delta_scores` call on the (L x N) block of correlations, one
argmax per row, and one stacked Gram-Schmidt append and refit over (L, k, m)
and (L, k, k) buffers.  The stacked products (np.matvec, np.vecmat, np.vecdot)
give each row the bits a one-lambda solve computes; only the block's
correlations, a matrix-matrix product when L > 1, may differ from it in the
last bits, and they feed only the argmax.  A lambda that stops is handed its
trace and leaves every array, by one row mask, before the next product.

A maximizer j whose column is numerically in the span of the selected ones
(an orthogonal part rho <= SPAN_TOLERANCE, which every column has at k = m)
stops the solve unselected, with ``stop_reason = "in_span"``.  That can give
up the whole residual: appending j would lower ||r||^2 by (A^T r)_j^2 / rho^2,
which is at most ||r||^2.

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

import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import LinearSystem, check_solver_inputs

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
    """One lambda and an iteration budget K, unchecked: `womp_path` checks
    both.  The benchmark harness passes one to the one-lambda adapter below."""

    lam: float = 0.0
    max_iterations: int = 25


@dataclass
class SolveTrace:
    """Full history of one solver run: the columns in selection order and the
    iterate after every iteration.

    Each iteration selects one new column and a reselect stops the solve, so
    the support after k iterations is `selected[:k]`.  Row k of `values` is
    that iterate on `selected`, in selection order; row 0 is the zero start,
    and entries right of column k are zero.  `seconds` is the wall-clock time
    from the solver call's start until this solve stopped.
    """

    n_columns: int
    selected: np.ndarray
    values: np.ndarray = field(repr=False)
    stop_reason: str
    seconds: float

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
    support: np.ndarray, values: np.ndarray, correlations: np.ndarray, w: np.ndarray, lam
) -> np.ndarray:
    """Vector of greedy scores for all candidate indices at once.

    `correlations` is A^T r for the current residual r; `support` is an
    integer array of the support set, in any order, and `values` the iterate
    on it, in the same order.  2-D arguments score a block of states, one per
    row, with `lam` a scalar or one value per row; each row's scores equal
    those of the 1-D call on that row, bit for bit.
    Assumes the iterate is least-squares optimal on its support and the
    columns of A have unit norm.
    """
    support = np.asarray(support)
    w2 = np.asarray(w, dtype=np.float64) ** 2
    lam = np.asarray(lam, dtype=np.float64)[..., None]  # one row of lambda per row of scores
    scores = correlations**2
    scores -= lam * w2
    np.maximum(scores, 0.0, out=scores)
    index = support if support.ndim == 1 else (np.arange(support.shape[0])[:, None], support)
    scores[index] = np.where(
        np.abs(values) > SUPPORT_EPSILON, np.maximum(lam * w2[support] - values**2, 0.0), 0.0
    )
    return scores


def womp_path(system: LinearSystem, w: np.ndarray, lams, max_iterations: int) -> list[SolveTrace]:
    """Run the greedy pursuit for several lambdas on one column-normalized
    system, in lockstep; one `SolveTrace` per lambda, in the order given.

    Starting from the zero iterate and empty support, each iteration selects
    the score-maximizing index (smallest index wins ties), enlarges the
    support, and refits by least squares on it through an incremental QR
    factorization of the selected columns.  A lambda stops at the iteration
    budget, when its best score is zero, when its maximizer is already in its
    support, when the maximizer's column is in the span of the selected ones
    (see SPAN_TOLERANCE), or when its residual hits the floor; the first three
    are checked in that order before the append, the floor after it and ahead
    of the budget.  Each running lambda is one row of the loop's arrays (see
    the module docstring); a lambda that stops leaves them, and its trace's
    `seconds` is the time from the call's start until then, which includes
    the other lambdas' work.

    Raises:
        ValueError: as `check_solver_inputs` does (lams is its grid).
    """
    start = time.perf_counter()
    w, lams = check_solver_inputs(system, w, lams, max_iterations, "womp_path")
    max_iterations = int(max_iterations)
    matrix, y = system.matrix, system.rhs
    m, n = matrix.shape
    # a row stops in_span by k = m, so Q never needs more than m rows
    capacity = min(max_iterations, m)
    floor = RESIDUAL_FLOOR * float(np.linalg.norm(y))
    size = lams.size
    lam, position = lams, np.arange(size)
    selected = np.zeros((size, capacity), dtype=np.intp)
    iterates = np.zeros((size, capacity + 1, capacity))
    q, qty = np.empty((size, capacity, m)), np.empty((size, capacity))
    r_inv = np.zeros((size, capacity, capacity))
    residual = np.tile(y, (size, 1))
    traces = [None] * size

    def finish(stopped: np.ndarray, reasons: np.ndarray, k: int) -> np.ndarray:
        """Hand each stopped row its trace after k steps, with its entry of
        `reasons`, and drop it from every row array; the mask of the rows kept."""
        nonlocal lam, position, selected, iterates, q, qty, r_inv, residual
        seconds = time.perf_counter() - start
        for i in np.flatnonzero(stopped):
            traces[position[i]] = SolveTrace(
                n_columns=n,
                selected=selected[i, :k].copy(),
                values=iterates[i, : k + 1, :k].copy(),
                stop_reason=str(reasons[i]),
                seconds=seconds,
            )
        keep = ~stopped
        lam, position, selected, iterates, q, qty, r_inv, residual = (
            rows[keep] for rows in (lam, position, selected, iterates, q, qty, r_inv, residual)
        )
        return keep

    for k in range(max_iterations):
        scores = delta_scores(selected[:, :k], iterates[:, k, :k], residual @ matrix, w, lam)
        j = scores.argmax(axis=1)
        # classical Gram-Schmidt of each row's column a_j against its Q, with one
        # re-orthogonalization: h = Q a_j, and v orthogonal to Q with norm rho
        columns, basis = matrix[:, j].T, q[:, :k]
        h = np.matvec(basis, columns)
        v = columns - np.vecmat(h, basis)
        h2 = np.matvec(basis, v)
        v -= np.vecmat(h2, basis)
        h, rho = h + h2, np.sqrt(np.vecdot(v, v))
        zero = scores[np.arange(j.size), j] <= 0.0
        reselect = (selected[:, :k] == j[:, None]).any(axis=1)
        stopped = zero | reselect | (rho <= SPAN_TOLERANCE)
        if stopped.any():
            # the first of the three checks that holds names the stop
            reasons = np.where(
                zero, STOP_ZERO_DELTA, np.where(reselect, STOP_IN_SUPPORT_RESELECT, STOP_IN_SPAN)
            )
            keep = finish(stopped, reasons, k)
            if not keep.any():
                break
            j, h, v, rho = j[keep], h[keep], v[keep], rho[keep]
        # R_new = [[R, h], [0, rho]]  =>  R_new^{-1} = [[R^{-1}, -R^{-1} h / rho], [0, 1 / rho]]
        r_inv[:, :k, k] = np.matvec(r_inv[:, :k, :k], h) / -rho[:, None]
        r_inv[:, k, k] = 1.0 / rho
        q[:, k] = v / rho[:, None]
        qty[:, k] = np.vecdot(q[:, k], y)
        selected[:, k] = j
        iterates[:, k + 1, : k + 1] = np.matvec(r_inv[:, : k + 1, : k + 1], qty[:, : k + 1])
        residual = y - np.vecmat(qty[:, : k + 1], q[:, : k + 1])
        floored = np.sqrt(np.vecdot(residual, residual)) < floor
        last = k + 1 == max_iterations
        if last or floored.any():
            # on the last allowed step the floor names the stop ahead of the budget
            reasons = np.where(floored, STOP_RESIDUAL_FLOOR, STOP_MAX_ITERATIONS)
            if not finish(floored | last, reasons, k + 1).any():
                break
    return traces


def womp_solve(system: LinearSystem, w: np.ndarray, config: WompConfig) -> SolveTrace:
    """`womp_path` for the one lambda of `config`; its errors name `womp_path`."""
    return womp_path(system, w, [config.lam], config.max_iterations)[0]
