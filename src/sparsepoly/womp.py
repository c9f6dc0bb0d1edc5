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

`womp_path` runs several lambdas on one system in lockstep, and `womp_solve`
is its one-lambda call, so there is one greedy loop.  Every running lambda
adds one column per step, so all of them are at the same k, and a step works
on stacked arrays: one product of the (L x m) residual block with A, one
`delta_scores` call on the (L x N) block of correlations, one argmax per row,
and one stacked Gram-Schmidt append and refit over (L, k, m) and (L, k, k)
buffers.  The stacked products (np.matvec, np.vecmat, np.vecdot) give each
row the bits a one-lambda solve computes; only the block's correlations,
a matrix-matrix product when L > 1, may differ from it in the last bits, and
they feed only the argmax.  A lambda that stops leaves the block.

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

import time
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


class _Block:
    """The lambdas still running, one row each, every row after the same k steps.

    Per row: its lambda and its position in the caller's list, the support as
    a mask and in selection order, the iterates after steps 0..k on
    `selected` (zero right of column k), and a thin QR factorization
    A_S = Q R of the selected columns in selection order.  The factorization
    is stored as Q (one row per column of Q), R^{-1} and Q^T y, so that the
    iterate is R^{-1} (Q^T y) and the residual y - Q (Q^T y).  The step's
    maximizer and its Gram-Schmidt parts are rows too, so that `keep` drops a
    stopped lambda from every array at once.
    """

    def __init__(self, lams: np.ndarray, y: np.ndarray, n: int, capacity: int):
        size, m = lams.size, y.size
        self.lam = lams
        self.position = np.arange(size)
        self.in_support = np.zeros((size, n), dtype=bool)
        self.selected = np.zeros((size, capacity), dtype=np.intp)
        self.iterates = np.zeros((size, capacity + 1, capacity))
        self.q = np.empty((size, capacity, m))
        self.r_inv = np.zeros((size, capacity, capacity))
        self.qty = np.empty((size, capacity))
        self.residual = np.tile(y, (size, 1))
        # the step's maximizer j, Q a_j, the part v of a_j orthogonal to Q, and ||v||
        self.candidate = np.zeros(size, dtype=np.intp)
        self.h = np.zeros((size, 0))
        self.v = np.zeros((size, m))
        self.rho = np.zeros(size)

    def keep(self, rows: np.ndarray) -> None:
        for name, value in vars(self).items():
            setattr(self, name, value[rows])

    def orthogonalize(self, columns: np.ndarray, k: int) -> None:
        """Each row's column against its k columns of Q: classical
        Gram-Schmidt with one re-orthogonalization."""
        q = self.q[:, :k]
        h = np.matvec(q, columns)
        v = columns - np.vecmat(h, q)
        h2 = np.matvec(q, v)
        v -= np.vecmat(h2, q)
        self.h, self.v, self.rho = h + h2, v, np.sqrt(np.vecdot(v, v))

    def append(self, k: int, y: np.ndarray) -> None:
        """Select each row's candidate, extend its factorization, and refit."""
        # R_new = [[R, h], [0, rho]]  =>  R_new^{-1} = [[R^{-1}, -R^{-1} h / rho], [0, 1 / rho]]
        rho = self.rho[:, None]
        self.r_inv[:, :k, k] = np.matvec(self.r_inv[:, :k, :k], self.h) / -rho
        self.r_inv[:, k, k] = 1.0 / self.rho
        self.q[:, k] = self.v / rho
        self.qty[:, k] = np.vecdot(self.q[:, k], y)
        self.in_support[np.arange(self.lam.size), self.candidate] = True
        self.selected[:, k] = self.candidate
        k += 1
        self.iterates[:, k, :k] = np.matvec(self.r_inv[:, :k, :k], self.qty[:, :k])
        self.residual = y - np.vecmat(self.qty[:, :k], self.q[:, :k])


def _lockstep(system: LinearSystem, w, lams: np.ndarray, max_iterations: int, solver: str):
    """The greedy loop of `womp_path`, for lambdas and a budget already checked."""
    start = time.perf_counter()
    w = check_solver_inputs(system, w, solver)
    matrix, y = system.matrix, system.rhs
    m, n = matrix.shape
    # a row stops in_span by k = m, so Q never needs more than m rows
    capacity = min(max_iterations, m)
    floor = RESIDUAL_FLOOR * float(np.linalg.norm(y))
    block = _Block(lams, y, n, capacity)
    traces = [None] * lams.size

    def finish(stopped: np.ndarray, reasons: np.ndarray, k: int) -> bool:
        """Hand each stopped row its trace after k steps, with its entry of
        `reasons`, and drop it from the block; True once the block is empty."""
        seconds = time.perf_counter() - start
        for i in np.flatnonzero(stopped):
            traces[block.position[i]] = SolveTrace(
                n_columns=n,
                selected=block.selected[i, :k].copy(),
                values=block.iterates[i, : k + 1, :k].copy(),
                stop_reason=str(reasons[i]),
                seconds=seconds,
            )
        block.keep(np.flatnonzero(~stopped))
        return block.lam.size == 0

    for k in range(max_iterations):
        scores = delta_scores(
            block.selected[:, :k], block.iterates[:, k, :k], block.residual @ matrix, w, block.lam
        )
        rows = np.arange(block.lam.size)
        block.candidate = j = scores.argmax(axis=1)
        block.orthogonalize(matrix[:, j].T, k)
        zero = scores[rows, j] <= 0.0
        reselect = block.in_support[rows, j]
        # k = m: the selected columns span R^m
        in_span = (block.rho <= SPAN_TOLERANCE) | (k == capacity)
        stopped = zero | reselect | in_span
        if stopped.any():
            # the first of the three checks that holds names the stop
            reasons = np.where(
                zero, STOP_ZERO_DELTA, np.where(reselect, STOP_IN_SUPPORT_RESELECT, STOP_IN_SPAN)
            )
            if finish(stopped, reasons, k):
                break
        block.append(k, y)
        stopped = np.sqrt(np.vecdot(block.residual, block.residual)) < floor
        if stopped.any() and finish(stopped, np.full(stopped.size, STOP_RESIDUAL_FLOOR), k + 1):
            break
    else:
        stopped = np.ones(block.lam.size, dtype=bool)
        finish(stopped, np.full(stopped.size, STOP_MAX_ITERATIONS), max_iterations)
    return traces


def womp_path(system: LinearSystem, w: np.ndarray, lams, max_iterations: int) -> list[SolveTrace]:
    """Run the greedy pursuit for several lambdas on one column-normalized
    system, in lockstep; one `SolveTrace` per lambda, in the order given.

    Each lambda's solve is the one `womp_solve` runs.  Starting from the zero
    iterate and empty support, each iteration selects the score-maximizing
    index (smallest index wins ties), enlarges the support, and refits by
    least squares on it through an incremental QR factorization of the
    selected columns.  A lambda stops at the iteration budget, when its best
    score is zero, when its maximizer is already in its support, when the
    maximizer's column is in the span of the selected ones (see
    SPAN_TOLERANCE), or when its residual hits the floor.  The lambdas still
    running share one step: one residual-block product with A, one
    `delta_scores` call and one stacked Gram-Schmidt append and refit.  A
    lambda that stops leaves the block, and its trace's `seconds` is the time
    from the call's start until then, which includes the other lambdas' work.

    Raises:
        ValueError: on an empty `lams`, a lambda or budget that `WompConfig`
            refuses, or (from `check_solver_inputs`) an unnormalized system or
            bad weights.
    """
    if len(lams) == 0:
        raise ValueError("lams must hold at least one value")
    configs = [WompConfig(lam=lam, max_iterations=max_iterations) for lam in lams]
    lams = np.array([config.lam for config in configs], dtype=np.float64)
    return _lockstep(system, w, lams, configs[0].max_iterations, "womp_path")


def womp_solve(system: LinearSystem, w: np.ndarray, config: WompConfig) -> SolveTrace:
    """`womp_path` for the one lambda of `config`.

    Raises:
        ValueError: from `check_solver_inputs`, on an unnormalized system or bad weights.
    """
    lams = np.array([config.lam], dtype=np.float64)
    return _lockstep(system, w, lams, config.max_iterations, "womp_solve")[0]
