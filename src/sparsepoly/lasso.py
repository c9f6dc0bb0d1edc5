r"""Weighted-LASSO baseline decoder.

Solves the unconstrained weighted l1 program

    min_z  F(z) = ||A z - y||_2^2 + alpha * sum_j w_j |z_j|

exactly, along a whole grid of alpha values, by the homotopy (LARS-lasso)
path (Osborne, Presnell & Turlach 2000; Efron et al. 2004).  In the scaled
variables u = w * z the program is the plain LASSO on A~ = A diag(1/w), whose
solution u(alpha) is piecewise linear in alpha.  With the correlations
c = 2 A~^T (y - A~ u), a point is optimal when c_j = alpha sign(u_j) on its
active set and |c_j| <= alpha off it.

The path starts from u = 0 at alpha_max = max_j |c_j(0)|.  Along a segment
the active coefficients move along d = G_AA^{-1} s_A (G = A~^T A~, s_A the
active signs): as alpha falls by gamma, u_A grows by (gamma / 2) d and the
correlations fall by gamma A~^T (A~_A d).  The path keeps G_AA^{-1} rather
than solving for d afresh: a join borders it through the Schur complement
of the new column, and a drop downdates it and closes the gap, so the active
set keeps its insertion order (and argmin its tie-breaks).  Each breakpoint
checks the inverse by the residual s_A - G_AA d, formed from the m-vector
A~_A d that the correlation update needs anyway; within
INVERSE_CHECK_TOLERANCE one correction step with the same inverse takes it
to rounding level, and past it (a nearly dependent active set) the inverse
and d are refactored from the active Gram matrix.  A breakpoint thus costs
O(k^2 + km) for k active indices, plus the one O(mN) product for the
correlations.  The segment ends at a breakpoint, where an inactive
correlation reaches +-alpha (the index joins) or an active coefficient
reaches zero (it drops).  An index dropped at a breakpoint may
not rejoin through the same bound at the next one: its correlation sits on
that bound and moves inward, and rounding can otherwise put a spurious join
there at a step of order 1e-18.  It may still cross to the opposite bound and
join there.  A column equal to +-an active one has a join ratio of 0/0 at
the bound that one sits on: a NaN, which never counts as a join.  (Where
rounding leaves both terms of that ratio slightly nonzero it is noise, and
such a copy can still join and make the active Gram matrix singular; the
path has no guard against exact copies of columns.)  Once
|A| = m the active columns span the samples and no index can join
(Tibshirani 2013), so the path ends with drops alone.  Each grid alpha is
read off the segment that contains it.  The path never evaluates F;
`verification.lasso_kkt_residual` certifies its solutions, and the tests
evaluate F with their own helpers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import LinearSystem, check_solver_inputs

# Largest entry of |s_A - G_AA d| accepted from the updated inverse; past it
# the inverse is refactored from the active Gram matrix at that breakpoint.
INVERSE_CHECK_TOLERANCE = 1e-9


@dataclass
class LassoResult:
    """The path's solutions: one row or entry per alpha, in the order given."""

    coefficients: np.ndarray = field(repr=False)  # (G, N)
    # (G,): the path reached the alpha within the breakpoint cap
    converged: np.ndarray
    # (G,): breakpoints walked to reach the alpha
    n_iterations: np.ndarray
    # (G,): perf_counter seconds from the call's start until the path
    # emitted the alpha
    seconds: np.ndarray


def default_alpha_grid(system: LinearSystem, w: np.ndarray, num: int) -> np.ndarray:
    """Log-spaced alpha grid bracketing the zero-solution threshold.

    The zero vector is optimal once alpha >= 2 max_j |(A^T y)_j| / w_j; the
    grid spans [1e-8, 1e-1] times that maximum correlation-to-weight ratio.
    A threshold of 0 (A^T y = 0, as for y = 0) raises a ValueError.
    """
    ratio = float(np.max(np.abs(system.matrix.T @ system.rhs) / np.asarray(w)))
    if ratio == 0.0:
        raise ValueError("the zero-solution threshold is 0 (A^T y = 0): no alpha grid brackets it")
    return np.geomspace(1e-8 * ratio, 1e-1 * ratio, num)


def lasso_path(
    system: LinearSystem,
    w: np.ndarray,
    alphas,
    max_iterations: int,
) -> LassoResult:
    """The exact weighted-LASSO solution at every alpha, by the homotopy path.

    Requires a column-normalized system (matching the greedy pipeline the
    baseline is compared against).  Walks at most max_iterations breakpoints
    from alpha_max down to min(alphas) and returns one result row per alpha,
    in the order given.  An alpha below the point where the cap stopped the walk
    gets that point's solution and converged=False.

    Raises:
        ValueError: as `check_solver_inputs` does (alphas is its grid), or on
            an alpha of 0, which its rule admits and the homotopy does not take.
    """
    w, alphas = check_solver_inputs(system, w, alphas, max_iterations, "lasso_path")
    if alphas.min() == 0.0:
        raise ValueError(f"lasso_path grid must be > 0: grid[{alphas.argmin()}] = 0.0")

    start = time.perf_counter()
    scaled = system.matrix / w
    m, n = scaled.shape
    correlations = 2.0 * (scaled.T @ system.rhs)
    # The active set in insertion order: its indices, its scaled columns as
    # rows, its coefficients u_A and the inverse of its Gram matrix, all in
    # the leading k entries of buffers sized for the largest possible set.
    size = min(m, n)
    active = np.empty(size, dtype=np.intp)
    rows = np.empty((size, m))
    coef = np.empty(size)
    inverse = np.empty((size, size))
    k = 0
    # row j: index j's join ratios at the +alpha and -alpha bounds; argmin
    # over this layout breaks ties by the smaller index
    ratios = np.empty((n, 2))
    alpha = float(np.max(np.abs(correlations)))
    alpha_min = float(alphas.min())
    order = np.argsort(-alphas, kind="stable")
    result = LassoResult(
        coefficients=np.zeros((alphas.size, n)),
        converged=np.zeros(alphas.size, dtype=bool),
        n_iterations=np.zeros(alphas.size, dtype=np.int64),
        seconds=np.zeros(alphas.size),
    )
    emitted = 0

    def emit(floor, d=0.0, converged=True):
        """Write the row of each pending grid alpha a >= floor: u_A + ((alpha - a) / 2) d."""
        nonlocal emitted
        now = time.perf_counter() - start
        while emitted < alphas.size and alphas[order[emitted]] >= floor:
            i = order[emitted]
            step = 0.5 * (alpha - alphas[i])
            result.coefficients[i, active[:k]] = (coef[:k] + step * d) / w[active[:k]]
            result.converged[i] = converged
            result.n_iterations[i] = breakpoints
            result.seconds[i] = now
            emitted += 1

    joining, dropped, breakpoints = int(np.argmax(np.abs(correlations))), -1, 0
    emit(alpha)
    while emitted < alphas.size:
        if breakpoints == max_iterations:
            emit(-np.inf, converged=False)
            break
        breakpoints += 1
        if joining >= 0:
            # border the inverse through the Schur complement of the new column
            column = scaled[:, joining]
            cross = rows[:k] @ column
            q = inverse[:k, :k] @ cross
            schur = column @ column - cross @ q
            q_scaled = q / schur
            inverse[:k, :k] += q_scaled[:, None] * q
            inverse[:k, k] = inverse[k, :k] = -q_scaled
            inverse[k, k] = 1.0 / schur
            rows[k], active[k], coef[k] = column, joining, 0.0
            k += 1
        on = active[:k]
        signs = np.sign(correlations[on])
        d = inverse[:k, :k] @ signs
        direction = d @ rows[:k]
        # check the updated inverse by the residual of G_AA d = s_A; one
        # correction step with it leaves d at the accuracy of a fresh solve
        residual = signs - rows[:k] @ direction
        if np.abs(residual).max() <= INVERSE_CHECK_TOLERANCE:
            d += inverse[:k, :k] @ residual
        else:
            d, inverse[:k, :k] = _refactored(rows[:k], signs)
        direction = d @ rows[:k]
        slopes = scaled.T @ direction

        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(alpha - correlations, 1.0 - slopes, out=ratios[:, 0])
            np.divide(alpha + correlations, 1.0 + slopes, out=ratios[:, 1])
            vanishing = -2.0 * coef[:k] / d
        # a 0/0 ratio is NaN: not a join
        ratios[~(ratios > 0)] = np.inf
        vanishing[~(vanishing > 0)] = np.inf
        if dropped >= 0:
            # the bound the dropped index just left
            ratios[dropped, 0 if correlations[dropped] > 0 else 1] = np.inf
        ratios[on] = np.inf
        join = int(ratios.argmin()) if k < m else 0
        join_gamma = ratios.item(join) if k < m else np.inf
        drop = int(vanishing.argmin())
        gamma = min(join_gamma, vanishing.item(drop), alpha - alpha_min)

        emit(alpha - gamma if gamma < alpha - alpha_min else alpha_min, d)
        coef[:k] += (0.5 * gamma) * d
        correlations -= gamma * slopes
        alpha -= gamma
        joining, dropped = -1, -1
        if gamma == vanishing[drop]:
            dropped = int(on[drop])
            # downdate the inverse, then close the gap, keeping the order
            q = inverse[:k, drop].copy()
            inverse[:k, :k] -= (q / q[drop])[:, None] * q
            inverse[drop : k - 1, :k] = inverse[drop + 1 : k, :k]
            inverse[: k - 1, drop : k - 1] = inverse[: k - 1, drop + 1 : k]
            rows[drop : k - 1] = rows[drop + 1 : k]
            active[drop : k - 1] = active[drop + 1 : k]
            coef[drop : k - 1] = coef[drop + 1 : k]
            k -= 1
        elif gamma == join_gamma:
            joining = join // 2
    return result


def _refactored(rows: np.ndarray, signs: np.ndarray):
    """(G^{-1} s, G^{-1}) for the Gram matrix G = rows @ rows.T, from one
    fresh factorization of G."""
    solved = np.linalg.solve(rows @ rows.T, np.column_stack((signs, np.eye(len(signs)))))
    return solved[:, 0], solved[:, 1:]
