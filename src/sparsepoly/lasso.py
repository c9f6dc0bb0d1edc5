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
correlations fall by gamma A~^T (A~_A d).  The segment ends at a breakpoint,
where an inactive correlation reaches +-alpha (the index joins) or an active
coefficient reaches zero (it drops).  An index dropped at a breakpoint may
not rejoin through the same bound at the next one: its correlation sits on
that bound and moves inward, and rounding can otherwise put a spurious join
there at a step of order 1e-18.  It may still cross to the opposite bound and
join there.  Once |A| = m the active columns span the samples and no index
can join (Tibshirani 2013), so the path ends with drops alone.  Each grid
alpha is read off the segment that contains it.  The path never evaluates F;
`verification.lasso_kkt_residual` certifies its solutions, and the tests
evaluate F with their own helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import LinearSystem, at_least, check_solver_inputs


@dataclass
class LassoResult:
    """The path's solutions: one row or entry per alpha, in the order given."""

    coefficients: np.ndarray = field(repr=False)  # (G, N)
    # (G,): the path reached the alpha within the breakpoint cap
    converged: np.ndarray
    # (G,): breakpoints walked to reach the alpha
    n_iterations: np.ndarray


def default_alpha_grid(system: LinearSystem, w: np.ndarray, num: int = 10) -> np.ndarray:
    """Log-spaced alpha grid bracketing the zero-solution threshold.

    The zero vector is optimal once alpha >= 2 max_j |(A^T y)_j| / w_j; the
    grid spans [1e-8, 1e-1] times that maximum correlation-to-weight ratio.
    """
    ratio = float(np.max(np.abs(system.matrix.T @ system.rhs) / np.asarray(w)))
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
    """
    w = check_solver_inputs(system, w, "lasso_path")
    alphas = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
    if not (alphas.size and np.all(alphas > 0)):
        raise ValueError(f"alphas must be one or more values > 0, got {alphas.tolist()}")
    if not at_least(max_iterations, 1):
        raise ValueError(f"max_iterations must be an integer >= 1, got {max_iterations}")

    scaled = system.matrix / w
    m, n = scaled.shape
    correlations = 2.0 * (scaled.T @ system.rhs)
    u = np.zeros(n)
    active: list[int] = []
    alpha = float(np.max(np.abs(correlations)))
    alpha_min = float(alphas.min())
    order = np.argsort(-alphas, kind="stable")
    result = LassoResult(
        coefficients=np.zeros((alphas.size, n)),
        converged=np.zeros(alphas.size, dtype=bool),
        n_iterations=np.zeros(alphas.size, dtype=np.int64),
    )
    emitted = 0

    def emit(floor, d=0.0, converged=True):
        """Write the row of each pending grid alpha a >= floor: u_A + ((alpha - a) / 2) d."""
        nonlocal emitted
        while emitted < alphas.size and alphas[order[emitted]] >= floor:
            i = order[emitted]
            step = 0.5 * (alpha - alphas[i])
            result.coefficients[i, active] = (u[active] + step * d) / w[active]
            result.converged[i] = converged
            result.n_iterations[i] = breakpoints
            emitted += 1

    joining, dropped, breakpoints = int(np.argmax(np.abs(correlations))), -1, 0
    emit(alpha)
    while emitted < alphas.size:
        if breakpoints == max_iterations:
            emit(-np.inf, converged=False)
            break
        breakpoints += 1
        if joining >= 0:
            active.append(joining)
        columns = scaled[:, active]
        d = np.linalg.solve(columns.T @ columns, np.sign(correlations[active]))
        slopes = scaled.T @ (columns @ d)

        with np.errstate(divide="ignore", invalid="ignore"):
            rising = (alpha - correlations) / (1.0 - slopes)
            falling = (alpha + correlations) / (1.0 + slopes)
            vanishing = -2.0 * u[active] / d
        if dropped >= 0:
            # the bound the dropped index just left
            if correlations[dropped] > 0:
                rising[dropped] = np.inf
            else:
                falling[dropped] = np.inf
        joins = np.minimum(
            np.where(rising > 0, rising, np.inf), np.where(falling > 0, falling, np.inf)
        )
        joins[active] = np.inf
        if len(active) == m:
            joins[:] = np.inf
        drops = np.where(vanishing > 0, vanishing, np.inf)
        join, drop = int(np.argmin(joins)), int(np.argmin(drops))
        gamma = min(joins[join], drops[drop], alpha - alpha_min)

        emit(alpha - gamma if gamma < alpha - alpha_min else alpha_min, d)
        u[active] += (0.5 * gamma) * d
        correlations -= gamma * slopes
        alpha -= gamma
        joining, dropped = -1, -1
        if gamma == drops[drop]:
            dropped = active.pop(drop)
            u[dropped] = 0.0
        elif gamma == joins[join]:
            joining = join
    return result
