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
alpha is read off the segment that contains it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import LinearSystem


@dataclass
class LassoResult:
    coefficients: np.ndarray = field(repr=False)
    # the path reached this alpha within the breakpoint cap
    converged: bool
    # breakpoints walked to reach this alpha
    n_iterations: int


def weighted_l1_norm(z: np.ndarray, w: np.ndarray) -> float:
    """sum_j |z_j| w_j."""
    return float(np.sum(np.abs(np.asarray(z)) * np.asarray(w)))


def lasso_objective(z: np.ndarray, system: LinearSystem, w: np.ndarray, alpha: float) -> float:
    residual = system.rhs - system.matrix @ np.asarray(z, dtype=np.float64)
    return float(residual @ residual) + alpha * weighted_l1_norm(z, w)


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
) -> list[LassoResult]:
    """The exact weighted-LASSO solution at every alpha, by the homotopy path.

    Requires a column-normalized system (matching the greedy pipeline the
    baseline is compared against).  Walks at most max_iterations breakpoints
    from alpha_max down to min(alphas) and returns one result per alpha, in
    the order given.  An alpha below the point where the cap stopped the walk
    gets that point's solution and converged=False.
    """
    if not system.normalized:
        raise ValueError(
            "lasso_path requires unit-norm columns; apply normalize_columns first"
        )
    alphas = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
    if alphas.size == 0:
        raise ValueError("at least one alpha is required")
    if np.any(alphas <= 0):
        raise ValueError("alpha must be > 0")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (system.n_columns,):
        raise ValueError(f"weights must have shape ({system.n_columns},)")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")

    scaled = system.matrix / w
    m, n = scaled.shape
    correlations = 2.0 * (scaled.T @ system.rhs)
    u = np.zeros(n)
    active: list[int] = []
    alpha = float(np.max(np.abs(correlations)))
    alpha_min = float(alphas.min())
    order = np.argsort(-alphas, kind="stable")
    results: list[LassoResult] = [None] * alphas.size
    emitted = 0

    def emit(floor, d=0.0, converged=True):
        """Record each pending grid alpha a >= floor as u_A + ((alpha - a) / 2) d."""
        nonlocal emitted
        while emitted < alphas.size and alphas[order[emitted]] >= floor:
            z = np.zeros(n)
            z[active] = (u[active] + (0.5 * (alpha - alphas[order[emitted]])) * d) / w[active]
            results[order[emitted]] = LassoResult(
                coefficients=z,
                converged=converged,
                n_iterations=breakpoints,
            )
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
    return results
