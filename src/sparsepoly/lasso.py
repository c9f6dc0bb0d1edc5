r"""Weighted-LASSO baseline decoder.

Solves the unconstrained weighted l1 program

    min_z  F(z) = ||A z - y||_2^2 + alpha * sum_j w_j |z_j|

by accelerated proximal gradient descent, for a whole grid of alpha values at
once.  The proximal map of the penalty is coordinate-wise soft thresholding
with threshold step * alpha * w_j.  The step size comes from one power-method
estimate of the largest squared singular value of A, shared by every alpha;
each alpha then keeps its own step, momentum, and convergence test.  Momentum
is restarted (with step halving as a safety net) whenever the objective would
increase, so recorded objective values are non-increasing.

`lasso_path` stacks the G iterates as the rows of a G x N block, so each
iteration costs two matrix products for the whole grid: A^T applied to the
momentum residuals and A applied to the new iterates.  The residual A z - y
of the objective is kept and the momentum residual is formed from it by the
same extrapolation as the momentum point.  A row leaves the block when it
converges or reaches the iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import LinearSystem


@dataclass
class LassoResult:
    coefficients: np.ndarray = field(repr=False)
    converged: bool
    n_iterations: int
    objective: float
    # accepted objective value after each iteration (index 0 = start)
    objective_history: np.ndarray = field(repr=False, default=None)


def weighted_l1_norm(z: np.ndarray, w: np.ndarray) -> float:
    """sum_j |z_j| w_j."""
    return float(np.sum(np.abs(np.asarray(z)) * np.asarray(w)))


def soft_threshold(v: np.ndarray, threshold) -> np.ndarray:
    """Coordinate-wise shrinkage toward zero by `threshold` (scalar or vector)."""
    v = np.asarray(v)
    return np.copysign(np.maximum(np.abs(v) - threshold, 0.0), v)


def lasso_objective(z: np.ndarray, system: LinearSystem, w: np.ndarray, alpha: float) -> float:
    residual = system.rhs - system.matrix @ np.asarray(z, dtype=np.float64)
    return float(residual @ residual) + alpha * weighted_l1_norm(z, w)


def estimate_squared_spectral_norm(matrix: np.ndarray, n_iterations: int = 20) -> float:
    """Power-method estimate of ||A||_2^2 from a deterministic start vector."""
    n = matrix.shape[1]
    v = np.ones(n) / np.sqrt(n)
    sigma_sq = 1.0
    for _ in range(n_iterations):
        u = matrix.T @ (matrix @ v)
        norm = np.linalg.norm(u)
        if norm == 0.0:
            return 0.0
        sigma_sq = norm
        v = u / norm
    return float(sigma_sq)


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
    rel_tolerance: float,
) -> list[LassoResult]:
    """Accelerated proximal gradient for the weighted LASSO at every alpha.

    Requires a column-normalized system (matching the greedy pipeline the
    baseline is compared against).  Returns one result per alpha, in the
    order given: the last iterate together with a convergence flag, which is
    False when the iteration budget ran out before the relative iterate
    change dropped below rel_tolerance.
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
    if rel_tolerance <= 0:
        raise ValueError("rel_tolerance must be > 0")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    matrix, y = system.matrix, system.rhs
    w = np.asarray(w, dtype=np.float64)

    sigma_sq = estimate_squared_spectral_norm(matrix)
    # Lipschitz constant of the gradient is 2 sigma^2; pad the estimate
    # since the power method approaches it from below.
    initial_step = 1.0 / (2.0 * sigma_sq * 1.05) if sigma_sq > 0 else 1.0

    def row_squares(block):
        return np.einsum("ij,ij->i", block, block)

    def objective_of(z, residual, alpha):
        return row_squares(residual) + alpha * (np.abs(z) @ w)

    # Row i of every block below belongs to alphas[rows[i]].
    count, n = alphas.size, matrix.shape[1]
    rows = np.arange(count)
    alpha = alphas
    step = np.full(count, initial_step)
    threshold = (step * alpha)[:, None] * w
    t_momentum = np.ones(count)
    z = np.zeros((count, n))
    residual = np.tile(-y, (count, 1))  # A z - y
    momentum_point, momentum_residual = z, residual
    objective = objective_of(z, residual, alpha)
    # objective of every alpha after each iteration; finished alphas hold
    # their last value
    latest = objective.copy()
    history = [latest.copy()]
    results: list[LassoResult] = [None] * count

    for iteration in range(1, max_iterations + 1):
        # 2 step A^T (A p - y): a proximal-gradient step from momentum point p
        descent = (2.0 * step)[:, None] * (momentum_residual @ matrix)
        z_new = soft_threshold(momentum_point - descent, threshold)
        residual_new = z_new @ matrix.T - y
        objective_new = objective_of(z_new, residual_new, alpha)

        rising = np.flatnonzero(objective_new > objective)
        if rising.size:
            # Momentum overshot: restart these rows from their last accepted
            # iterate with a plain proximal step, halving each row's step
            # until it descends.
            t_momentum[rising] = 1.0
            gradient = 2.0 * (residual[rising] @ matrix)
            while rising.size:
                trial = soft_threshold(
                    z[rising] - step[rising, None] * gradient,
                    (step[rising] * alpha[rising])[:, None] * w,
                )
                trial_residual = trial @ matrix.T - y
                trial_objective = objective_of(trial, trial_residual, alpha[rising])
                z_new[rising] = trial
                residual_new[rising] = trial_residual
                objective_new[rising] = trial_objective
                retry = (trial_objective > objective[rising]) & (step[rising] >= 1e-18)
                rising, gradient = rising[retry], gradient[retry]
                step[rising] *= 0.5
            threshold = (step * alpha)[:, None] * w

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
        beta = ((t_momentum - 1.0) / t_next)[:, None]
        t_momentum = t_next
        delta = z_new - z
        momentum_point = z_new + beta * delta
        momentum_residual = residual_new + beta * (residual_new - residual)

        z, residual, objective = z_new, residual_new, objective_new
        latest[rows] = objective
        history.append(latest.copy())

        converged = np.sqrt(row_squares(delta)) <= rel_tolerance * np.maximum(
            np.sqrt(row_squares(z)), 1.0
        )
        done = converged | (iteration == max_iterations)
        if done.any():
            for i in np.flatnonzero(done):
                results[rows[i]] = LassoResult(
                    coefficients=z[i].copy(),
                    converged=bool(converged[i]),
                    n_iterations=iteration,
                    objective=float(objective[i]),
                )
            keep = ~done
            if not keep.any():
                break
            rows, alpha, step, t_momentum = rows[keep], alpha[keep], step[keep], t_momentum[keep]
            threshold = threshold[keep]
            z, residual, objective = z[keep], residual[keep], objective[keep]
            momentum_point, momentum_residual = momentum_point[keep], momentum_residual[keep]

    history = np.array(history)
    for i, result in enumerate(results):
        result.objective_history = history[: result.n_iterations + 1, i].copy()
    return results
