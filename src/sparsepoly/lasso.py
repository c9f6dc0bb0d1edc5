r"""Weighted-LASSO baseline decoder.

Solves the unconstrained weighted l1 program

    min_z  F(z) = ||A z - y||_2^2 + alpha * sum_j w_j |z_j|

by accelerated proximal gradient descent along a whole grid of alpha values.
The proximal map of the penalty is coordinate-wise soft thresholding with
threshold step * alpha * w_j.  The step size comes from one power-method
estimate of the largest squared singular value of A, made once per system.

`lasso_path` solves the grid by warm-started continuation (glmnet-style
paths, Friedman, Hastie & Tibshirani 2010): the alphas are taken from the
largest to the smallest, and each starts from the previous alpha's final
iterate, its residual A z - y and its step.  Each alpha keeps its own
iteration cap and convergence test.  Momentum is restarted in two ways: with
step halving as a safety net whenever the objective would increase, so
recorded objective values are non-increasing, and (O'Donoghue & Candes 2015)
whenever the proximal-gradient step from the momentum point runs against the
iterate's last move.  The residual of the momentum point is formed from the kept
residuals by the same extrapolation as the point itself, so an iteration
costs two matrix-vector products.
"""

from __future__ import annotations

import math
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
    change dropped below rel_tolerance.  For distinct alphas the results do
    not depend on their order: they are solved from the largest to the
    smallest.
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
    step = 1.0 / (2.0 * sigma_sq * 1.05) if sigma_sq > 0 else 1.0

    def descend(origin, origin_residual, step, alpha):
        """Proximal-gradient step from `origin`: iterate, residual, objective."""
        # 2 step A^T (A origin - y) is the gradient step
        z_new = soft_threshold(
            origin - (2.0 * step) * (origin_residual @ matrix), (step * alpha) * w
        )
        residual_new = matrix @ z_new - y
        return z_new, residual_new, float(residual_new @ residual_new) + alpha * float(
            np.abs(z_new) @ w
        )

    z = np.zeros(matrix.shape[1])
    residual = -y  # A z - y
    results: list[LassoResult] = [None] * alphas.size
    for position in np.argsort(-alphas, kind="stable"):
        alpha = float(alphas[position])
        objective = float(residual @ residual) + alpha * float(np.abs(z) @ w)
        history = [objective]
        t_momentum = 1.0
        point, point_residual = z, residual
        for iteration in range(1, max_iterations + 1):
            z_new, residual_new, objective_new = descend(point, point_residual, step, alpha)
            if objective_new > objective:
                # Momentum overshot: restart from the last accepted iterate
                # with a plain proximal step, halving the step until it descends.
                t_momentum = 1.0
                while True:
                    z_new, residual_new, objective_new = descend(z, residual, step, alpha)
                    if objective_new <= objective or step < 1e-18:
                        break
                    step *= 0.5
            delta = z_new - z
            if (point - z_new) @ delta > 0.0:
                # gradient restart: the step from the momentum point runs
                # against the iterate's move
                t_momentum = 1.0
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
            beta = (t_momentum - 1.0) / t_next
            t_momentum = t_next
            point = z_new + beta * delta
            point_residual = residual_new + beta * (residual_new - residual)

            z, residual, objective = z_new, residual_new, objective_new
            history.append(objective)
            converged = delta @ delta <= rel_tolerance**2 * max(z @ z, 1.0)
            if converged:
                break
        results[position] = LassoResult(
            coefficients=z,
            converged=bool(converged),
            n_iterations=iteration,
            objective=objective,
            objective_history=np.array(history),
        )
    return results
