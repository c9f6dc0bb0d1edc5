"""Sensing-system assembly and column normalization.

From m sample points and an index set of size N this builds the m x N system

    A[i, j] = phi_j(t_i) / sqrt(m),      y[i] = f(t_i) / sqrt(m),

whose least-squares/sparse solutions approximate the expansion coefficients
of f.  Greedy selection requires unit-norm columns, so the system can be
rescaled as A_tilde = A M^{-1} with M = diag(column norms); a solution x_hat
of the rescaled system is mapped back through the same diagonal, since
A (M^{-1} x_hat) = A_tilde x_hat.  A system records its frame once: its
column norms are None in the raw frame and M's diagonal once rescaled.

Everything here is real-valued and densely stored: the intended scale is
m <= a few hundred, N up to some ten thousand (300 x 12,645 doubles is 30 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .basis import evaluate_design
from .index_sets import MultiIndexSet


@dataclass(frozen=True)
class TargetFunction:
    """A real-valued function on the open cube, evaluated on point batches.

    evaluator maps an (n, d) array of points to an (n,) array of values and
    must be finite everywhere on (-1, 1)^d.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    description: str = ""

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(points, dtype=np.float64)))


@dataclass
class LinearSystem:
    """Sensing matrix, measurements, and the column-norm record.

    column_norms is None while `matrix` is in the raw frame and holds the
    diagonal of M once normalize_columns has been applied.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    column_norms: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]


def build_system(
    points: np.ndarray,
    target: TargetFunction,
    kind: str,
    index_set: MultiIndexSet,
) -> LinearSystem:
    """Assemble the 1/sqrt(m)-scaled sensing system at the given points.

    Columns follow the index-set ordering.  The returned system is in the
    raw (unnormalized) frame: its column_norms are None.

    Raises:
        ValueError: on dimension mismatch or a non-finite target value.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got shape {points.shape}")
    m = points.shape[0]
    if m < 1:
        raise ValueError("need at least one sample point")
    scale = 1.0 / np.sqrt(m)
    matrix = evaluate_design(kind, index_set, points)
    matrix *= scale
    values = target(points)
    if values.shape != (m,):
        raise ValueError(f"target returned shape {values.shape}, expected ({m},)")
    if not np.all(np.isfinite(values)):
        raise ValueError("target function is not finite at a sample point")
    return LinearSystem(matrix=matrix, rhs=values * scale)


def normalize_columns(system: LinearSystem) -> LinearSystem:
    """Rescale every column to unit l2 norm, recording the norms.

    Raises:
        ValueError: if some column norm is zero or not finite.
    """
    matrix = np.asarray(system.matrix, dtype=np.float64)
    # the same operations as np.linalg.norm(matrix, axis=0), without its
    # second matrix-sized temporary; the squares' buffer then takes the
    # normalized matrix
    squares = matrix * matrix
    norms = np.sqrt(np.add.reduce(squares, axis=0))
    if not np.all((norms > 0.0) & (norms < np.inf)):
        raise ValueError("zero or non-finite column encountered; sampling is degenerate")
    return replace(system, matrix=np.divide(matrix, norms, out=squares), column_norms=norms)


def at_least(value, bound, whole=True) -> bool:
    """value >= bound, finite, and a whole number if `whole`; NaN fails."""
    return bound <= value < math.inf and (not whole or float(value).is_integer())


def check_solver_inputs(system: LinearSystem, w, solver: str) -> np.ndarray:
    """Check a solver's inputs and return the weights as floats.

    Raises:
        ValueError: naming `solver` if the system is not normalized, or the
            first weight that is not finite and > 0 (NaN included).
    """
    if system.column_norms is None:
        raise ValueError(f"{solver} requires unit-norm columns; apply normalize_columns first")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (system.n_columns,):
        raise ValueError(f"weights must have shape ({system.n_columns},)")
    bad = np.flatnonzero(~((w > 0.0) & (w < np.inf)))
    if bad.size:
        raise ValueError(f"weights must be strictly positive and finite: w[{bad[0]}] = {w[bad[0]]}")
    return w


def denormalize_solution(system: LinearSystem, coefficients: np.ndarray) -> np.ndarray:
    """Map a solution of the normalized system back to the raw frame.

    Divides by the recorded column norms, so that
    matrix_raw @ result == matrix_normalized @ coefficients.

    Raises:
        ValueError: if the system has not been normalized.
    """
    if system.column_norms is None:
        raise ValueError("system is not normalized; nothing to denormalize")
    return np.asarray(coefficients, dtype=np.float64) / system.column_norms
