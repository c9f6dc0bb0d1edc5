"""Sensing-system assembly and column normalization.

From m sample points and an index set of size N this builds the m x N system

    A[i, j] = phi_j(t_i) / sqrt(m),      y[i] = f(t_i) / sqrt(m),

whose least-squares/sparse solutions approximate the expansion coefficients
of f.  Greedy selection requires unit-norm columns, so the system can be
rescaled as A_tilde = A M^{-1} with M = diag(column norms); a solution x_hat
of the rescaled system is mapped back through the same diagonal, since
A (M^{-1} x_hat) = A_tilde x_hat.

Everything here is real-valued and densely stored: the intended scale is
m <= a few hundred, N up to some ten thousand (300 x 12,645 doubles is 30 MB).
"""

from __future__ import annotations

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

    column_norms holds the diagonal of M once normalize_columns has been
    applied (all ones before that); `normalized` flags which frame `matrix`
    is in.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    column_norms: np.ndarray = field(repr=False)
    normalized: bool = False

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
    raw (unnormalized) frame: column_norms are all 1 and `normalized` is
    False.

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
    return LinearSystem(
        matrix=matrix,
        rhs=values * scale,
        column_norms=np.ones(len(index_set)),
        normalized=False,
    )


def normalize_columns(system: LinearSystem) -> LinearSystem:
    """Rescale every column to unit l2 norm, recording the norms.

    Raises:
        ValueError: if some column is (numerically) zero.
    """
    matrix = np.asarray(system.matrix, dtype=np.float64)
    # the same operations as np.linalg.norm(matrix, axis=0), without its
    # second matrix-sized temporary; the squares' buffer then takes the
    # normalized matrix
    squares = matrix * matrix
    norms = np.sqrt(np.add.reduce(squares, axis=0))
    if np.any(norms == 0.0):
        raise ValueError("zero column encountered; sampling is degenerate")
    return replace(
        system,
        matrix=np.divide(matrix, norms, out=squares),
        column_norms=norms,
        normalized=True,
    )


def denormalize_solution(system: LinearSystem, coefficients: np.ndarray) -> np.ndarray:
    """Map a solution of the normalized system back to the raw frame.

    Divides by the recorded column norms, so that
    matrix_raw @ result == matrix_normalized @ coefficients.

    Raises:
        ValueError: if the system has not been normalized.
    """
    if not system.normalized:
        raise ValueError("system is not normalized; nothing to denormalize")
    return np.asarray(coefficients, dtype=np.float64) / system.column_norms
