"""Sensing-system assembly and column normalization.

From m sample points and an index set of size N this builds the m x N system

    A[i, j] = phi_j(t_i) / sqrt(m),      y[i] = f(t_i) / sqrt(m),

whose least-squares/sparse solutions approximate the expansion coefficients
of f.  Greedy selection requires unit-norm columns, so the system can be
rescaled as A_tilde = A M^{-1} with M = diag(column norms); a solution x_hat
of the rescaled system is mapped back through the same diagonal, since
A (M^{-1} x_hat) = A_tilde x_hat.  A system records its frame once: its
column norms are None in the raw frame and M's diagonal once rescaled.
normalize_columns rescales the system's own matrix in place and takes the
norms in one np.einsum pass, so a trial holds one m x N array; copy the
matrix first to keep the raw frame.

Everything here is real-valued and densely stored: the intended scale is
m <= a few hundred, N up to some ten thousand (300 x 12,645 doubles is 30 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import evaluate_design
from .index_sets import MultiIndexSet


# A target maps an (n, d) array of points on the open cube (-1, 1)^d to an
# (n,) array of finite values.
Target = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class TargetFunction:
    """A target with a label, for the benchmark harness; any plain callable
    serves wherever a target is taken."""

    evaluator: Target
    description: str = ""

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluator(points)


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
    target: Target,
    kind: str,
    index_set: MultiIndexSet,
) -> LinearSystem:
    """Assemble the 1/sqrt(m)-scaled sensing system at the given points.

    Columns follow the index-set ordering.  The returned system is in the
    raw (unnormalized) frame: its column_norms are None.

    Raises:
        ValueError: if the points are not an (m, d) array for the index set's
            d (from `evaluate_design`), if m is 0, or if the target returns
            another shape or a non-finite value.
    """
    points = np.asarray(points, dtype=np.float64)
    matrix = evaluate_design(kind, index_set, points)
    m = matrix.shape[0]
    if m < 1:
        raise ValueError("need at least one sample point")
    scale = 1.0 / np.sqrt(m)
    matrix *= scale
    return LinearSystem(matrix=matrix, rhs=target_values(target, points) * scale)


def target_values(target: Target, points: np.ndarray) -> np.ndarray:
    """The target's value at each of the (m, d) points, as an (m,) array.

    Raises:
        ValueError: if the target returns another shape or a non-finite value.
    """
    values = np.asarray(target(points))
    m = points.shape[0]
    if values.shape != (m,):
        raise ValueError(f"target returned shape {values.shape}, expected ({m},)")
    if not np.all(np.isfinite(values)):
        raise ValueError("target function is not finite at a sample point")
    return values


def normalize_columns(system: LinearSystem) -> LinearSystem:
    """Rescale every column of a raw-frame system to unit l2 norm in place,
    record the norms on it, and return the same system.

    The system's own matrix is divided by its column norms, so a caller that
    needs the raw frame afterwards keeps a copy.  The sums of squares come
    from one np.einsum pass, which holds no matrix-sized temporary.  On a
    row-major matrix, such as build_system's, einsum adds the squares up in
    row order, as np.add.reduce(matrix * matrix, axis=0) does, so the norms
    have its bits.  On a Fortran-order matrix the order differs: the norms
    stay within rounding of np.linalg.norm's, but their bits are not pinned.

    Raises:
        ValueError: if the system is already normalized (its recorded norms
            would be lost), if its matrix is not a writeable float64 array,
            or if some column norm is zero or not finite (squares that
            overflow included); the matrix is left as it was.
    """
    if system.column_norms is not None:
        raise ValueError("system is already normalized; normalize_columns takes the raw frame")
    matrix = system.matrix
    writeable = isinstance(matrix, np.ndarray) and matrix.flags.writeable
    if not (writeable and matrix.dtype == np.float64):
        raise ValueError("normalize_columns rescales in place and needs a writeable float64 matrix")
    norms = np.sqrt(np.einsum("ij,ij->j", matrix, matrix))
    if not np.all((norms > 0.0) & (norms < np.inf)):
        raise ValueError("zero or non-finite column encountered; sampling is degenerate")
    np.divide(matrix, norms, out=matrix)
    system.column_norms = norms
    return system


def at_least(value, bound, whole=True) -> bool:
    """value >= bound, finite, and a whole number if `whole`; NaN fails."""
    return bound <= value < math.inf and (not whole or float(value).is_integer())


def check_solver_inputs(
    system: LinearSystem, w, grid, max_iterations, solver: str
) -> tuple[np.ndarray, np.ndarray]:
    """Check the inputs both solvers take; return the weights and the grid
    (of lambdas or alphas) as float arrays.

    Raises:
        ValueError: naming `solver` for an unnormalized system or a grid that
            is not a 1-D list of one or more values (a scalar included); naming
            the first bad entry for a weight not finite and > 0 or a grid value
            not finite and >= 0 (NaN fails both); or for a cap not an integer >= 1.
    """
    if system.column_norms is None:
        raise ValueError(f"{solver} requires unit-norm columns; apply normalize_columns first")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (system.n_columns,):
        raise ValueError(f"weights must have shape ({system.n_columns},)")
    bad = np.flatnonzero(~((w > 0.0) & (w < np.inf)))
    if bad.size:
        raise ValueError(f"weights must be strictly positive and finite: w[{bad[0]}] = {w[bad[0]]}")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{solver} needs a 1-D grid of one or more values, got shape {grid.shape}")
    bad = np.flatnonzero(~((grid >= 0.0) & (grid < np.inf)))
    if bad.size:
        raise ValueError(f"{solver} grid must be finite and >= 0: grid[{bad[0]}] = {grid[bad[0]]}")
    if not at_least(max_iterations, 1):
        raise ValueError(f"max_iterations must be an integer >= 1, got {max_iterations}")
    return w, grid


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
