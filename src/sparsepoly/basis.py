r"""Tensorized orthonormal Legendre/Chebyshev polynomials on (-1, 1)^d.

Univariate polynomials are normalized against the *probability* measure of
each family: the uniform measure dt/2 for Legendre, the arcsine measure
$dt / (\pi \sqrt{1 - t^2})$ for Chebyshev.  Tensor polynomials are plain
products of univariate factors, so their sup norms factorize:

* Legendre:  ||phi_j||_inf = prod_k sqrt(2 j_k + 1)
* Chebyshev: ||phi_j||_inf = sqrt(2)^(number of nonzero entries of j)

Evaluation uses the classical three-term recurrences (stable on [-1, 1]);
the normalization is applied on top.  Sampling draws i.i.d. points from the
orthogonality measure, strictly inside the open cube.
"""

from __future__ import annotations

import numpy as np

LEGENDRE = "legendre"
CHEBYSHEV = "chebyshev"
BASIS_KINDS = (LEGENDRE, CHEBYSHEV)


def _check_kind(kind: str) -> str:
    if kind not in BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}, expected one of {BASIS_KINDS}")
    return kind


def eval_1d_table(kind: str, max_degree: int, t: np.ndarray) -> np.ndarray:
    """Evaluate all orthonormal polynomials of degree 0..max_degree at t.

    Args:
        kind: "legendre" or "chebyshev".
        max_degree: highest degree to evaluate, >= 0.
        t: points in [-1, 1], any shape.

    Returns:
        Degree-major array of shape (max_degree + 1,) + t.shape; row j holds
        phi_j at t.

    Raises:
        ValueError: for unknown kind, max_degree < 0 or points outside [-1, 1].
    """
    _check_kind(kind)
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.abs(t) <= 1.0):
        raise ValueError("evaluation points must lie in [-1, 1]")
    out = np.empty((max_degree + 1,) + t.shape)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = t
    if kind == LEGENDRE:
        # (n+1) P_{n+1} = (2n+1) t P_n - n P_{n-1}; orthonormal factor sqrt(2n+1)
        for n in range(1, max_degree):
            out[n + 1] = ((2 * n + 1) * t * out[n] - n * out[n - 1]) / (n + 1)
        scale = np.sqrt(2.0 * np.arange(max_degree + 1) + 1.0)
    else:
        # T_{n+1} = 2 t T_n - T_{n-1}; orthonormal factor sqrt(2) for n >= 1
        for n in range(1, max_degree):
            out[n + 1] = 2.0 * t * out[n] - out[n - 1]
        scale = np.full(max_degree + 1, np.sqrt(2.0))
        scale[0] = 1.0
    out *= scale.reshape((max_degree + 1,) + (1,) * t.ndim)
    return out


def weights(kind: str, index_set) -> np.ndarray:
    """Weight vector aligned to the index-set ordering.

    Entries are the closed-form tensor sup norms; they are >= 1 for both
    families, with exactly 1 at the zero index.
    """
    _check_kind(kind)
    idx = index_set.indices
    if kind == LEGENDRE:
        # product of per-factor norms sqrt(2 j + 1), read from a per-degree
        # table and multiplied in coordinate order, so the value is
        # bit-identical to |phi_j| evaluated at the corner (1, ..., 1)
        norms = np.sqrt(2.0 * np.arange(idx.max(initial=0) + 1) + 1.0)
        return np.multiply.reduce(norms[idx], axis=1)
    return np.sqrt(2.0) ** np.count_nonzero(idx, axis=1)


def sample_measure(kind: str, d: int, m: int, rng_seed) -> np.ndarray:
    """Draw m i.i.d. points from the orthogonality measure on (-1, 1)^d.

    Uniform per coordinate for Legendre; arcsine draws t = cos(pi * u) with
    u uniform for Chebyshev.  The stream is fully determined by rng_seed
    (an int, a SeedSequence, or a Generator).  All coordinates are strictly
    interior: the measure-zero lattice hit u = 0 is resampled.

    Returns:
        (m, d) array of sample points.
    """
    _check_kind(kind)
    if d < 1 or m < 1:
        raise ValueError("d and m must be >= 1")
    rng = np.random.default_rng(rng_seed)
    u = rng.random((m, d))
    zero = u == 0.0
    while zero.any():
        u[zero] = rng.random(int(zero.sum()))
        zero = u == 0.0
    if kind == LEGENDRE:
        return 2.0 * u - 1.0
    return np.cos(np.pi * u)


# Size in doubles of the column blocks `evaluate_design` assembles at a time.
_BLOCK_ELEMENTS = 1 << 16


def evaluate_design(kind: str, index_set, points: np.ndarray) -> np.ndarray:
    """Matrix [phi_j(t_i)]_{i,j} for all points and all indices in the set.

    One `eval_1d_table` call on points.T gives the factor table for the whole
    call; reshaped to (n_degrees * d, m), its row j * d + k holds phi_j at
    coordinate k.  Index i keys the rows of its nonzero factors in coordinate
    order, all read in one np.flatnonzero pass over the (N, d) indices, padded
    with row 0 (phi_0 = 1.0) to R, the most nonzero entries of any index (at
    most log2 s on a hyperbolic cross).  Blocks of columns,
    about _BLOCK_ELEMENTS doubles each, hold one column per row of length m,
    so that every gather moves whole table rows.  The cost is O(m d s) for
    the table plus O(m N R) products.  The table holds n_degrees * d * m
    doubles: on a hyperbolic cross of order s >= 2, which has N >= 1 +
    d (s - 1) columns, at most twice the design.  Multiplying by 1.0 changes
    no bit, so the result is bit-identical to the plain product over all d
    factors in coordinate order.

    Returns:
        C-contiguous (m, N) array.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != index_set.dimension:
        raise ValueError(
            f"points must be (m, {index_set.dimension}), got {points.shape}"
        )
    idx = index_set.indices
    m, n = points.shape[0], len(index_set)
    d = index_set.dimension
    n_degrees = int(idx.max(initial=0)) + 1
    # (N, R) keys, zero-padded; the flat positions of the nonzero entries run
    # row by row, each row in coordinate order, so a factor's rank is its
    # offset from its row's first
    at = np.flatnonzero(idx)
    rows, cols = np.divmod(at, d)
    counts = np.bincount(rows, minlength=n)
    ends = np.cumsum(counts)
    rank = np.arange(len(at)) - (ends - counts)[rows]
    keys = np.zeros((n, max(1, int(counts.max(initial=0)))), dtype=np.intp)
    keys[rows, rank] = idx.ravel()[at] * d + cols
    table = eval_1d_table(kind, n_degrees - 1, points.T).reshape(n_degrees * d, m)
    design = np.empty((m, n))
    width = max(1, _BLOCK_ELEMENTS // max(m, 1))
    for lo in range(0, n, width):
        block_keys = keys[lo : lo + width]
        block = table[block_keys[:, 0]]
        for p in range(1, keys.shape[1]):
            block *= table[block_keys[:, p]]
        design[:, lo : lo + width] = block.T
    return design


def _design_call_doubles(n_degrees: int, d: int, m: int, n: int) -> int:
    """Most 8-byte entries an `evaluate_design` call on m points holds beside
    its result: the factor table, at most 7 d N keys and two column blocks."""
    return n_degrees * d * m + 7 * d * n + 2 * max(_BLOCK_ELEMENTS, m)
