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
        Array of shape t.shape + (max_degree + 1,).

    Raises:
        ValueError: for unknown kind, max_degree < 0 or points outside [-1, 1].
    """
    _check_kind(kind)
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.abs(t) <= 1.0):
        raise ValueError("evaluation points must lie in [-1, 1]")
    out = np.empty(t.shape + (max_degree + 1,))
    out[..., 0] = 1.0
    if max_degree >= 1:
        out[..., 1] = t
    if kind == LEGENDRE:
        # (n+1) P_{n+1} = (2n+1) t P_n - n P_{n-1}; orthonormal factor sqrt(2n+1)
        for n in range(1, max_degree):
            out[..., n + 1] = (
                (2 * n + 1) * t * out[..., n] - n * out[..., n - 1]
            ) / (n + 1)
        scale = np.sqrt(2.0 * np.arange(max_degree + 1) + 1.0)
    else:
        # T_{n+1} = 2 t T_n - T_{n-1}; orthonormal factor sqrt(2) for n >= 1
        for n in range(1, max_degree):
            out[..., n + 1] = 2.0 * t * out[..., n] - out[..., n - 1]
        scale = np.full(max_degree + 1, np.sqrt(2.0))
        scale[0] = 1.0
    return out * scale


def weights(kind: str, index_set) -> np.ndarray:
    """Weight vector aligned to the index-set ordering.

    Entries are the closed-form tensor sup norms; they are >= 1 for both
    families, with exactly 1 at the zero index.
    """
    _check_kind(kind)
    idx = np.asarray(index_set.indices, dtype=np.float64)
    if kind == LEGENDRE:
        # product of per-factor norms, in coordinate order, so the value is
        # bit-identical to |phi_j| evaluated at the corner (1, ..., 1)
        return np.multiply.reduce(np.sqrt(2.0 * idx + 1.0), axis=1)
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


# Size in doubles of the blocks `evaluate_design` assembles at a time.
_BLOCK_ELEMENTS = 1 << 16


def evaluate_design(kind: str, index_set, points: np.ndarray) -> np.ndarray:
    """Matrix [phi_j(t_i)]_{i,j} for all points and all indices in the set.

    Shares one univariate recurrence table per coordinate and multiplies in
    only the factors of nonzero degree, so the cost is O(m d s + m nnz(Lambda))
    rather than N independent tensor evaluations.  phi_0 is exactly 1.0 and
    the nonzero factors are multiplied in coordinate order, so the result is
    bit-identical to the plain product over all d factors.

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
    n_degrees = int(idx.max()) + 1
    # nonzero entries of each index in coordinate order as keys into a
    # factor table whose row k * n_degrees + j holds phi_j at coordinate k;
    # row 0 (phi_0 = 1.0) stands in for the first factor of the zero index.
    # `later[p - 1]` holds the (p+1)-th nonzero factor of every index that
    # has one, rows ascending.
    rows, coords = np.nonzero(idx)
    keys = coords * n_degrees + idx[rows, coords]
    counts = np.bincount(rows, minlength=n)
    starts = np.cumsum(counts) - counts
    rank = np.arange(rows.size) - np.repeat(starts, counts)
    first = np.zeros(n, dtype=np.intp)
    first[counts > 0] = keys[starts[counts > 0]]
    later = [(rows[rank == p], keys[rank == p]) for p in range(1, int(counts.max()))]
    # Blocks of points and of columns keep every temporary near
    # _BLOCK_ELEMENTS doubles; a design block is built transposed, so that
    # every gather and scatter moves whole table rows.
    design = np.empty((m, n))
    height = max(1, _BLOCK_ELEMENTS // (d * n_degrees))
    for top in range(0, m, height):
        chunk = points[top : top + height]
        table = np.empty((d * n_degrees, chunk.shape[0]))
        for k in range(d):
            table[k * n_degrees : (k + 1) * n_degrees] = eval_1d_table(
                kind, n_degrees - 1, chunk[:, k]
            ).T
        width = max(1, _BLOCK_ELEMENTS // chunk.shape[0])
        for lo in range(0, n, width):
            hi = min(lo + width, n)
            block = table[first[lo:hi]]
            for p_rows, p_keys in later:
                a, b = np.searchsorted(p_rows, (lo, hi))
                block[p_rows[a:b] - lo] *= table[p_keys[a:b]]
            design[top : top + chunk.shape[0], lo:hi] = block.T
    return design
