r"""Multi-index truncation sets for tensorized polynomial expansions.

A multi-index set $\Lambda \subset \mathbb{N}_0^d$ selects which tensorized
basis functions enter a truncated expansion.  The workhorse here is the
hyperbolic cross of order $s$,

$$
\Lambda = \{ j \in \mathbb{N}_0^d : \prod_{k=1}^d (j_k + 1) \le s \},
$$

whose cardinality grows only moderately with the dimension $d$, which is what
makes sparse recovery in high dimension tractable at all.

Indices are stored in a deterministic graded order: ascending total degree,
ties broken lexicographically on the entries.  Downstream code (sensing-matrix
columns, weight vectors, greedy tie-breaking) relies on this ordering being
total and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MultiIndexSet:
    """An ordered set of d-dimensional nonnegative multi-indices.

    Attributes:
        dimension: ambient dimension d (>= 1).
        indices: (N, d) integer array, one multi-index per row, in graded
            lexicographic order.
    """

    dimension: int
    indices: np.ndarray = field(repr=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if self.dimension < 1 or idx.ndim != 2 or idx.shape[1] != self.dimension:
            raise ValueError(
                f"indices must be (N, {self.dimension}), got shape {idx.shape}"
            )
        if np.any(idx < 0):
            raise ValueError("multi-index entries must be nonnegative")
        # duplicates are adjacent once the rows are sorted lexicographically
        ordered = idx[np.lexsort(idx.T[::-1])]
        if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
            raise ValueError("duplicate multi-indices")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.indices.shape[0]

    def as_tuples(self) -> list[tuple[int, ...]]:
        return [tuple(int(v) for v in row) for row in self.indices]


def graded_lex_order(indices: np.ndarray) -> np.ndarray:
    """Permutation sorting rows by total degree, then lexicographically."""
    indices = np.asarray(indices)
    d = indices.shape[1]
    keys = tuple(indices[:, k] for k in reversed(range(d)))
    return np.lexsort(keys + (indices.sum(axis=1),))


def _check_order(d: int, s: int) -> None:
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if s < 1:
        raise ValueError(f"cross order must be >= 1, got {s}")


def hyperbolic_cross_size(d: int, s: int) -> int:
    """|hyperbolic_cross(d, s)|, counted without building the set.

    A member's nonzero entries have factors j_k + 1 >= 2 whose product is at
    most s, so it has r <= log2(s) of them.  With P(r, q) the number of
    r-tuples of integers >= 2 whose product is at most q, the cross has
    sum_r C(d, r) P(r, s) members, and P(r, q) = sum_{b >= 2} P(r - 1, q // b)
    sums over the runs of b that share one quotient q // b.  (d, s) =
    (1, 10^9), (2, 10^9), (10, 1000) and (30, 100) each take well under a
    second.
    """
    _check_order(d, s)
    memo: dict[tuple[int, int], int] = {}

    def tuples(r: int, q: int) -> int:
        if q < 2**r:
            return 0
        if r <= 1:
            return 1 if r == 0 else q - 1
        if (r, q) not in memo:
            total, b = 0, 2
            while b <= q:
                quotient = q // b
                last = q // quotient  # the largest b' with q // b' == quotient
                total += (last - b + 1) * tuples(r - 1, quotient)
                b = last + 1
            memo[r, q] = total
        return memo[r, q]

    return sum(math.comb(d, r) * tuples(r, s) for r in range(min(d, s.bit_length() - 1) + 1))


def hyperbolic_cross(d: int, s: int) -> MultiIndexSet:
    """Build the hyperbolic cross of order s in dimension d.

    Enumerates exactly the indices j with prod(j_k + 1) <= s one coordinate
    at a time: a prefix whose product so far is p extends by j_k < s // p,
    so every prefix built is a member of a lower-dimensional cross and the
    full degree box (s^d points) is never materialized.

    Args:
        d: ambient dimension, >= 1.
        s: cross order, >= 1.

    Returns:
        MultiIndexSet in graded lexicographic order.

    Raises:
        ValueError: if d < 1 or s < 1.
    """
    _check_order(d, s)
    arr = np.zeros((1, 0), dtype=np.int64)
    prods = np.ones(1, dtype=np.int64)
    for _ in range(d):
        # (j+1) * prod <= s  <=>  j < s // prod
        counts = s // prods
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        j = np.arange(counts.sum()) - starts
        arr = np.column_stack([np.repeat(arr, counts, axis=0), j])
        prods = np.repeat(prods, counts) * (j + 1)
    arr = arr[graded_lex_order(arr)]
    return MultiIndexSet(dimension=d, indices=arr)
