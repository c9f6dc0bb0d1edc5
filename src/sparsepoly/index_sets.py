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
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if s < 1:
        raise ValueError(f"cross order must be >= 1, got {s}")

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
