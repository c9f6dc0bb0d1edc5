r"""Multi-index truncation sets for tensorized polynomial expansions.

A multi-index set $\Lambda \subset \mathbb{N}_0^d$ selects which tensorized
basis functions enter a truncated expansion.  The workhorse here is the
hyperbolic cross of order $s$,

$$
\Lambda = \{ j \in \mathbb{N}_0^d : \prod_{k=1}^d (j_k + 1) \le s \},
$$

whose cardinality grows only moderately with the dimension $d$, which is what
makes sparse recovery in high dimension tractable at all.

`MultiIndexSet` keeps its rows in the caller's order; it only checks that
they are distinct nonnegative integers.  `hyperbolic_cross` returns its
members in a deterministic graded order: ascending total degree, ties broken
lexicographically on the entries.  Downstream code (sensing-matrix columns,
weight vectors, greedy tie-breaking) relies on that order being total and
reproducible.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class MultiIndexSet:
    """An ordered set of d-dimensional nonnegative multi-indices.

    Equality and hashing go by identity: two sets are equal only when they
    are the same object.

    Attributes:
        dimension: ambient dimension d (>= 1), of any integer type.
        indices: (N, d) integer array, one multi-index per row, distinct rows
            in the order the caller gave them.

    Raises:
        TypeError: if the dimension is not an integer.
        ValueError: for a wrong shape, a fractional or negative entry, or a
            repeated row.
    """

    dimension: int
    indices: np.ndarray = field(repr=False)

    def __post_init__(self):
        dimension = operator.index(self.dimension)
        given = np.asarray(self.indices)
        with np.errstate(invalid="ignore"):  # a NaN or inf fails the check below
            idx = given.astype(np.int64, copy=False)
        if dimension < 1 or idx.ndim != 2 or idx.shape[1] != dimension:
            raise ValueError(f"indices must be (N, {dimension}), got shape {idx.shape}")
        if not np.array_equal(idx, given):
            raise ValueError("multi-index entries must be integers")
        if np.any(idx < 0):
            raise ValueError("multi-index entries must be nonnegative")
        # each row's bytes, in the narrowest type that holds every entry
        narrow = np.ascontiguousarray(idx, dtype=np.min_scalar_type(idx.max(initial=0)))
        rows = narrow.view(np.dtype((np.void, dimension * narrow.itemsize))).ravel()
        if len(set(rows.tolist())) < len(rows):
            raise ValueError("duplicate multi-indices")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.indices.shape[0]

    def as_tuples(self) -> list[tuple[int, ...]]:
        return [tuple(int(v) for v in row) for row in self.indices]


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
    second.  d and s may be of any integer type, numpy's included.
    """
    d, s = operator.index(d), operator.index(s)
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
    full degree box (s^d points) is never materialized.  A stage keeps only
    each new prefix's parent, its last entry, its product and its degree; the
    d columns are read back once at the end by walking the parents.  Parents
    extend in order and each by ascending j_k, so the members come out in
    lexicographic order, and one stable sort on degree makes it graded.  d
    and s may be of any integer type, numpy's included.

    Args:
        d: ambient dimension, >= 1.
        s: cross order, >= 1.

    Returns:
        MultiIndexSet in graded lexicographic order.

    Raises:
        TypeError: if d or s is not an integer.
        ValueError: if d < 1 or s < 1.
    """
    d, s = operator.index(d), operator.index(s)
    _check_order(d, s)
    parents, entries = [], []
    prods = np.ones(1, dtype=np.int64)
    degrees = np.zeros(1, dtype=np.int64)
    for _ in range(d):
        # (j+1) * prod <= s  <=>  j < s // prod
        counts = s // prods
        ends = np.cumsum(counts)
        parent = np.repeat(np.arange(len(counts)), counts)
        j = np.arange(ends[-1]) - (ends - counts)[parent]
        prods = prods[parent] * (j + 1)
        degrees = degrees[parent] + j
        parents.append(parent)
        entries.append(j)
    row = np.argsort(degrees, kind="stable")
    arr = np.empty((len(row), d), dtype=np.int64)
    for k in reversed(range(d)):
        arr[:, k] = entries[k][row]
        row = parents[k][row]
    return MultiIndexSet(dimension=d, indices=arr)
