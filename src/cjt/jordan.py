"""Jordan types: block-count vectors, dominance, stability, tensor formula.

A Jordan type over cap p is the multiset of Jordan block sizes (all <= p)
of a nilpotent operator, stored as counts a_1..a_p where a_i is the number
of blocks of size i.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from cjt import exactalg
from cjt.exactalg import CooMatrix, Field, _echelonize, _sparse_product, _sparse_rank, stack_ranks

__all__ = [
    "JordanType",
    "Dominance",
    "from_nilpotent",
    "dominance_compare",
    "stable",
    "tensor_type",
    "power_ranks",
    "jordan_types",
]


class Dominance(Enum):
    GREATER = "GREATER"
    EQUAL = "EQUAL"
    LESS = "LESS"
    INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True)
class JordanType:
    """Counts a_1..a_p of Jordan blocks of each size, with cap p."""

    p: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.p:
            raise ValueError(f"need exactly {self.p} counts, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise ValueError("block counts must be nonnegative")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @classmethod
    def from_blocks(cls, p: int, blocks: dict[int, int] | list[int]) -> "JordanType":
        counts = [0] * p
        if isinstance(blocks, dict):
            items = blocks.items()
        else:
            items = ((b, 1) for b in blocks)
        for size, mult in items:
            if not 1 <= size <= p:
                raise ValueError(f"block size {size} out of range [1, {p}]")
            counts[size - 1] += mult
        return cls(p, tuple(counts))

    @classmethod
    def from_power_ranks(cls, p: int, ranks: list[int]) -> "JordanType":
        """Type whose j-th power has rank ranks[j], with ranks[0] the
        dimension and ranks past the list zero.

        a_j = rank(A^(j-1)) - 2 rank(A^j) + rank(A^(j+1)); raises if the
        counts do not add up to the dimension.
        """
        ranks = list(ranks) + [0] * (p + 2 - len(ranks))
        counts = [ranks[j - 1] - 2 * ranks[j] + ranks[j + 1] for j in range(1, p + 1)]
        jt = cls(p, tuple(counts))
        if jt.dim != ranks[0]:
            raise AssertionError("second differences of ranks lost dimension")
        return jt

    @property
    def dim(self) -> int:
        return sum(i * a for i, a in enumerate(self.counts, start=1))

    def count(self, size: int) -> int:
        return self.counts[size - 1]

    def __str__(self) -> str:
        parts = [f"{a}[{i}]" for i, a in reversed(list(enumerate(self.counts, start=1))) if a]
        return " + ".join(parts) if parts else "0"

    def power_rank(self, j: int) -> int:
        """Rank of the j-th power of any nilpotent matrix with this type."""
        return sum(max(i - j, 0) * a for i, a in enumerate(self.counts, start=1))

    def __add__(self, other: "JordanType") -> "JordanType":
        if self.p != other.p:
            raise ValueError("block-size cap mismatch")
        return JordanType(self.p, tuple(a + b for a, b in zip(self.counts, other.counts)))


def power_ranks(m: CooMatrix, p: int) -> list[int]:
    """Ranks of m^0, m^1, ..., m^p; powers past the first zero one are zero.

    m comes as COO triples: ``constancy.jordan_at`` sums a point's matrix
    into them from the generators' nonzeros without any n x n array (a
    point matrix of a Heller shift holds under three nonzeros per row), and
    a dense matrix enters by ``CooMatrix.from_dense``.  Every power A^j
    starts as COO triples.  While its product with A joins at most
    exactalg.SPARSE_JOIN_PER_ROW * n pairs, that product is formed and A^j
    is ranked by ``exactalg._sparse_rank``: peeling, Schur-complement
    rounds, and a dense elimination of the small core left.  The first
    product refused hands A^j and every later power to the image chain
    im(A^(j+1)) = A im(A^j), whose bases shrink with the ranks; its n x n
    arrays are allocated only then.  A @ A is refused from the nonzero
    counts of A's rows and columns, before any codes are gathered, so a
    dense matrix goes to the image chain at once.
    """
    field, n = m.field, m.rows
    limit = exactalg.SPARSE_JOIN_PER_ROW * n
    ranks = [n]
    power = first = m.triples
    rows, cols, codes = first
    # A @ A joins every nonzero (i, k) with the nonzeros of row k
    if np.bincount(cols, minlength=n) @ np.bincount(rows, minlength=n) <= limit:
        while len(ranks) <= p and power[2].size:
            step = _sparse_product(field, power, first, n, limit)
            if step is None:
                break
            ranks.append(_sparse_rank(field, *power))
            power = step
        else:
            return ranks + [0] * (p + 1 - len(ranks))
    a = np.zeros((n, n), dtype=np.int64)
    a[rows, cols] = codes
    # the rows of work span im(A^j) transposed; the next rows are v^T A^T = (A v)^T
    work = np.zeros((n, n), dtype=np.int64)
    work[power[1], power[0]] = power[2]
    del power
    while len(ranks) <= p and work.any():
        r = len(_echelonize(field, work, n))
        ranks.append(r)
        work = field.matmul(work[:r], a.T)
    return ranks + [0] * (p + 1 - len(ranks))


def from_nilpotent(a: CooMatrix, p: int) -> JordanType:
    """Jordan type of a nilpotent matrix, given as COO triples (see
    ``CooMatrix.from_dense`` for a dense one), from the ranks of its
    powers; raises if A^p != 0."""
    ranks = power_ranks(a, p)
    if ranks[p] != 0:
        raise ValueError(f"matrix is not nilpotent of order <= {p}")
    return JordanType.from_power_ranks(p, ranks)


def jordan_types(field: Field, stack: np.ndarray, p: int) -> list[JordanType]:
    """Jordan types of a (points, n, n) stack of nilpotent matrices.

    The ranks of A^1, ..., A^(p-1) come from one ``stack_ranks`` call per
    power over every slice at once, which eliminates slices above
    exactalg.BATCH_DIM_CUTOFF one at a time; a slice leaves the stack once
    its power is zero.  Like from_nilpotent, raises ValueError when some
    A^p != 0.

    Every power is a dense stack product, so above the cutoff this is the
    slow route for sparse matrices: on the 31 level-1 points of Omega^2 k
    at p = 5, r = 3 (dim 251) it takes about 4x as long as typing each
    point by ``constancy.jordan_at``, whose powers stay COO triples while
    they are sparse.  ``level_types`` therefore types modules above the
    cutoff by ``jordan_at``.
    """
    stack = np.asarray(stack, dtype=np.int64)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("need a (points, n, n) stack of square matrices")
    count, n = stack.shape[0], stack.shape[1]
    # ranks[:, j] = rank of A^j, except that column p only marks A^p != 0
    ranks = np.zeros((count, p + 1), dtype=np.int64)
    ranks[:, 0] = n
    live, power = np.arange(count), stack
    for j in range(1, p + 1):
        if live.size == 0:
            break
        if j > 1:
            power = field.matmul(power, stack[live])
        r = stack_ranks(field, power) if j < p else power.any(axis=(1, 2))
        ranks[live, j] = r
        live, power = live[r > 0], power[r > 0]
    if ranks[:, p].any():
        raise ValueError(f"matrix is not nilpotent of order <= {p}")
    distinct, which = np.unique(ranks, axis=0, return_inverse=True)
    types = [JordanType.from_power_ranks(p, row) for row in distinct.tolist()]
    return [types[i] for i in which.ravel().tolist()]


def dominance_compare(a: JordanType, b: JordanType) -> Dominance:
    """Usual dominance order on partitions, via ranks of powers.

    a >= b iff rank of the j-th power under a is >= the one under b for
    every 1 <= j < p; types of different total dimension do not compare.
    """
    if a.p != b.p:
        raise ValueError("block-size cap mismatch")
    if a.dim != b.dim:
        raise ValueError(f"total dimensions differ: {a.dim} vs {b.dim}")
    if a.counts == b.counts:
        return Dominance.EQUAL
    ge = all(a.power_rank(j) >= b.power_rank(j) for j in range(1, a.p))
    le = all(a.power_rank(j) <= b.power_rank(j) for j in range(1, a.p))
    if ge:
        return Dominance.GREATER
    if le:
        return Dominance.LESS
    return Dominance.INCOMPARABLE


def stable(a: JordanType) -> JordanType:
    """Drop the projective part: blocks of size p are forgotten."""
    return JordanType(a.p, a.counts[:-1] + (0,))


def _tensor_blocks(i: int, j: int, p: int) -> list[tuple[int, int]]:
    """Block decomposition of [i] (x) [j] for single blocks, i <= j."""
    out = []
    if i + j <= p:
        for s in range(j - i + 1, j + i, 2):
            out.append((s, 1))
    else:
        for s in range(j - i + 1, 2 * p - i - j, 2):
            out.append((s, 1))
        out.append((p, i + j - p))
    return out


def tensor_type(a: JordanType, b: JordanType) -> JordanType:
    """Jordan type of a tensor product, by bilinear extension of the
    closed form for pairs of single blocks."""
    if a.p != b.p:
        raise ValueError("block-size cap mismatch")
    p = a.p
    counts = [0] * p
    for i, ai in enumerate(a.counts, start=1):
        if not ai:
            continue
        for j, bj in enumerate(b.counts, start=1):
            if not bj:
                continue
            lo, hi = min(i, j), max(i, j)
            for size, mult in _tensor_blocks(lo, hi, p):
                counts[size - 1] += ai * bj * mult
    out = JordanType(p, tuple(counts))
    if out.dim != a.dim * b.dim:
        raise AssertionError("tensor formula lost dimension")
    return out
