"""Matrices of homogeneous polynomials over GF(p).

Provides generic rank over the rational function field (certified point
evaluation), the gcd of all k x k minors for two variables (the k-th
determinantal divisor, from a Smith reduction of numpy coefficient
tensors), and a sweep of projective space over growing field extensions
for common zeros of minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from cjt import exactalg
from cjt.exactalg import (
    Field,
    _check_log_tables,
    _poly_divmod,
    _poly_gcd,
    _poly_mul,
    _poly_trim,
    make_field,
    rank_array,
    stack_ranks,
)

__all__ = [
    "HomPoly",
    "PolyMatrix",
    "generic_rank",
    "bivariate_minor_gcd",
    "common_zero_search",
    "CommonZeroWitness",
    "CommonZeroNotFound",
    "projective_points",
]

class HomPoly:
    """Homogeneous polynomial: nonzero coefficients indexed by exponent
    vectors that all share one total degree.  The zero polynomial has
    degree None."""

    __slots__ = ("p", "nvars", "terms", "degree")

    def __init__(self, p: int, nvars: int, terms: dict[tuple[int, ...], int]):
        clean: dict[tuple[int, ...], int] = {}
        degree = None
        for exps, coef in terms.items():
            coef %= p
            if coef == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            d = sum(exps)
            if degree is None:
                degree = d
            elif d != degree:
                raise ValueError("terms do not share a total degree")
            clean[exps] = coef
        self.p = p
        self.nvars = nvars
        self.terms = clean
        self.degree = degree if clean else None

    @classmethod
    def zero(cls, p: int, nvars: int) -> "HomPoly":
        return cls(p, nvars, {})

    @classmethod
    def variable(cls, p: int, nvars: int, i: int) -> "HomPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(p, nvars, {tuple(exps): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "HomPoly") -> "HomPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous polynomials of different degree")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = (out.get(e, 0) + c) % self.p
        return HomPoly(self.p, self.nvars, out)

    def mul(self, other: "HomPoly") -> "HomPoly":
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = (out.get(e, 0) + c1 * c2) % self.p
        return HomPoly(self.p, self.nvars, out)

    def eval(self, field: Field, coords: Sequence[int]) -> int:
        """Value at a point with coordinates given by field element codes."""
        acc = np.int64(0)
        for exps, coef in self.terms.items():
            val = np.int64(coef % field.p)
            for x, a in zip(coords, exps):
                if a:
                    val = field.mul(val, np.int64(field.pow_scalar(int(x), a)))
            acc = field.add(acc, val)
        return int(acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomPoly)
            and (self.p, self.nvars, self.terms) == (other.p, other.nvars, other.terms)
        )

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(f"x{i+1}^{e}" if e > 1 else f"x{i+1}" for i, e in enumerate(exps) if e)
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(bits)


class PolyMatrix:
    """Matrix of homogeneous polynomials over GF(p), held as coefficient
    tensors: the matrix is sum_a x^exps[a] coef[a] for distinct exponent
    vectors exps (terms x nvars) and GF(p) coefficient matrices coef
    (terms x rows x cols).  ``entries`` gives the HomPoly grid."""

    def __init__(self, p: int, nvars: int, entries: Sequence[Sequence[HomPoly]]):
        grid = [list(row) for row in entries]
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        index: dict[tuple[int, ...], int] = {}
        cells = []
        for i, row in enumerate(grid):
            if len(row) != cols:
                raise ValueError("ragged polynomial matrix")
            for j, q in enumerate(row):
                if q.p != p or q.nvars != nvars:
                    raise ValueError("entry characteristic or variable count mismatch")
                cells += [(index.setdefault(e, len(index)), i, j, c) for e, c in q.terms.items()]
        coef = np.zeros((len(index), rows, cols), dtype=np.int64)
        a, i, j, c = np.array(cells, dtype=np.int64).reshape(-1, 4).T
        coef[a, i, j] = c
        self._store(p, np.array(list(index), dtype=np.int64).reshape(len(index), nvars), coef)
        self._entries = grid

    def _store(self, p: int, exps: np.ndarray, coef: np.ndarray) -> None:
        self.p = p
        self.nvars = exps.shape[1]
        self.exps = exps
        self.coef = coef
        self.rows, self.cols = coef.shape[1:]
        self._entries = None

    @classmethod
    def _from_tensors(cls, p: int, exps: np.ndarray, coef: np.ndarray) -> "PolyMatrix":
        m = cls.__new__(cls)
        m._store(p, exps, coef)
        return m

    @classmethod
    def zeros(cls, p: int, nvars: int, rows: int, cols: int) -> "PolyMatrix":
        return cls._from_tensors(p, np.zeros((0, nvars), dtype=np.int64), np.zeros((0, rows, cols), dtype=np.int64))

    @classmethod
    def from_coefficients(cls, p: int, exps: Sequence[Sequence[int]], stack: np.ndarray) -> "PolyMatrix":
        """The matrix sum_a x^exps[a] stack[a] from a (monomials, rows, cols)
        stack of GF(p) coefficient matrices; the exponent vectors are
        distinct, nonnegative and share one total degree."""
        exps = np.array(exps, dtype=np.int64).reshape(len(exps), -1)
        degrees = exps.sum(axis=1)
        if (exps < 0).any() or (degrees != degrees[0]).any():
            raise ValueError("exponent vectors must be nonnegative and share one total degree")
        return cls._from_tensors(p, exps, stack % p)

    @property
    def entries(self) -> list[list[HomPoly]]:
        """The entries as HomPoly objects, built on first use."""
        if self._entries is None:
            terms: list[list[dict]] = [[{} for _ in range(self.cols)] for _ in range(self.rows)]
            keys = [tuple(e) for e in self.exps.tolist()]
            a, i, j = np.nonzero(self.coef)
            for a_, i_, j_, c in zip(a.tolist(), i.tolist(), j.tolist(), self.coef[a, i, j].tolist()):
                terms[i_][j_][keys[a_]] = c
            self._entries = [[HomPoly(self.p, self.nvars, t) for t in row] for row in terms]
        return self._entries

    def degrees(self) -> np.ndarray:
        """Degree of every entry; -1 for zero entries."""
        total = self.exps.sum(axis=1)[:, None, None]
        return np.where(self.coef != 0, total, -1).max(axis=0, initial=-1)

    def evaluate(self, field: Field, coords: Sequence[int]) -> np.ndarray:
        point = np.array(coords, dtype=np.int64).reshape(1, self.nvars)
        return _evaluate_stack(field, self, point).reshape(self.rows, self.cols)


def _uniform_profile(m: PolyMatrix) -> bool:
    """True when nonzero entries share one degree per row or per column, so
    that every minor is homogeneous and dehomogenizing is rank-safe."""
    def uniform(deg):
        return bool(((deg < 0) | (deg == deg.max(axis=1, initial=-1)[:, None])).all())

    deg = m.degrees()
    return uniform(deg) or uniform(deg.T)


def _homogenized(m: PolyMatrix, top: int) -> PolyMatrix:
    """The matrix with a new first variable x0 padding every entry to the
    top degree.  Setting x0 = 1 recovers the matrix, and every minor is
    homogeneous, so the rank over the function field is unchanged."""
    pad = top - m.exps.sum(axis=1, keepdims=True)
    return PolyMatrix._from_tensors(m.p, np.concatenate([pad, m.exps], axis=1), m.coef)


def _evaluate_stack(field: Field, m: PolyMatrix, points: np.ndarray, cells=None) -> np.ndarray:
    """The matrix at each of a block of points: a (points, rows * cols)
    array of codes, or (points, len(cells)) for the given flat cells."""
    exps, coef = m.exps, m.coef.reshape(m.exps.shape[0], m.rows * m.cols)
    if cells is not None:
        coef = coef[:, cells]
    powers = []
    for j in range(exps.shape[1]):
        chain = [None, points[:, j]]
        for _ in range(1, int(exps[:, j].max(initial=0))):
            chain.append(field.mul(chain[-1], points[:, j]))
        powers.append(chain)
    monomials = np.ones((points.shape[0], exps.shape[0]), dtype=np.int64)
    for k, row in enumerate(exps.tolist()):
        val = None
        for j, d in enumerate(row):
            if d:
                val = powers[j][d] if val is None else field.mul(val, powers[j][d])
        if val is not None:
            monomials[:, k] = val
    return field.matmul(monomials, coef)


def _stacked_ranks(m: PolyMatrix, field: Field, blocks):
    """(points, ranks) of the matrix over the field, for each block of
    points cut into stacks of at most exactalg.STACK_CELLS entries."""
    per_stack = max(1, exactalg.STACK_CELLS // (m.rows * m.cols))
    for block in blocks:
        for i in range(0, block.shape[0], per_stack):
            points = block[i : i + per_stack]
            values = _evaluate_stack(field, m, points).reshape(-1, m.rows, m.cols)
            yield points, stack_ranks(field, values)


def generic_rank(m: PolyMatrix) -> int:
    """Rank over the rational function field GF(p)(x_1..x_nvars), by
    certified point evaluation.

    Let rho be the largest rank seen at the points swept so far and D the
    top entry degree.  Once p^e >= (rho + 1) D, the Frobenius-orbit
    representatives of P^(nvars-1)(GF(p^d)) are swept for every d | e, so
    every point of P^(nvars-1)(GF(q)), q = p^e, has been seen up to
    conjugacy; conjugate points have equal ranks, as the coefficients lie
    in GF(p).  A nonzero (rho + 1)-minor is a form of degree d <= q, and by
    Serre's bound such a form vanishes at no more than d q^(n-1) + q^(n-2)
    + ... + 1 of the q^n + q^(n-1) + ... + 1 points of P^n(GF(q)), n =
    nvars - 1: not at all of them.  So if no swept point has rank above
    rho, rho is the generic rank; otherwise rho grows and the sweep goes
    on.  It stops early at full rank.  Unless the degrees are uniform along
    rows or along columns, the matrix is homogenized first.
    """
    full = min(m.rows, m.cols)
    if full == 0:
        return 0
    degree = max(int(m.degrees().max()), 0)
    if m.nvars == 0 or not _uniform_profile(m):
        # P^(-1) has no points: a matrix of constants gets a variable too
        m = _homogenized(m, degree)
    best = 0
    swept: set[int] = set()
    while True:
        e = 1
        while m.p**e < (best + 1) * degree:
            e += 1
        todo = [d for d in range(1, e + 1) if e % d == 0 and d not in swept]
        if not todo:
            return best
        field = make_field(m.p, todo[0])
        for _, ranks in _stacked_ranks(m, field, _orbit_blocks(field, m.nvars)):
            best = max(best, int(ranks.max()))
            if best == full:
                return full
        swept.add(todo[0])


# ---------------------------------------------------------------------------
# gcd of all k x k minors, two variables
# ---------------------------------------------------------------------------

def _degrees(t: np.ndarray) -> np.ndarray:
    """Degree of every entry of a coefficient tensor; -1 for zero entries."""
    nz = t != 0
    return np.where(nz.any(axis=-1), t.shape[-1] - 1 - np.argmax(nz[..., ::-1], axis=-1), -1)


def _reduce_column(t: np.ndarray, p: int) -> np.ndarray:
    """Replace the entries t[1:, 0] by their remainders modulo the pivot
    t[0, 0], in place, by subtracting quotient multiples of row 0 from the
    rows below.  One long division serves the whole column: each step
    takes one quotient degree for every row at once.  Returns t, its last
    axis grown if the products need more room."""
    dp = int(_degrees(t[0, 0]))
    top = int(_degrees(t[1:, 0]).max(initial=-1))
    if top < dp:
        return t
    width = int(_degrees(t[0]).max()) + 1
    need = top - dp + width
    if need > t.shape[2]:
        t = np.concatenate([t, np.zeros(t.shape[:2] + (need - t.shape[2],), dtype=np.int64)], axis=2)
    inv = pow(int(t[0, 0, dp]), p - 2, p)
    line = t[0, :, :width]
    for s in range(top, dp - 1, -1):
        c = t[1:, 0, s] * inv % p
        if c.any():
            seg = t[1:, :, s - dp : s - dp + width]
            seg -= c[:, None, None] * line
            seg %= p
    return t


def _smith_diagonal(t: np.ndarray, p: int) -> list[tuple[int, ...]]:
    """Nonzero diagonal d_1..d_r of a Smith reduction of a matrix over
    GF(p)[u], given as an int64 coefficient tensor (rows, cols, degree +
    1), low degree first; r is the rank over GF(p)(u).

    Euclidean reduction: a nonzero entry of least degree moves to the
    corner, and its column and row are reduced modulo it until both are
    clear, which ends as the corner's degree drops every round.
    """
    t = t % p
    diagonal = []
    while min(t.shape[:2]) > 0:
        deg = _degrees(t)
        if deg.max() < 0:
            break
        t = t[..., : deg.max() + 1]
        corner = t.shape[2]
        while True:
            i, j = np.unravel_index(np.argmin(np.where(deg < 0, t.shape[2], deg)), deg.shape)
            if deg[i, j] >= corner:
                raise ArithmeticError("Smith reduction stalled: the corner degree did not drop")
            corner = deg[i, j]
            t[[0, i]] = t[[i, 0]]
            t[:, [0, j]] = t[:, [j, 0]]
            t = _reduce_column(t, p)
            t = _reduce_column(t.transpose(1, 0, 2), p).transpose(1, 0, 2)
            if not (t[1:, 0].any() or t[0, 1:].any()):
                break
            deg = _degrees(t)
        diagonal.append(_poly_trim(t[0, 0].tolist()))
        t = t[1:, 1:]
    return diagonal


def _diagonal_divisor(diagonal: list[tuple[int, ...]], k: int, p: int) -> np.ndarray:
    """Monic gcd of the k x k minors of a matrix with this nonzero Smith
    diagonal (exchanged in place); the zero polynomial (an empty array)
    when k exceeds the rank.

    The reduction's unimodular steps keep the gcd of the k-minors, so it
    is that of the diagonal: the product of the first k invariant factors,
    which (gcd, lcm) exchanges sort out of the diagonal, made monic.  For k
    = r it is the product of the whole diagonal.
    """
    if k > len(diagonal):
        return np.zeros(0, dtype=np.int64)
    if k < len(diagonal):
        for i in range(k):
            for j in range(i + 1, len(diagonal)):
                g = _poly_gcd(diagonal[i], diagonal[j], p)
                diagonal[i], diagonal[j] = g, _poly_divmod(_poly_mul(diagonal[i], diagonal[j], p), g, p)[0]
    out: tuple[int, ...] = (1,)
    for d in diagonal[:k]:
        out = _poly_mul(out, d, p)
    return np.array(out, dtype=np.int64) * pow(out[-1], p - 2, p) % p


def _determinantal_divisor(t: np.ndarray, k: int, p: int) -> np.ndarray:
    """Monic gcd of the k x k minors of a coefficient tensor; empty above the rank."""
    return _diagonal_divisor(_smith_diagonal(t, p), k, p)


def _chart_tensors(m: PolyMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient tensors (rows, cols, degree + 1) of a two-variable
    matrix on its affine charts: chart 0 sets x2 = 1 and keeps x1 as the
    variable, chart 1 sets x1 = 1 and keeps x2.  Entries are homogeneous,
    so each chart coefficient is that of exactly one term."""
    powers = np.arange(int(m.exps.sum(axis=1).max(initial=0)) + 1)
    return tuple(
        np.tensordot(m.coef, (m.exps[:, v, None] == powers).astype(np.int64), axes=(0, 0))
        for v in (0, 1)
    )


def _chart_divisor(m: PolyMatrix, k: int | None = None) -> tuple[int, np.ndarray, int]:
    """(rank, chart-0 divisor, power of x2) of a two-variable matrix with
    homogeneous minors, from one Smith reduction of its chart-0 tensor; the
    rank is the length of the nonzero diagonal.

    The gcd of the k x k minors (k defaults to the rank) is the chart-0
    divisor, homogenized, times the power of x2 dividing every k-minor.  x2
    divides them all iff they vanish at [1:0], i.e. iff the matrix there
    (the constant slice of chart 1) has rank below k; only then is chart 1
    reduced too, for the power.
    """
    chart0, chart1 = _chart_tensors(m)
    diagonal = _smith_diagonal(chart0, m.p)
    k = len(diagonal) if k is None else k
    g0 = _diagonal_divisor(diagonal, k, m.p)
    b = 0
    if g0.size and rank_array(make_field(m.p, 1), chart1[..., 0]) < k:
        b = int(np.flatnonzero(_determinantal_divisor(chart1, k, m.p))[0])
    return len(diagonal), g0, b


def bivariate_minor_gcd(m: PolyMatrix, k: int) -> HomPoly:
    """Homogeneous gcd of all k x k minors of a two-variable matrix.

    Degree 0 means the minors have no common projective zero over the
    algebraic closure.  Normalized so the leading coefficient in the first
    variable is 1.  Requires a row- or column-uniform degree profile so
    that minors stay homogeneous.
    """
    if m.nvars != 2:
        raise ValueError("bivariate_minor_gcd needs exactly two variables")
    if not _uniform_profile(m):
        raise ValueError("degree profile must be row- or column-uniform")
    if k < 1 or k > min(m.rows, m.cols):
        raise ValueError(f"minor size {k} out of range")
    _, g0, b = _chart_divisor(m, k)
    if g0.size == 0:
        return HomPoly.zero(m.p, 2)
    deg0 = g0.size - 1
    return HomPoly(m.p, 2, {(i, deg0 - i + b): int(c) for i, c in enumerate(g0) if c})


# ---------------------------------------------------------------------------
# projective point sweep
# ---------------------------------------------------------------------------

def projective_points(field: Field, nvars: int) -> Iterator[tuple[int, ...]]:
    """Normalized points of P^(nvars-1) over the field, as code tuples.

    First nonzero coordinate is 1; points come in ascending lexicographic
    order of the full coordinate tuple under the serialized element order.
    """
    ordered = [int(c) for c in field.ordered_codes()]
    for pivot in range(nvars - 1, -1, -1):
        for tail in product(ordered, repeat=nvars - 1 - pivot):
            yield (0,) * pivot + (1,) + tail


@dataclass
class CommonZeroWitness:
    coords: tuple[int, ...]
    extension: int
    field: Field


@dataclass
class CommonZeroNotFound:
    extensions_tested: list[int]


def _point_blocks(field: Field, nvars: int, chunk: int = 1 << 15):
    """Sweep-ordered normalized points in numpy blocks."""
    ordered = np.asarray(field.ordered_codes(), dtype=np.int64)
    q = field.q
    for pivot in range(nvars - 1, -1, -1):
        tail_len = nvars - 1 - pivot
        total = q**tail_len
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            idx = np.arange(start, stop, dtype=np.int64)
            block = np.zeros((stop - start, nvars), dtype=np.int64)
            block[:, pivot] = 1
            rem = idx
            for j in range(tail_len - 1, -1, -1):
                block[:, pivot + 1 + j] = ordered[rem % q]
                rem = rem // q
            yield block


def _admit_depth(p: int, nvars: int, max_e: int) -> None:
    """Refuse a sweep of levels 1..max_e in nvars coordinates before any
    level is built: level max_e needs q^nvars < 2^62, q = p^max_e, and above
    level 1 discrete-log tables within the size limit.  Both bounds grow
    with the level, so the top level admits every level below it."""
    if max_e < 1:
        raise ValueError("max_e must be >= 1")
    if max_e * nvars >= 62 or p ** (max_e * nvars) >= 1 << 62:
        raise ValueError(
            f"cannot sweep GF({p}^{max_e}) with r = {nvars}: {p}^{max_e * nvars} coordinate "
            "tuples are too many to enumerate (a sweep needs q^r < 2^62)"
        )
    if max_e > 1:
        _check_log_tables(p, max_e)


def _orbit_blocks(field: Field, nvars: int, chunk: int = 1 << 15):
    """Sweep-ordered normalized points of P^(nvars-1) defined over the field
    and over no proper subfield, one per Frobenius orbit (its first point
    in sweep order), in numpy blocks.

    Frobenius fixes 0 and 1, so it maps normalized points to normalized
    points; a matrix with coefficients in GF(p) has conjugate values, with
    equal ranks and Jordan types, at conjugate points.

    A point is kept iff each of its e - 1 proper conjugates comes strictly
    later in sweep order: one that comes earlier makes it no orbit's first
    point, one that equals it puts it over a proper subfield.  Sweep order
    is lexicographic in the coordinates' element positions, so the test
    runs coordinate by coordinate on prefixes: a conjugate that still ties
    with a prefix is decided by a later coordinate, and once none ties,
    every completion of the prefix is kept.
    """
    _admit_depth(field.p, nvars, field.e)
    if field.e == 1:
        yield from _point_blocks(field, nvars, chunk)
        return
    q = field.q
    ordered = np.asarray(field.ordered_codes(), dtype=np.int64)
    position = np.empty(q, dtype=np.int64)
    position[ordered] = np.arange(q)
    step = position[field.frobenius(ordered)]
    conj = [np.arange(q)]
    for _ in range(field.e - 1):
        conj.append(step[conj[-1]])
    # (e - 1, q): whether the j-th conjugate of position t comes later than
    # t, at t, or earlier, for j = 1 .. e - 1
    later = np.stack(conj[1:]) > conj[0]
    tie = np.stack(conj[1:]) == conj[0]
    earlier = ~(later | tie)
    for pivot in range(nvars - 1, -1, -1):
        tail = nvars - 1 - pivot
        if tail == 0:
            continue  # the point (0, ..., 0, 1) lies over GF(p)
        # the leading zeros and the 1 tie with every conjugate
        prefixes = np.zeros((1, 0), dtype=np.int64)
        tied = np.ones((1, field.e - 1), dtype=bool)
        for _ in range(tail - 1):
            ok = ~(tied[:, :, None] & earlier[None]).any(axis=1)
            rows, t = np.nonzero(ok)
            prefixes = np.concatenate([prefixes[rows], t[:, None]], axis=1)
            tied = tied[rows] & tie[:, t].T
        per = max(1, chunk // q)
        for s in range(0, prefixes.shape[0], per):
            keep = ~(tied[s : s + per, :, None] & ~later[None]).any(axis=1)
            rows, t = np.nonzero(keep)
            block = np.zeros((rows.size, nvars), dtype=np.int64)
            block[:, pivot] = 1
            block[:, pivot + 1 : -1] = ordered[prefixes[s + rows]]
            block[:, -1] = ordered[t]
            yield block


def _minor_sieve(m: PolyMatrix, field: Field, k: int, blocks):
    """The points of each block where the leading k x k minor vanishes, for
    k <= 2; at the other points the rank is at least k.  Only the minor's
    entries are evaluated.  For k > 2 the blocks pass unchanged."""
    if k > 2:
        yield from blocks
        return
    cells = [0] if k == 1 else [0, 1, m.cols, m.cols + 1]
    per_stack = exactalg.STACK_CELLS // len(cells)
    for block in blocks:
        for i in range(0, block.shape[0], per_stack):
            points = block[i : i + per_stack]
            v = _evaluate_stack(field, m, points, cells)
            minor = v[:, 0] if k == 1 else field.sub(field.mul(v[:, 0], v[:, 3]), field.mul(v[:, 1], v[:, 2]))
            if not minor.all():
                yield points[minor == 0]


def common_zero_search(
    m: PolyMatrix, k: int, max_e: int
) -> CommonZeroWitness | CommonZeroNotFound:
    """First projective point (sweep order, extensions ascending) where all
    k x k minors vanish, i.e. where the evaluated matrix has rank < k.
    Requires a row- or column-uniform degree profile, so that minors are
    homogeneous and their zeros are projective points.  Levels above 1 are
    swept one point per Frobenius orbit: the first zero of a level is the
    first point of its orbit, as the conjugates of a zero are zeros.  For
    k <= 2 only the points where the leading k x k minor vanishes are
    ranked."""
    if max_e < 1:
        raise ValueError("max_e must be >= 1")
    if k < 1 or k > min(m.rows, m.cols):
        raise ValueError(f"minor size {k} out of range")
    if not _uniform_profile(m):
        raise ValueError("degree profile must be row- or column-uniform")
    for e in range(1, max_e + 1):
        field = make_field(m.p, e)
        blocks = _minor_sieve(m, field, k, _orbit_blocks(field, m.nvars))
        for points, ranks in _stacked_ranks(m, field, blocks):
            hits = np.flatnonzero(ranks < k)
            if hits.size:
                return CommonZeroWitness(tuple(int(c) for c in points[hits[0]]), e, field)
    return CommonZeroNotFound(list(range(1, max_e + 1)))
