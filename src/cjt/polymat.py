"""Matrices of homogeneous polynomials over GF(p).

Provides generic rank over the rational function field (certified point
evaluation), the gcd of all k x k minors for two variables (the k-th
determinantal divisor, assembled from both affine charts), and a sweep of
projective space over growing field extensions for common zeros of minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Sequence

import numpy as np

from cjt.exactalg import STACK_CELLS, Field, make_field, stack_ranks

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

# full minor enumeration is attempted below this count; beyond it the
# determinantal divisor comes from the Smith form instead
_MINOR_SCAN_CAP = 2000


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
    def monomial(cls, p: int, nvars: int, exps: Sequence[int], coef: int = 1) -> "HomPoly":
        return cls(p, nvars, {tuple(exps): coef})

    @classmethod
    def variable(cls, p: int, nvars: int, i: int) -> "HomPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(p, nvars, {tuple(exps): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return self.degree == 0 or self.is_zero

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

    def scale(self, c: int) -> "HomPoly":
        return HomPoly(self.p, self.nvars, {e: v * c for e, v in self.terms.items()})

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

    def __hash__(self):  # pragma: no cover
        raise TypeError("HomPoly is not hashable")

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
    """Grid of HomPoly entries sharing characteristic and variable count."""

    def __init__(self, p: int, nvars: int, entries: Sequence[Sequence[HomPoly]]):
        self.p = p
        self.nvars = nvars
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged polynomial matrix")
            for q in row:
                if q.p != p or q.nvars != nvars:
                    raise ValueError("entry characteristic or variable count mismatch")

    @classmethod
    def zeros(cls, p: int, nvars: int, rows: int, cols: int) -> "PolyMatrix":
        z = HomPoly.zero(p, nvars)
        return cls(p, nvars, [[z] * cols for _ in range(rows)])

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = HomPoly.zero(self.p, self.nvars)
                for k in range(self.cols):
                    a, b = self.entries[i][k], other.entries[k][j]
                    if not (a.is_zero or b.is_zero):
                        acc = acc.add(a.mul(b))
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.p, self.nvars, out)

    def evaluate(self, field: Field, coords: Sequence[int]) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.int64)
        for i in range(self.rows):
            for j in range(self.cols):
                q = self.entries[i][j]
                if not q.is_zero:
                    out[i, j] = q.eval(field, coords)
        return out


# ---------------------------------------------------------------------------
# univariate helpers (numpy coefficient arrays, low degree first)
# ---------------------------------------------------------------------------

def _u_trim(a: np.ndarray) -> np.ndarray:
    nz = np.nonzero(a)[0]
    if nz.size == 0:
        return np.zeros(0, dtype=np.int64)
    return a[: nz[-1] + 1]

def _u_is_zero(a: np.ndarray) -> bool:
    return a.size == 0

def _u_deg(a: np.ndarray) -> int:
    return a.size - 1

def _u_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if _u_is_zero(a) or _u_is_zero(b):
        return np.zeros(0, dtype=np.int64)
    return np.convolve(a, b) % p

def _u_sub(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    n = max(a.size, b.size)
    out = np.zeros(n, dtype=np.int64)
    out[: a.size] = a
    out[: b.size] = (out[: b.size] - b) % p
    return _u_trim(out)

def _u_divmod(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    if _u_is_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    r = a.copy() % p
    db = _u_deg(b)
    inv_lead = pow(int(b[-1]), p - 2, p)
    if _u_deg(r) < db:
        return np.zeros(0, dtype=np.int64), _u_trim(r)
    quo = np.zeros(_u_deg(r) - db + 1, dtype=np.int64)
    for k in range(quo.size - 1, -1, -1):
        top = r[k + db] % p
        if top:
            q = (top * inv_lead) % p
            quo[k] = q
            r[k : k + db + 1] = (r[k : k + db + 1] - q * b) % p
    return quo, _u_trim(r)

def _u_div_exact(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    quo, rem = _u_divmod(a, b, p)
    if not _u_is_zero(rem):
        raise ArithmeticError("inexact polynomial division in fraction-free step")
    return quo

def _u_monic(a: np.ndarray, p: int) -> np.ndarray:
    if _u_is_zero(a):
        return a
    return (a * pow(int(a[-1]), p - 2, p)) % p

def _u_gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    a, b = _u_trim(a % p), _u_trim(b % p)
    while not _u_is_zero(b):
        _, r = _u_divmod(a, b, p)
        a, b = b, r
    return _u_monic(a, p)

def _u_valuation(a: np.ndarray) -> int:
    """Order of vanishing at 0 (degree of the poly for the zero input)."""
    nz = np.nonzero(a)[0]
    return int(nz[0]) if nz.size else 0


def _dehomogenize(q: HomPoly, chart: int) -> np.ndarray:
    """One- or two-variable HomPoly as a univariate array: chart 0 keeps x1
    as the variable (setting x2 = 1), chart 1 the other way round."""
    if q.is_zero:
        return np.zeros(0, dtype=np.int64)
    out = np.zeros(q.degree + 1, dtype=np.int64)
    for exps, c in q.terms.items():
        if len(exps) == 1:
            out[exps[0] if chart == 0 else q.degree - exps[0]] = c
        else:
            out[exps[chart]] = c
    return _u_trim(out)


def _uni_matrix(m: PolyMatrix, chart: int) -> list[list[np.ndarray]]:
    return [[_dehomogenize(q, chart) for q in row] for row in m.entries]


def _uniform_profile(m: PolyMatrix) -> bool:
    """True when nonzero entries share one degree per row or per column, so
    that every minor is homogeneous and dehomogenizing is rank-safe."""
    def uniform(axis_entries):
        for group in axis_entries:
            degs = {q.degree for q in group} - {None}
            if len(degs) > 1:
                return False
        return True

    rowwise = uniform(m.entries)
    colwise = uniform([[m.entries[i][j] for i in range(m.rows)] for j in range(m.cols)])
    return rowwise or colwise


def _homogenized(m: PolyMatrix, top: int) -> PolyMatrix:
    """The matrix with a new first variable x0 padding every entry to the
    top degree.  Setting x0 = 1 recovers the matrix, and every minor is
    homogeneous, so the rank over the function field is unchanged."""
    nvars = m.nvars + 1
    return PolyMatrix(m.p, nvars, [
        [HomPoly(m.p, nvars, {(top - q.degree,) + e: c for e, c in q.terms.items()}) for q in row]
        for row in m.entries
    ])


def _coefficient_form(m: PolyMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Exponent vectors (terms x nvars) and GF(p) coefficients (terms x
    rows*cols) of the distinct monomials of the entries."""
    index: dict[tuple[int, ...], int] = {}
    terms, cells, coefs = [], [], []
    for i, row in enumerate(m.entries):
        for j, q in enumerate(row):
            for exps, c in q.terms.items():
                terms.append(index.setdefault(exps, len(index)))
                cells.append(i * m.cols + j)
                coefs.append(c)
    coef = np.zeros((len(index), m.rows * m.cols), dtype=np.int64)
    coef[terms, cells] = coefs
    return np.array(list(index), dtype=np.int64).reshape(len(index), m.nvars), coef


def _evaluate_stack(field: Field, form: tuple[np.ndarray, np.ndarray], points: np.ndarray) -> np.ndarray:
    """The matrix, given by its coefficient form, at each of a block of
    points: a (points, rows * cols) array of codes."""
    exps, coef = form
    powers = []
    for j in range(exps.shape[1]):
        chain = [np.ones(points.shape[0], dtype=np.int64)]
        for _ in range(int(exps[:, j].max(initial=0))):
            chain.append(field.mul(chain[-1], points[:, j]))
        powers.append(chain)
    monomials = np.empty((points.shape[0], exps.shape[0]), dtype=np.int64)
    for k, row in enumerate(exps.tolist()):
        val = powers[0][row[0]]
        for j in range(1, len(row)):
            if row[j]:
                val = field.mul(val, powers[j][row[j]])
        monomials[:, k] = val
    return field.matmul(monomials, coef)


def _stacked_ranks(m: PolyMatrix, form, field: Field, blocks):
    """(points, ranks) of the matrix over the field, for each block of
    points cut into stacks of at most STACK_CELLS entries."""
    per_stack = max(1, STACK_CELLS // (m.rows * m.cols))
    for block in blocks:
        for i in range(0, block.shape[0], per_stack):
            points = block[i : i + per_stack]
            values = _evaluate_stack(field, form, points).reshape(-1, m.rows, m.cols)
            yield points, stack_ranks(field, values)


def generic_rank(m: PolyMatrix) -> int:
    """Rank over the rational function field GF(p)(x_1..x_nvars), by
    certified point evaluation.

    Let rho be the largest rank seen at the points swept so far and D the
    top entry degree.  Once p^e > (rho + 1) D, the Frobenius-orbit
    representatives of P^(nvars-1)(GF(p^d)) are swept for every d | e.  A
    nonzero (rho + 1)-minor is homogeneous of degree below p^e, so on the
    chart x_1 = 1 it is a polynomial of degree below p^e in each variable
    and does not vanish on all of GF(p^e)^(nvars-1); conjugate points have
    equal ranks, as the coefficients lie in GF(p).  So if no swept point
    has rank above rho, rho is the generic rank; otherwise rho grows and the
    sweep goes on.  It stops early at full rank.  Unless the degrees are
    uniform along rows or along columns, the matrix is homogenized first.
    """
    full = min(m.rows, m.cols)
    if full == 0:
        return 0
    degree = max((q.degree for row in m.entries for q in row if not q.is_zero), default=0)
    if m.nvars == 0 or not _uniform_profile(m):
        # P^(-1) has no points: a matrix of constants gets a variable too
        m = _homogenized(m, degree)
    form = _coefficient_form(m)
    best = 0
    swept: set[int] = set()
    while True:
        e = 1
        while m.p**e <= (best + 1) * degree:
            e += 1
        todo = [d for d in range(1, e + 1) if e % d == 0 and d not in swept]
        if not todo:
            return best
        field = make_field(m.p, todo[0])
        for _, ranks in _stacked_ranks(m, form, field, _orbit_blocks(field, m.nvars)):
            best = max(best, int(ranks.max()))
            if best == full:
                return full
        swept.add(todo[0])


# ---------------------------------------------------------------------------
# gcd of all k x k minors, two variables
# ---------------------------------------------------------------------------

def _uni_minor_det(mat: list[list[np.ndarray]], rows: tuple[int, ...], cols: tuple[int, ...], p: int) -> np.ndarray:
    """Determinant of a square submatrix by fraction-free elimination."""
    k = len(rows)
    sub = [[mat[i][j].copy() for j in cols] for i in rows]
    prev = np.ones(1, dtype=np.int64)
    sign = 1
    for t in range(k):
        piv_row = next((i for i in range(t, k) if not _u_is_zero(sub[i][t])), None)
        if piv_row is None:
            return np.zeros(0, dtype=np.int64)
        if piv_row != t:
            sub[t], sub[piv_row] = sub[piv_row], sub[t]
            sign = -sign
        piv = sub[t][t]
        for i in range(t + 1, k):
            head = sub[i][t]
            for j in range(t + 1, k):
                num = _u_sub(_u_mul(piv, sub[i][j], p), _u_mul(head, sub[t][j], p), p)
                sub[i][j] = _u_div_exact(num, prev, p) if (prev.size > 1 or prev[0] != 1) else num
            sub[i][t] = np.zeros(0, dtype=np.int64)
        prev = piv
    det = sub[k - 1][k - 1]
    if sign < 0:
        det = (-det) % p
    return _u_trim(det)


def _smith_determinantal_divisor(mat: list[list[np.ndarray]], k: int, p: int) -> np.ndarray:
    """Product of the first k invariant factors of a univariate polynomial
    matrix (the gcd of its k x k minors), by Smith reduction."""
    m = [[e.copy() for e in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    invariants: list[np.ndarray] = []
    top = 0
    while top < min(rows, cols):
        # locate a nonzero entry of minimal degree
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if not _u_is_zero(m[i][j]):
                    if best is None or _u_deg(m[i][j]) < _u_deg(m[best[0]][best[1]]):
                        best = (i, j)
        if best is None:
            break
        while True:
            bi, bj = best
            if bi != top:
                m[top], m[bi] = m[bi], m[top]
            if bj != top:
                for row in m:
                    row[top], row[bj] = row[bj], row[top]
            piv = m[top][top]
            dirty = False
            for i in range(top + 1, rows):
                if _u_is_zero(m[i][top]):
                    continue
                q, _ = _u_divmod(m[i][top], piv, p)
                if not _u_is_zero(q):
                    for j in range(top, cols):
                        m[i][j] = _u_sub(m[i][j], _u_mul(q, m[top][j], p), p)
                if not _u_is_zero(m[i][top]):
                    dirty = True
            for j in range(top + 1, cols):
                if _u_is_zero(m[top][j]):
                    continue
                q, _ = _u_divmod(m[top][j], piv, p)
                if not _u_is_zero(q):
                    for i in range(top, rows):
                        m[i][j] = _u_sub(m[i][j], _u_mul(q, m[i][top], p), p)
                if not _u_is_zero(m[top][j]):
                    dirty = True
            if dirty:
                best = None
                for i in range(top, rows):
                    for j in range(top, cols):
                        if not _u_is_zero(m[i][j]):
                            if best is None or _u_deg(m[i][j]) < _u_deg(m[best[0]][best[1]]):
                                best = (i, j)
                continue
            # pivot must divide every remaining entry for true invariant factors
            offender = None
            for i in range(top + 1, rows):
                for j in range(top + 1, cols):
                    if not _u_is_zero(m[i][j]):
                        _, rem = _u_divmod(m[i][j], piv, p)
                        if not _u_is_zero(rem):
                            offender = i
                            break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(top, cols):
                m[top][j] = _u_sub(m[top][j], (-m[offender][j]) % p, p)
            best = (top, top)
        invariants.append(_u_monic(m[top][top], p))
        top += 1
    if k > len(invariants):
        return np.zeros(0, dtype=np.int64)
    out = np.ones(1, dtype=np.int64)
    for a in invariants[:k]:
        out = _u_mul(out, a, p)
    return _u_monic(out, p)


def _minor_gcd_uni(mat: list[list[np.ndarray]], k: int, p: int) -> np.ndarray:
    """gcd of all k x k minors of a univariate matrix; scans minors in
    row-combination lexicographic order with early exit, falling back to
    the Smith form when the enumeration is too large."""
    rows, cols = len(mat), len(mat[0]) if mat else 0
    if k > min(rows, cols):
        return np.zeros(0, dtype=np.int64)
    from math import comb

    n_minors = comb(rows, k) * comb(cols, k)
    if n_minors <= _MINOR_SCAN_CAP:
        g = np.zeros(0, dtype=np.int64)
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                det = _uni_minor_det(mat, rsel, csel, p)
                g = _u_gcd(g, det, p)
                if (not _u_is_zero(g)) and _u_deg(g) == 0:
                    return g
        return g
    return _smith_determinantal_divisor(mat, k, p)


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
    p = m.p
    g0 = _minor_gcd_uni(_uni_matrix(m, 0), k, p)
    if _u_is_zero(g0):
        return HomPoly.zero(p, 2)
    g1 = _minor_gcd_uni(_uni_matrix(m, 1), k, p)
    b = _u_valuation(g1)
    terms = {}
    deg0 = _u_deg(g0)
    for i, c in enumerate(g0):
        if c:
            terms[(i, deg0 - i + b)] = int(c)
    return HomPoly(p, 2, terms)


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


def _orbit_blocks(field: Field, nvars: int):
    """Sweep-ordered normalized points of P^(nvars-1) defined over the field
    and over no proper subfield, one per Frobenius orbit (its first point
    in sweep order), in numpy blocks.

    Frobenius fixes 0 and 1, so it maps normalized points to normalized
    points; a matrix with coefficients in GF(p) has conjugate values, with
    equal ranks and Jordan types, at conjugate points.
    """
    if field.e == 1:
        yield from _point_blocks(field, nvars)
        return
    if nvars * np.log2(float(field.q)) >= 62:
        raise ValueError(
            f"cannot sweep GF({field.p}^{field.e}) with r = {nvars}: {field.q}^{nvars} coordinate "
            "tuples are too many to enumerate (point keys need q^r < 2^62)"
        )
    order_index = np.zeros(field.q, dtype=np.int64)
    order_index[field.ordered_codes()] = np.arange(field.q)
    weights = field.q ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
    divisors = [d for d in range(1, field.e) if field.e % d == 0]
    for block in _point_blocks(field, nvars):
        keep = np.ones(block.shape[0], dtype=bool)
        for d in divisors:
            x = block
            for _ in range(d):
                x = field.frobenius(x)
            keep &= ~np.all(x == block, axis=1)
        base_key = order_index[block] @ weights
        x = block
        for _ in range(field.e - 1):
            x = field.frobenius(x)
            keep &= order_index[x] @ weights >= base_key
        if keep.any():
            yield block[keep]


def common_zero_search(
    m: PolyMatrix, k: int, max_e: int
) -> CommonZeroWitness | CommonZeroNotFound:
    """First projective point (sweep order, extensions ascending) where all
    k x k minors vanish, i.e. where the evaluated matrix has rank < k.
    Requires a row- or column-uniform degree profile, so that minors are
    homogeneous and their zeros are projective points."""
    if max_e < 1:
        raise ValueError("max_e must be >= 1")
    if k < 1 or k > min(m.rows, m.cols):
        raise ValueError(f"minor size {k} out of range")
    if not _uniform_profile(m):
        raise ValueError("degree profile must be row- or column-uniform")
    form = _coefficient_form(m)
    for e in range(1, max_e + 1):
        field = make_field(m.p, e)
        for points, ranks in _stacked_ranks(m, form, field, _point_blocks(field, m.nvars)):
            hits = np.flatnonzero(ranks < k)
            if hits.size:
                return CommonZeroWitness(tuple(int(c) for c in points[hits[0]]), e, field)
    return CommonZeroNotFound(list(range(1, max_e + 1)))
