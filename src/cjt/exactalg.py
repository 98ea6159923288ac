"""Exact arithmetic over GF(p^e) and dense linear algebra on top of it.

Elements of GF(p^e) are stored as integer *codes* in [0, p^e): the base-p
digits of a code are the coordinates of the element in the power basis of
the modulus polynomial (low degree first).  All matrix kernels below are
vectorized over numpy int64 arrays of codes; matrix products pass through
float64 only in sums that stay exact integers below 2^53, so every
comparison in this package is exact equality.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import isqrt
from typing import Sequence

import numpy as np

__all__ = [
    "Field",
    "CooMatrix",
    "SolveResult",
    "make_field",
    "rank",
    "solve_linear",
    "nullspace",
]


# Supported characteristics: p <= MAX_P, the largest p with (p - 1)^2 < 2^53,
# so that a product of two elements of GF(p) is exact in float64 and matrix
# products can go through BLAS.  Element codes are int64, so q = p^e < 2^63.
_EXACT = 1 << 53
MAX_P = isqrt(_EXACT - 1) + 1


def _check_range(p: int, e: int) -> None:
    if p > MAX_P:
        raise ValueError(f"p = {p} is above the supported bound {MAX_P} ((p - 1)^2 must stay below 2^53)")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if e < 1:
        raise ValueError(f"extension degree e = {e} must be >= 1")
    if p**e >= 1 << 63:
        raise ValueError(f"GF({p}^{e}) is too large: element codes need q = p^e < 2^63")


# Largest field order for which GF(p^e), e >= 2, builds q x q code tables for
# add and mul (two int64 tables, 8 MiB each at the cap).  Bigger fields use
# digit loops and discrete logs instead.
TABLE_CAP = 1024

# The discrete-log tables of GF(p^e), e >= 2, take about 8 q (e + 2) bytes
# while they are built: q int64 logs, q - 1 int64 powers and the (q - 1) x e
# int64 digits of the powers.  Elementwise arithmetic that needs them (mul
# above TABLE_CAP and the powers built on it, pow_scalar) refuses a field
# whose tables would exceed 1 GiB, q (e + 2) > 2^27: GF(2^22) and GF(5791^2)
# are the largest binary and quadratic fields it accepts.  Matrix products
# never need them.
LOG_TABLE_BYTES = 1 << 30


def _check_log_tables(p: int, e: int) -> None:
    """Refuse GF(p^e), e >= 2, whose discrete-log tables would exceed
    LOG_TABLE_BYTES, from p and e alone: nothing is built."""
    q = p**e
    size = 8 * q * (e + 2)
    if size > LOG_TABLE_BYTES:
        raise ValueError(
            f"elementwise arithmetic over GF({p}^{e}) needs discrete-log tables of "
            f"{size} bytes for q = {q}, above the {LOG_TABLE_BYTES}-byte limit"
        )


# Matrix entries (points x rows x cols) per stack handed to stack_ranks by
# the sweeps; bounds the kernel's working memory.
STACK_CELLS = 1 << 13

# The size rule: matrices with no side above this size are eliminated many
# at a time (stack_ranks, jordan.jordan_types); larger ones go one at a
# time to rank_array, jordan.power_ranks or constancy.jordan_at.
# Eliminating a whole stack pays a few numpy calls per column for all
# slices at once, which wins while matrices are small.  Measured in stacks
# of STACK_CELLS entries, stacked over per-matrix time: Jordan types of
# level sweeps (against power_ranks) 0.84 at dim 32, 1.0-1.4 at dim 40 and
# 2.7 at dim 48 (random modules, p = 3 and 5, r = 3, e = 1 and 2); ranks
# alone (against rank_array) 0.46-0.53 at dim 32, 0.65-0.79 at dim 40 and
# 0.89-1.04 at dim 48 (GF(3), GF(5), GF(25)).  _sparse_rank also hands its
# core to _echelonize once the core's shorter side is at most this size: on
# the shift-types and criterion-06 matrices, _sparse_rank takes the same
# time with this size at 16-32, 7-10 % more at 64 and 2.7-2.8x as long with
# no rounds at all; on sums of scaled permutations, 5 % less at 48.
BATCH_DIM_CUTOFF = 32

# jordan.power_ranks multiplies COO powers by A while a product joins at
# most this many pairs per row, and hands the powers left to the dense
# image chain.  Sparse over dense time of power_ranks against the pairs per
# row that A^2 joins, on point matrices of random modules (p = 3, 5, 7,
# r = 2, dim 40-320; medians): over GF(p) 0.67-0.77 below 16, 0.89 at
# 16-20, 0.97 at 20-24 and 1.24-1.58 at 24-48; over GF(p^2) 0.58-0.98
# below 32 and 1.04 at 32-48.  Rebased dense matrices join 700 and more per
# row and run 6-33x slower sparse; Heller shifts of k join at most 11.5.
# A Schur-complement round of _sparse_rank that would join more than this
# many pairs per row left hands the core to _echelonize instead.  The rounds
# on Heller-shift cores never reach it; on sums of 2-4 scaled permutations
# (n = 64-400), whose powers fill in, they take 1.1-1.3x the time at 8 and
# 64 pairs and 1.8x with no bound, against 16.
SPARSE_JOIN_PER_ROW = 16

# Rows per block of the triangular solve ``_back_substitute``: each block
# costs one product for the update from the rows below it and a few
# block-sized products for its own triangle.
BACK_SUB_BLOCK = 64


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p) (coefficient tuples, low degree first)
# ---------------------------------------------------------------------------

def _poly_trim(c: Sequence[int]) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(
    a: Sequence[int], m: Sequence[int], p: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by m, whose leading coefficient is nonzero."""
    a = list(a)
    dm = len(m) - 1
    lead_inv = pow(m[-1], p - 2, p)
    quo = [0] * max(0, len(a) - dm)
    while len(a) > dm:
        if a[-1] == 0:
            a.pop()
            continue
        f = (a[-1] * lead_inv) % p
        shift = len(a) - 1 - dm
        quo[shift] = f
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - f * mi) % p
        a.pop()
    return _poly_trim(quo), _poly_trim(a)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    return _poly_divmod(a, m, p)[1]


def _poly_powmod(a: Sequence[int], n: int, m: Sequence[int], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = _poly_mod(a, m, p)
    while n:
        if n & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        n >>= 1
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _frobenius_minus_x(k: int, poly: Sequence[int], p: int) -> tuple[int, ...]:
    """x^(p^k) - x reduced mod poly."""
    t = list(_poly_powmod((0, 1), p**k, poly, p))
    t += [0] * max(0, 2 - len(t))
    t[1] = (t[1] - 1) % p
    return _poly_trim(t)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p) via Frobenius gcds."""
    e = len(poly) - 1
    if _frobenius_minus_x(e, poly, p):
        return False
    for ell in _prime_factors(e):
        if len(_poly_gcd(_frobenius_minus_x(e // ell, poly, p), poly, p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

def _power(mul, x, n: int):
    """x^n for n >= 1 by square-and-multiply under the product ``mul``
    (``Field.mul`` for elementwise powers, ``Field.matmul`` for matrix
    powers): the first factor is x itself, and nothing is squared past the
    top bit of n."""
    out = None
    while n:
        if n & 1:
            out = x if out is None else mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


class Field:
    """GF(p^e) with an explicit monic modulus polynomial.

    This object doubles as the arithmetic kernel: all ``add``/``mul``/...
    methods accept numpy arrays of element codes (broadcasting like numpy)
    and are the only arithmetic the linear algebra layer uses.  Values are
    immutable; the discrete-log tables and, for e >= 2 and q <= TABLE_CAP,
    the add/mul/neg code tables are a lazily built, idempotent cache, so
    sharing a field across workers stays safe.
    """

    def __init__(self, p: int, e: int, modulus: Sequence[int]):
        _check_range(p, e)
        modulus = tuple(int(c) % p for c in modulus)
        if e == 1:
            if modulus != (0, 1):
                raise ValueError("degree-1 modulus must be x")
        else:
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._red: np.ndarray | None = None
        self._code_tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- identity ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, e={self.e})"

    @property
    def is_prime_field(self) -> bool:
        return self.e == 1

    # -- discrete log tables (e >= 2 only) ----------------------------------
    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        _check_log_tables(p, e)
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        factors = _prime_factors(q - 1)
        for g in range(2, q):
            gp = self._code_to_poly(g)
            if all(
                self._poly_to_code(_poly_powmod(gp, (q - 1) // ell, self.modulus, p)) != 1
                for ell in factors
            ):
                break
        else:  # pragma: no cover - a generator always exists
            raise RuntimeError("no multiplicative generator found")
        # row j: the digits of g x^j, so digits(c) @ step = digits(c g)
        step = np.zeros((e, e), dtype=np.int64)
        for j in range(e):
            row = _poly_mod(_poly_mul((0,) * j + (1,), gp, p), self.modulus, p)
            step[j, : len(row)] = row
        # digits of g^0 .. g^(n-1), doubled by multiplying them all by g^n
        digits = np.zeros((q - 1, e), dtype=np.int64)
        digits[0, 0] = 1
        n = 1
        while n < q - 1:
            m = min(n, q - 1 - n)
            digits[n : n + m] = (digits[:m] @ step) % p
            step = (step @ step) % p
            n += m
        exp[:] = digits @ p ** np.arange(e, dtype=np.int64)
        log[exp] = np.arange(q - 1, dtype=np.int64)
        self._exp = exp
        self._log = log

    def _reduction_rows(self) -> np.ndarray:
        """Coefficients of x^m mod the modulus, one row per m in [0, 2e - 2]."""
        if self._red is None:
            red = np.zeros((2 * self.e - 1, self.e), dtype=np.int64)
            for m in range(2 * self.e - 1):
                r = _poly_mod((0,) * m + (1,), self.modulus, self.p)
                red[m, : len(r)] = r
            self._red = red
        return self._red

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self._exp is None:
            self._build_tables()
        return self._exp, self._log  # type: ignore[return-value]

    def _arith_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Flattened q x q add and mul tables and the length-q neg table.

        Only for e >= 2 and q <= TABLE_CAP; ``None`` otherwise, and the
        caller falls back to digit loops and discrete logs.  Built on first
        use by evaluating those fallbacks, ``_digit_add``, ``_log_mul`` and
        ``_digit_neg``, on the grid of all codes, so both paths give equal
        codes.
        """
        if self.e == 1 or self.q > TABLE_CAP:
            return None
        if self._code_tables is None:
            codes = np.arange(self.q, dtype=np.int64)
            row, col = codes[:, None], codes[None, :]
            self._code_tables = (
                self._digit_add(row, col).ravel(),
                self._log_mul(row, col).ravel(),
                self._digit_neg(codes),
            )
        return self._code_tables

    def _code_to_poly(self, code: int) -> tuple[int, ...]:
        p, out = self.p, []
        while code:
            out.append(code % p)
            code //= p
        return _poly_trim(out)

    def _poly_to_code(self, poly: Sequence[int]) -> int:
        code = 0
        for c in reversed(list(poly)):
            code = code * self.p + (c % self.p)
        return code

    # -- elementwise arithmetic on code arrays ------------------------------
    def add(self, a, b):
        if self.e == 1:
            return self._mod_p(np.asarray(a) + np.asarray(b))
        tables = self._arith_tables()
        if tables is not None:
            return tables[0][np.asarray(a) * self.q + np.asarray(b)]
        return self._digit_add(a, b)

    def neg(self, a):
        if self.e == 1:
            return self._mod_p(-np.asarray(a))
        tables = self._arith_tables()
        if tables is not None:
            return tables[2][np.asarray(a)]
        return self._digit_neg(a)

    def sub(self, a, b):
        if self.e == 1:
            return self._mod_p(np.asarray(a) - np.asarray(b))
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return self._mod_p(np.asarray(a) * np.asarray(b))
        tables = self._arith_tables()
        if tables is not None:
            return tables[1][np.asarray(a) * self.q + np.asarray(b)]
        return self._log_mul(a, b)

    def _digit_add(self, a, b):
        return self._recompose([self._mod_p(x + y) for x, y in zip(self._planes(a), self._planes(b))])

    def _digit_neg(self, a):
        return self._recompose([self._mod_p(-x) for x in self._planes(a)])

    def _log_mul(self, a, b):
        exp, log = self._tables()
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        out = np.zeros(a.shape, dtype=np.int64)
        m = (a != 0) & (b != 0)
        out[m] = exp[(log[a[m]] + log[b[m]]) % (self.q - 1)]
        return out

    def inv(self, a):
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow_array(a, self.q - 2)

    def inv_scalar(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow_scalar(a, self.q - 2)

    def pow_scalar(self, a: int, n: int) -> int:
        if n == 0:
            return 1
        if a == 0:
            return 0
        if self.e == 1:
            return pow(int(a), n, self.p)
        exp, log = self._tables()
        return int(exp[(int(log[a]) * n) % (self.q - 1)])

    def pow_array(self, a, n: int):
        """Elementwise n-th power of a code array (n >= 0)."""
        a = np.asarray(a)
        if n == 0:
            return np.ones(a.shape, dtype=np.int64)
        return _power(self.mul, a, n)

    def frobenius(self, a):
        """x -> x^p, vectorized over code arrays."""
        return self.pow_array(a, self.p)

    # -- matrix kernels ------------------------------------------------------
    def _mod_p(self, x: np.ndarray) -> np.ndarray:
        """x mod p for int64 arrays, as x - p (x // p): numpy divides an
        int64 array by a scalar several times faster than it takes the
        remainder."""
        return x - self.p * (x // self.p)

    def _planes(self, a: np.ndarray) -> list[np.ndarray]:
        out = []
        x = np.asarray(a)
        for _ in range(self.e):
            high = x // self.p
            out.append(x - self.p * high)
            x = high
        return out

    def _recompose(self, planes: list[np.ndarray]) -> np.ndarray:
        """Codes from their lowest digit planes, already reduced mod p; the
        digits past the last plane are zero."""
        out = planes[-1]
        for x in reversed(planes[:-1]):
            out = out * self.p + x
        return out

    def _exact_product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x @ y mod p for float64 arrays of entries in [0, p), through BLAS.

        A dot product of length k is exact in float64 while k (p - 1)^2 <
        2^53; a longer inner dimension is cut into chunks that stay below
        that, reduced mod p one by one.  ``matmul`` multiplies digit planes
        here when their sum on one power of x could pass 2^53.
        """
        step = (_EXACT - 1) // (self.p - 1) ** 2
        inner = x.shape[-1]
        if inner <= step:
            return self._mod_p((x @ y).astype(np.int64))
        out = 0
        for s in range(0, inner, step):
            out = self._mod_p(out + (x[..., s : s + step] @ y[..., s : s + step, :]).astype(np.int64))
        return out

    def _factor_planes(self, a) -> list[np.ndarray]:
        """A matmul factor as float64 digit planes, lowest digit first: one
        plane when every entry lies in [0, p), else ``_planes``, which over
        GF(p) is one plane of the entries mod p.  The max/min scan is
        several times cheaper than the division it saves, and over GF(p^e)
        a code at or above p ends it after the max."""
        a = np.asarray(a)
        if a.max(initial=0) < self.p and a.min(initial=0) >= 0:
            return [a.astype(np.float64)]
        return [x.astype(np.float64) for x in self._planes(a)]

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product; stacks (..., m, k) @ (..., k, n) multiply slice by slice.

        Exact for every supported p.  Each factor is split into digit planes
        (``_factor_planes``), and the plane products that land on one power
        of x are summed: in float64 while that sum stays below 2^53, which
        holds when min(#planes) k (p - 1)^2 < 2^53, else each product is
        reduced on its own by ``_exact_product``.  The sums are reduced mod
        p; when both factors have e planes, the powers x^m with m >= e are
        folded down through the reduction rows.  The planes are then
        recomposed into codes.
        """
        ap, bp = self._factor_planes(a), self._factor_planes(b)
        fused = min(len(ap), len(bp)) * ap[0].shape[-1] * (self.p - 1) ** 2 < _EXACT
        product = np.matmul if fused else self._exact_product
        # digit m: the plane products a_k b_(m-k), summed in place
        planes = []
        for m in range(len(ap) + len(bp) - 1):
            ks = range(max(0, m + 1 - len(bp)), min(m + 1, len(ap)))
            total = reduce(operator.iadd, (product(ap[k], bp[m - k]) for k in ks)).astype(np.int64)
            planes.append(self._mod_p(total))
        if len(planes) > self.e:
            red = self._reduction_rows()
            for m in range(self.e, len(planes)):
                for k in range(self.e):
                    if red[m, k]:
                        planes[k] = planes[k] + int(red[m, k]) * planes[m]
            planes = [self._mod_p(x) for x in planes[: self.e]]
        return self._recompose(planes)

    def kron(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Kronecker product of two matrices, in ``np.kron``'s layout."""
        a, b = np.asarray(a), np.asarray(b)
        prod = self.mul(a[:, None, :, None], b[None, :, None, :])
        return prod.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])

    # -- element bookkeeping -------------------------------------------------
    def code_of(self, value) -> int:
        if isinstance(value, (int, np.integer)):
            if self.e == 1:
                return int(value) % self.p
            v = int(value)
            if not 0 <= v < self.q:
                raise ValueError(f"element codes for GF({self.p}^{self.e}) must lie in [0, {self.q}), got {v}")
            return v
        # coefficient list, low degree first
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.e:
            raise ValueError("too many coefficients")
        return self._poly_to_code(coeffs)

    def serialize_code(self, code: int):
        return self.serialize_codes([code])[0]

    def serialize_codes(self, array) -> list:
        """The JSON form of every entry of a code array, row-major: the code
        itself over GF(p), else its e coefficients, low degree first."""
        return self.code_digits(array).tolist()

    def code_digits(self, array) -> np.ndarray:
        """``serialize_codes`` as an int64 array: the flat codes over GF(p),
        else an (N, e) array of coefficients."""
        flat = np.asarray(array, dtype=np.int64).ravel()
        if self.e == 1:
            return flat
        return np.stack(self._planes(flat), axis=-1)

    def ordered_codes(self) -> np.ndarray:
        """All element codes, sorted by serialized coefficient vectors
        (low-degree coefficient most significant)."""
        codes = np.arange(self.q, dtype=np.int64)
        if self.e == 1:
            return codes
        key = self._recompose(self._planes(codes)[::-1])
        return codes[np.argsort(key, kind="stable")]


@lru_cache(maxsize=None)
def make_field(p: int, e: int) -> Field:
    """GF(p^e) with the lexicographically smallest monic irreducible modulus.

    Coefficient lists are compared low-degree-first, so the chosen modulus
    is deterministic across runs and serialized data stays portable.
    """
    _check_range(p, e)
    if e == 1:
        return Field(p, 1, (0, 1))
    # candidates (c_0, ..., c_{e-1}, 1) in lexicographic order on the low-first
    # coefficient list: c_0 .. c_{e-1} are the base-p digits of n, most
    # significant first.  They start at c_0 = 1, because a constant term 0
    # makes x a factor.
    for n in range(p ** (e - 1), p**e):
        poly = tuple(n // p**k % p for k in range(e - 1, -1, -1)) + (1,)
        if _is_irreducible(poly, p):
            return Field(p, e, poly)
    raise RuntimeError("unreachable: irreducible polynomials exist in every degree")


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _echelonize(field: Field, a: np.ndarray, width: int) -> list[int]:
    """In-place forward elimination with unit pivots on columns [0, width).

    Pivot choice is the first row with a nonzero entry in the current
    column, scanning columns left to right; rows below each pivot are
    cleared.  Returns the pivot column indices.
    """
    rows = a.shape[0]
    piv_cols: list[int] = []
    r = 0
    for c in range(width):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        pivot = int(a[r, c])
        if pivot != 1:
            a[r, c:] = field.mul(a[r, c:], field.inv_scalar(pivot))
        # the pivot is the first nonzero at or below row r, so a swap moves a
        # zero into row i and the rows left to clear are the other nonzeros
        idx = r + nz[1:]
        if idx.size:
            factors = a[idx, c]
            a[idx, c:] = field.sub(a[idx, c:], field.mul(factors[:, None], a[r, c:][None, :]))
        piv_cols.append(c)
        r += 1
    return piv_cols


def rref_array(field: Field, arr: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (unit pivots, zeros above and below)."""
    a = np.array(arr, dtype=np.int64)
    piv = _echelonize(field, a, a.shape[1])
    free, x = _reduce_free(field, a, piv, a.shape[1])
    rows = np.zeros((len(piv), a.shape[1]), dtype=np.int64)
    rows[np.arange(len(piv)), piv] = 1
    rows[:, free] = x
    return rows, piv


def column_space(field: Field, arr: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Canonical reduced basis of the column space, as matrix columns.

    The returned basis B satisfies B[pivot_rows, :] = I, so coordinates of
    any vector in the span can be read off at the pivot rows.
    """
    rows, piv = rref_array(field, arr.T)
    return rows.T, piv


def _codes_2d(arr: np.ndarray) -> np.ndarray:
    """An int64 copy of a matrix of codes; refuses any other shape."""
    a = np.array(arr, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("matrix array must be 2-dimensional")
    return a


def rank_array(field: Field, arr: np.ndarray) -> int:
    """Rank of a matrix of codes over the field, by Gaussian elimination."""
    a = _codes_2d(arr)
    return len(_echelonize(field, a, a.shape[1]))


rank = rank_array


def stack_ranks(field: Field, stack: np.ndarray) -> np.ndarray:
    """Rank of every slice of a (points, rows, cols) stack.

    Each slice keeps a mask of open rows.  Column by column, a slice with
    an open row nonzero in the column takes the first such row as pivot and
    closes it; every other open row i with a nonzero entry there becomes
    pivot * row i - a[i, c] * pivot row (the one-step fraction-free update,
    which keeps the row space), so no row moves and no pivot is inverted.
    Only rows with a nonzero entry under some pivot are touched.  A slice's
    rank is its number of closed rows.  Stacks whose matrices have a side
    above BATCH_DIM_CUTOFF are eliminated slice by slice with
    ``rank_array``; only polymat's pencil sweeps (``polymat.generic_rank``,
    ``polymat.common_zero_search``) hand over such stacks.
    """
    a = np.array(stack, dtype=np.int64)
    if a.ndim != 3:
        raise ValueError("need a (points, rows, cols) stack")
    count, n_rows, n_cols = a.shape
    if max(n_rows, n_cols) > BATCH_DIM_CUTOFF:
        return np.array([rank_array(field, s) for s in a], dtype=np.int64)
    open_rows = np.ones((count, n_rows), dtype=bool)
    for c in range(n_cols):
        col = a[:, :, c]
        cand = (col != 0) & open_rows
        has = cand.any(axis=1)
        if not has.any():
            continue
        idx = np.nonzero(has)[0]
        piv = cand[idx].argmax(axis=1)
        open_rows[idx, piv] = False
        if c + 1 == n_cols:
            break
        factors = col[idx] * open_rows[idx]
        touched = np.flatnonzero(factors.any(axis=0))
        if touched.size == 0:
            continue
        pivot = col[idx, piv][:, None, None]
        prow = a[idx, piv, c + 1 :][:, None, :]
        block = (idx[:, None], touched[None, :], slice(c + 1, None))
        a[block] = field.sub(field.mul(pivot, a[block]), field.mul(factors[:, touched, None], prow))
    return n_rows - open_rows.sum(axis=1)


# ---------------------------------------------------------------------------
# sparse matrices as COO triples (rows, cols, codes): distinct positions,
# nonzero codes, sorted by row and then column
# ---------------------------------------------------------------------------

class CooMatrix:
    """Square n x n matrix over a Field as COO triples; ``rows`` is n.

    The one matrix type of ``jordan.power_ranks`` and ``from_nilpotent``:
    ``constancy.jordan_at`` sums a point's matrix straight into triples
    (``summed``), and a dense matrix of codes enters by ``from_dense``.
    """

    __slots__ = ("field", "rows", "triples")

    def __init__(self, field: Field, n: int, triples: tuple):
        self.field = field
        self.rows = n
        self.triples = triples

    @classmethod
    def summed(cls, field: Field, n: int, positions: np.ndarray, codes: np.ndarray) -> "CooMatrix":
        """The matrix whose entry at row * n + col is the sum of the codes
        at that position."""
        return cls(field, n, _sum_by_position(field, positions, codes, n))

    @classmethod
    def from_dense(cls, field: Field, a: np.ndarray) -> "CooMatrix":
        """The nonzeros of a square matrix of codes; refuses any other shape."""
        a = np.asarray(a, dtype=np.int64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        # np.nonzero scans a bool mask faster than int64 codes
        rows, cols = np.nonzero(a != 0)
        return cls(field, a.shape[0], (rows, cols, a[rows, cols]))


def _sparse_product(
    field: Field, left: tuple, right: tuple, n: int, limit: int, addend: tuple | None = None
) -> tuple | None:
    """left @ right for n x n COO triples, plus ``addend`` when given, or
    None when the join would take more than ``limit`` products.

    Every entry (i, k) of left joins the entries of row k of right, one
    ``Field.mul`` multiplies the joined values, and the products and the
    addend's entries are summed by position (``_sum_by_position``).
    """
    lr, lc, lv = left
    rr, rc, rv = right
    row_nnz = np.bincount(rr, minlength=n)
    cnt = row_nnz[lc]
    total = int(cnt.sum())
    if total > limit:
        return None
    # join product t of left entry s reads right entry starts[lc[s]] + t
    starts = np.cumsum(row_nnz) - row_nnz
    idx = np.repeat(starts[lc] - np.cumsum(cnt) + cnt, cnt)
    idx += np.arange(total)
    key = np.repeat(lr * n, cnt)
    key += rc[idx]
    prod = field.mul(np.repeat(lv, cnt), rv[idx])
    if addend is not None:
        key = np.concatenate([key, addend[0] * n + addend[1]])
        prod = np.concatenate([prod, addend[2]])
    return _sum_by_position(field, key, prod, n)


def _sum_by_position(field: Field, key: np.ndarray, codes: np.ndarray, n: int) -> tuple:
    """COO triples of the n x n matrix whose entry at row * n + col is the
    sum of the codes with that key.

    The codes are sorted by key and summed there digit plane by digit
    plane, which is one rule over GF(p) and GF(p^e); zero sums are dropped.
    """
    order = np.argsort(key, kind="stable")
    key, codes = key[order], codes[order]
    heads = np.flatnonzero(np.diff(key, prepend=-1))
    codes = field._recompose([field._mod_p(np.add.reduceat(x, heads)) for x in field._planes(codes)])
    key = key[heads][codes != 0]
    return key // n, key % n, codes[codes != 0]


def _peel(rows: np.ndarray, cols: np.ndarray, codes: np.ndarray) -> tuple:
    """Delete lines with one nonzero until none is left; returns the COO
    triples left and the rank that the deleted lines add.

    A column whose one nonzero lies in row i adds one to the rank of what
    is left once row i and the column are deleted, and so does a row with
    one nonzero, with the roles swapped.  Rounds delete every such column's
    row at once, then every such row's column, until neither is left; this
    reads only the pattern, so the entries left are those of a submatrix.
    """
    lines, rank, idle, axis = [rows, cols], 0, 0, 1
    while idle < 2 and codes.size:
        along, other = lines[axis], lines[1 - axis]
        single = np.bincount(along)[along] == 1
        hit = np.zeros(other.max() + 1, dtype=bool)
        hit[other[single]] = True
        found = int(np.count_nonzero(hit))
        if found:
            keep = ~hit[other]
            lines, codes = [x[keep] for x in lines], codes[keep]
            rank, idle = rank + found, 0
        else:
            idle += 1
        axis = 1 - axis
    return lines[0], lines[1], codes, rank


def _sparse_rank(field: Field, rows: np.ndarray, cols: np.ndarray, codes: np.ndarray) -> int:
    """Rank of the matrix with the COO triples, by peeling (``_peel``),
    Schur-complement rounds and ``_echelonize`` on what is left.

    A round pivots on many entries at once (structured Gaussian
    elimination).  An entry's key is (row weight - 1)(column weight - 1),
    the products it joins as a pivot (its Markowitz cost), times nnz plus
    its index, so keys are distinct.  An entry with the least key in its
    row and in its column is a candidate, and a candidate is accepted when
    its key is below that of every candidate it conflicts with: one whose
    column its row meets, or whose row meets its column.  So the accepted
    pivots form a diagonal block D, they add their number to the rank, and
    the rest becomes the Schur complement S = A22 - A21 D^(-1) A12, a
    ``_sparse_product``, which is peeled again.  What is left goes to
    ``_echelonize`` once its shorter side is at most BATCH_DIM_CUTOFF, or
    once a round would join more than SPARSE_JOIN_PER_ROW pairs per row
    left, the bound that power_ranks puts on its products.
    """
    n = int(max(rows.max(initial=-1), cols.max(initial=-1))) + 1
    rank = 0
    while True:
        rows, cols, codes, found = _peel(rows, cols, codes)
        rank += found
        if not codes.size:
            return rank
        row_nnz, col_nnz = np.bincount(rows), np.bincount(cols)
        live = np.count_nonzero(row_nnz)
        if min(live, np.count_nonzero(col_nnz)) <= BATCH_DIM_CUTOFF:
            break
        m = codes.size
        key = (row_nnz[rows] - 1) * (col_nnz[cols] - 1) * m + np.arange(m)
        least = [np.full(x.size, key.max() + 1) for x in (row_nnz, col_nnz)]
        np.minimum.at(least[0], rows, key)
        np.minimum.at(least[1], cols, key)
        cand = np.flatnonzero((key == least[0][rows]) & (key == least[1][cols]))
        # each entry's slot: the candidate in its row (column), or -1; rows
        # are sorted, so slots follow the rows of their candidates
        slots = []
        for line, nnz in ((rows, row_nnz), (cols, col_nnz)):
            slot = np.full(nnz.size, -1)
            slot[line[cand]] = np.arange(cand.size)
            slots.append(slot[line])
        at_row, at_col = slots
        clash = (at_row >= 0) & (at_col >= 0) & (at_row != at_col)
        low = key[cand]
        np.minimum.at(
            low,
            np.concatenate([at_row[clash], at_col[clash]]),
            np.concatenate([low[at_col[clash]], low[at_row[clash]]]),
        )
        # slot -1 reads the appended False
        accepted = np.append(low == key[cand], False)
        in_row, in_col = accepted[at_row], accepted[at_col]
        pivot = in_row & in_col
        scale = np.zeros(cand.size, dtype=np.int64)
        scale[at_row[pivot]] = field.neg(field.inv(codes[pivot]))
        a21, a12, a22 = in_col & ~in_row, in_row & ~in_col, ~(in_row | in_col)
        left = (rows[a21], at_col[a21], field.mul(codes[a21], scale[at_col[a21]]))
        rest = _sparse_product(
            field,
            left,
            (at_row[a12], cols[a12], codes[a12]),
            n,
            SPARSE_JOIN_PER_ROW * live,
            (rows[a22], cols[a22], codes[a22]),
        )
        if rest is None:
            break
        rank += int(np.count_nonzero(pivot))
        rows, cols, codes = rest
    (_, r), (_, c) = (np.unique(x, return_inverse=True) for x in (rows, cols))
    core = np.zeros((r.max() + 1, c.max() + 1), dtype=np.int64)
    core[r, c] = codes
    if core.shape[1] > core.shape[0]:
        core = core.T.copy()
    return rank + len(_echelonize(field, core, core.shape[1]))


def _unipotent_inverse(field: Field, nil: np.ndarray) -> np.ndarray:
    """(I + N)^(-1) for a nilpotent N, by Field.matmul only.

    (I + N)^(-1) = sum of (-N)^i for i < n, which is the product of the
    factors I + (-N)^(2^i) for 2^i < n; the loop stops early once a power
    of N vanishes.  N may have a nonzero diagonal, so I is added as a field
    element.
    """
    eye = np.eye(nil.shape[0], dtype=np.int64)
    power = field.neg(nil)
    inv = field.add(power, eye)
    for _ in range(1, (nil.shape[0] - 1).bit_length()):
        power = field.matmul(power, power)
        if not power.any():
            break
        inv = field.matmul(inv, field.add(power, eye))
    return inv


def _back_substitute(field: Field, u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution X of u X = rhs for a k x k unit upper triangular u.

    Rows are solved in blocks of BACK_SUB_BLOCK, from the last block up: one
    Field.matmul subtracts what the rows already solved contribute, and one
    more applies the inverse of the block's own unit triangle.  A triangular
    system has exactly one solution, so the result does not depend on the
    block size.
    """
    k = u.shape[0]
    x = np.zeros(rhs.shape, dtype=np.int64)
    for start in range((k - 1) // BACK_SUB_BLOCK * BACK_SUB_BLOCK, -1, -BACK_SUB_BLOCK):
        stop = min(start + BACK_SUB_BLOCK, k)
        y = rhs[start:stop]
        if stop < k:
            y = field.sub(y, field.matmul(u[start:stop, stop:], x[stop:]))
        nil = np.triu(u[start:stop, start:stop], 1)
        x[start:stop] = field.matmul(_unipotent_inverse(field, nil), y)
    return x


def _reduce_free(
    field: Field, a: np.ndarray, piv_cols: list[int], ncols: int
) -> tuple[list[int], np.ndarray]:
    """The free columns of an echelonized matrix and the reduced row echelon
    form on them.

    With U the pivot rows of a, the form is the identity on the pivot
    columns and X = U_piv^(-1) U_free on the free ones; U_piv is unit upper
    triangular, so X is one back-substitution of the free columns alone.
    """
    pivots = set(piv_cols)
    free = [c for c in range(ncols) if c not in pivots]
    u = a[: len(piv_cols)]
    if not free:
        return free, np.zeros((len(piv_cols), 0), dtype=np.int64)
    return free, _back_substitute(field, u[:, piv_cols], u[:, free])


def _kernel_from_echelon(
    field: Field, a: np.ndarray, piv_cols: list[int], ncols: int
) -> np.ndarray:
    """Nullspace basis from an echelonized matrix; columns are basis vectors.

    Each free column f yields the basis vector with coordinate 1 at f, 0 at
    the other free columns, making the basis order (and the row-identity
    structure on free coordinates) deterministic.  Its pivot coordinates are
    minus column f of the reduced row echelon form.
    """
    free, x = _reduce_free(field, a, piv_cols, ncols)
    basis = np.zeros((ncols, len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    basis[piv_cols] = field.neg(x)
    return basis


def nullspace_array(field: Field, arr: np.ndarray) -> np.ndarray:
    """Basis of the right nullspace, as matrix columns (deterministic order)."""
    return _nullspace_in_place(field, _codes_2d(arr))


nullspace = nullspace_array


def _nullspace_in_place(field: Field, a: np.ndarray) -> np.ndarray:
    """``nullspace_array`` of an int64 array that it echelonizes in place."""
    return _kernel_from_echelon(field, a, _echelonize(field, a, a.shape[1]), a.shape[1])


@dataclass
class SolveResult:
    """Outcome of solve_linear: particular solution plus nullspace basis,
    as matrices of codes.

    ``consistent`` distinguishes an unsolvable system from one whose kernel
    happens to be trivial.
    """

    consistent: bool
    solution: np.ndarray | None
    kernel: np.ndarray


def solve_linear(field: Field, a: np.ndarray, b: np.ndarray) -> SolveResult:
    """Solve a X = b over the field; returns one particular solution and a
    kernel basis.

    Pivoting is deterministic (first nonzero in column order).  When the
    system is inconsistent the solution is None but the kernel of ``a`` is
    still reported.
    """
    a, b = _codes_2d(a), _codes_2d(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"shape mismatch: a has {a.shape[0]} rows, b has {b.shape[0]}")
    n = a.shape[1]
    aug = np.hstack([a, b])
    piv = _echelonize(field, aug, n)
    k = len(piv)
    # rows below the pivot rows must have zero right-hand side
    consistent = not np.any(aug[k:, n:])
    kernel = _kernel_from_echelon(field, aug[:, :n], piv, n)
    if not consistent:
        return SolveResult(False, None, kernel)
    sol = np.zeros((n, b.shape[1]), dtype=np.int64)
    if k:
        sol[piv] = _back_substitute(field, aug[:k][:, piv], aug[:k, n:])
    return SolveResult(True, sol, kernel)
