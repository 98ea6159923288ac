"""Finite-dimensional modules over k[t_1..t_r]/(t_1^p..t_r^p).

A module is given by r pairwise-commuting nilpotent matrices recording the
generator actions, together with a coproduct convention that fixes the
tensor and dual formulas.  All constructions here (tensor, dual, radical,
free splitting, minimal covers and their kernels, extensions) are exact
linear algebra over the module's field.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, TypeVar

import numpy as np

from cjt.exactalg import (
    Field,
    _back_substitute,
    _echelonize,
    _kernel_from_echelon,
    _nullspace_in_place,
    _power,
    _unipotent_inverse,
    column_space,
    nullspace_array,
    rank_array,
    rref_array,
)

__all__ = [
    "Convention",
    "ModuleRep",
    "ModuleHom",
    "ValidationReport",
    "validate",
    "trivial_module",
    "free_module",
    "jordan_block_module",
    "direct_sum",
    "tensor",
    "dual",
    "hom",
    "hom_space",
    "radical_socle",
    "split_free",
    "projective_cover_omega",
    "omega_n",
    "factors_through_projective",
    "build_extension",
]

DIM_SOFT_CAP = 4000


def _check_dim(dim: int) -> None:
    """Refuse a dimension above DIM_SOFT_CAP, before anything is built."""
    if dim > DIM_SOFT_CAP:
        raise ValueError(
            f"module dimension {dim} exceeds the soft cap {DIM_SOFT_CAP}; "
            "pass allow_large=True to override"
        )


def _check_codes(field: Field, a: np.ndarray, what: str) -> None:
    """Refuse entries of the int64 array a that are not element codes of
    field, in [0, q).  Viewed as uint64 a negative entry reads as at least
    2^63, so one max finds both kinds."""
    if a.size and int(a.view(np.uint64).max()) >= field.q:
        raise ValueError(
            f"{what} codes must lie in [0, {field.q}) for GF({field.p}^{field.e})"
        )


class Convention(Enum):
    """Coproduct convention for the generator elements t_i.

    PRIMITIVE: t primitive, tensor action t (x) 1 + 1 (x) t, antipode -t.
    GROUP: t = g - 1 for group-like g, tensor action adds t (x) t, antipode
    (1+t)^(-1) - 1.
    """

    PRIMITIVE = "primitive"
    GROUP = "group"


class ModuleRep:
    """r commuting nilpotent generator actions on a finite-dimensional space.

    ``_coo`` keeps each generator's nonzeros (positions and codes) for
    ``_generator_entries`` once it has found them, and only on a module
    frozen by ``_read_only`` (every Heller-shift level), whose generators
    are read-only and referenced by nothing else; on any other module it is
    None and the nonzeros are found on each call, so a write into a
    generator is never read stale.
    They are few: Heller shifts' generators hold under one nonzero per row.
    """

    __slots__ = ("field", "r", "dim", "gens", "convention", "_coo")

    def __init__(
        self,
        field: Field,
        gens: Sequence[np.ndarray],
        convention: Convention = Convention.PRIMITIVE,
        allow_large: bool = False,
    ):
        if len(gens) < 1:
            raise ValueError("need at least one generator action")
        arrays = []
        for g in gens:
            a = np.asarray(g, dtype=np.int64)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError("generator actions must be square matrices")
            a = np.ascontiguousarray(a, dtype=np.int64)
            _check_codes(field, a, "generator")
            arrays.append(a)
        dim = arrays[0].shape[0]
        if any(a.shape[0] != dim for a in arrays):
            raise ValueError("generator actions must share one dimension")
        if not allow_large:
            _check_dim(dim)
        self.field = field
        self.r = len(arrays)
        self.dim = dim
        self.gens = tuple(arrays)
        self.convention = convention
        self._coo: list[tuple[np.ndarray, np.ndarray] | None] | None = None

    @property
    def p(self) -> int:
        return self.field.p

    def same_category(self, other: "ModuleRep") -> bool:
        return (
            self.field == other.field
            and self.r == other.r
            and self.convention == other.convention
        )

    def __repr__(self) -> str:
        return (
            f"ModuleRep(dim={self.dim}, r={self.r}, "
            f"GF({self.field.p}^{self.field.e}), {self.convention.value})"
        )


@dataclass
class ModuleHom:
    """A linear map target <- source commuting with the generator actions."""

    source: ModuleRep
    target: ModuleRep
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(np.asarray(self.matrix, dtype=np.int64))
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValueError(
                f"hom matrix must be {self.target.dim} x {self.source.dim}, "
                f"got {self.matrix.shape}"
            )
        _check_codes(self.source.field, self.matrix, "hom matrix")

    def is_intertwiner(self) -> bool:
        f = self.source.field
        for a_src, a_tgt in zip(self.source.gens, self.target.gens):
            if not np.array_equal(f.matmul(self.matrix, a_src), f.matmul(a_tgt, self.matrix)):
                return False
        return True

    def require_intertwiner(self) -> "ModuleHom":
        if not self.is_intertwiner():
            raise ValueError("matrix does not commute with the generator actions")
        return self

    def is_zero(self) -> bool:
        return not np.any(self.matrix)

    def compose(self, other: "ModuleHom") -> "ModuleHom":
        """self after other."""
        if other.target is not self.source and other.target.dim != self.source.dim:
            raise ValueError("composition shape mismatch")
        f = self.source.field
        return ModuleHom(other.source, self.target, f.matmul(self.matrix, other.matrix))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    failure: str | None = None
    index: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _monomial(field: Field, gens: Sequence[np.ndarray], exps: Sequence[int]) -> np.ndarray:
    """The product of gens[i]^exps[i] over the nonzero exponents, or the
    identity if there are none; the actions commute, so order is free."""
    out = None
    for a, x in zip(gens, exps):
        if x:
            power = _power(field.matmul, a, x)
            out = power if out is None else field.matmul(out, power)
    return np.eye(gens[0].shape[0], dtype=np.int64) if out is None else out


def validate(m: ModuleRep) -> ValidationReport:
    """Confirm commuting and nilpotency; reports the first failing index."""
    f = m.field
    for i in range(m.r):
        for j in range(i + 1, m.r):
            ab = f.matmul(m.gens[i], m.gens[j])
            ba = f.matmul(m.gens[j], m.gens[i])
            if not np.array_equal(ab, ba):
                return ValidationReport(False, "generators do not commute", (i, j))
    for i in range(m.r):
        if np.any(_power(f.matmul, m.gens[i], m.p)):
            return ValidationReport(False, "generator is not nilpotent of order <= p", (i,))
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# basic constructors
# ---------------------------------------------------------------------------

def trivial_module(
    field: Field, r: int, n: int = 1, convention: Convention = Convention.PRIMITIVE
) -> ModuleRep:
    return ModuleRep(field, [np.zeros((n, n), dtype=np.int64)] * r, convention)


def jordan_block_module(
    field: Field, size: int, convention: Convention = Convention.PRIMITIVE
) -> ModuleRep:
    """The r = 1 indecomposable [size], 1 <= size <= p."""
    if not 1 <= size <= field.p:
        raise ValueError(f"block size {size} out of range [1, {field.p}]")
    _check_dim(size)
    a = np.zeros((size, size), dtype=np.int64)
    for i in range(size - 1):
        a[i + 1, i] = 1
    return ModuleRep(field, [a], convention)


def free_module(
    field: Field, r: int, rank_: int, convention: Convention = Convention.PRIMITIVE
) -> ModuleRep:
    """Free module of the given rank: regular representation per generator."""
    eye = np.eye(field.p**r * rank_, dtype=np.int64)
    gens = [_free_shift(field.p, r, i, eye) for i in range(r)]
    return ModuleRep(field, gens, convention, allow_large=True)


def direct_sum(mods: Sequence[ModuleRep]) -> ModuleRep:
    if not mods:
        raise ValueError("empty direct sum")
    first = mods[0]
    if any(not first.same_category(m) for m in mods):
        raise ValueError("direct sum requires matching field, r and convention")
    dim = sum(m.dim for m in mods)
    gens = []
    for i in range(first.r):
        a = np.zeros((dim, dim), dtype=np.int64)
        off = 0
        for m in mods:
            a[off : off + m.dim, off : off + m.dim] = m.gens[i]
            off += m.dim
        gens.append(a)
    return ModuleRep(first.field, gens, first.convention, allow_large=True)


# ---------------------------------------------------------------------------
# tensor, dual, hom
# ---------------------------------------------------------------------------

def _admit_dense(what: str, entries: int) -> None:
    """Refuse a build of this many int64 entries above 1 GiB, before any of
    it is made: ``tensor``'s generators and ``hom_space``'s system."""
    size, limit = 8 * entries, 1 << 30
    if size > limit:
        raise ValueError(f"{what} of {size} bytes, above the {limit}-byte limit")


def tensor(m: ModuleRep, n: ModuleRep) -> ModuleRep:
    """Tensor product; the generator action depends on the convention.

    Its r generators are dense, r (dim m dim n)^2 int64 entries, and a
    product whose generators would pass 1 GiB is refused before any is
    built.
    """
    if not m.same_category(n):
        raise ValueError("tensor requires matching field, r and convention")
    _admit_dense(f"tensor({m.dim}-dim, {n.dim}-dim) needs generators", m.r * (m.dim * n.dim) ** 2)
    f = m.field
    im = np.eye(m.dim, dtype=np.int64)
    in_ = np.eye(n.dim, dtype=np.int64)
    gens = []
    for a, b in zip(m.gens, n.gens):
        # the identity holds only 0s and 1s, so np.kron places its factors exactly
        g = f.add(np.kron(a, in_), np.kron(im, b))
        if m.convention is Convention.GROUP:
            g = f.add(g, f.kron(a, b))
        gens.append(g)
    return ModuleRep(f, gens, m.convention, allow_large=True)


def dual(m: ModuleRep) -> ModuleRep:
    """Linear dual; contragredient action through the antipode."""
    f = m.field
    gens = []
    for a in m.gens:
        if m.convention is Convention.PRIMITIVE:
            gens.append(f.neg(a.T))
        else:
            inv = _unipotent_inverse(f, a)
            gens.append(f.sub(inv, np.eye(m.dim, dtype=np.int64)).T)
    return ModuleRep(f, gens, m.convention, allow_large=True)


def hom(m: ModuleRep, n: ModuleRep) -> ModuleRep:
    """Internal hom as a module: dual(m) tensor n."""
    return tensor(dual(m), n)


def hom_space(m: ModuleRep, n: ModuleRep) -> list[ModuleHom]:
    """Basis of module homomorphisms m -> n, in deterministic order.

    Solves the stacked intertwining system X A_i = B_i X over the field.
    That system is dense, r (dim m dim n)^2 int64 entries, and a pair whose
    system would pass 1 GiB is refused before anything is built.  It is
    echelonized in place, so it is held once.
    """
    if m.field != n.field or m.r != n.r:
        raise ValueError("hom_space requires matching field and r")
    _admit_dense(f"hom_space({m.dim}-dim, {n.dim}-dim) needs a dense system", m.r * (m.dim * n.dim) ** 2)
    f = m.field
    # row-major vec: vec(XA) = (I (x) A^T) vec X, vec(BX) = (B (x) I) vec X;
    # block[k, s, l, t] is the coefficient of X[l, t] in row (k, s), written
    # in place so that no Kronecker product is ever built
    system = np.zeros((m.r, n.dim, m.dim, n.dim, m.dim), dtype=np.int64)
    k, s = np.arange(n.dim), np.arange(m.dim)
    for block, a, b in zip(system, m.gens, n.gens):
        block[:, s, :, s] = f.neg(b)
        block[k, :, k, :] = f.add(block[k, :, k, :], a.T)
    basis = _nullspace_in_place(f, system.reshape(m.r * n.dim * m.dim, n.dim * m.dim))
    out = []
    for j in range(basis.shape[1]):
        out.append(ModuleHom(m, n, basis[:, j].reshape(n.dim, m.dim)))
    return out


# ---------------------------------------------------------------------------
# radical, socle, submodules and quotients
# ---------------------------------------------------------------------------

def radical_socle(m: ModuleRep) -> tuple[np.ndarray, np.ndarray]:
    """Bases of rad M = sum of generator images and soc M = joint kernel,
    as matrix columns."""
    f = m.field
    stacked = np.hstack(m.gens)
    rad, _ = column_space(f, stacked)
    soc = nullspace_array(f, np.vstack(m.gens))
    return rad, soc


@dataclass
class Submodule:
    """A submodule with its inclusion data.

    ``basis`` columns span the subspace and satisfy basis[pivot_rows] = I,
    so coordinates in the submodule are read off at the pivot rows.
    """

    module: ModuleRep
    basis: np.ndarray
    pivot_rows: list[int]


def submodule(m: ModuleRep, basis: np.ndarray) -> Submodule:
    """Induced module structure on the invariant subspace spanned by the
    columns of ``basis``, which are row-reduced here (identity at the pivot
    rows); raises if the subspace is not invariant under the generator
    actions.
    """
    f = m.field
    reduced, pivot_rows = rref_array(f, basis.T)
    basis = reduced.T
    gens = []
    for a in m.gens:
        img = f.matmul(a, basis)
        coeffs = img[pivot_rows]
        if not np.array_equal(f.matmul(basis, coeffs), img):
            raise ValueError("subspace is not invariant under the generator actions")
        gens.append(coeffs)
    sub = ModuleRep(f, gens, m.convention, allow_large=True)
    return Submodule(sub, basis, pivot_rows)


@dataclass
class Quotient:
    """A quotient module with projection and a linear section."""

    module: ModuleRep
    projection: np.ndarray  # quotient_dim x ambient_dim
    section: np.ndarray  # ambient_dim x quotient_dim


def quotient_module(m: ModuleRep, subspace: np.ndarray) -> Quotient:
    """Quotient of m by an invariant subspace (columns)."""
    f = m.field
    rows, piv = rref_array(f, subspace.T)
    pivots = set(piv)
    free = [j for j in range(m.dim) if j not in pivots]
    proj = np.zeros((len(free), m.dim), dtype=np.int64)
    proj[np.arange(len(free)), free] = 1
    if piv:
        # v mod subspace: subtract pivot-coordinate multiples of the reduced rows
        proj[:, piv] = f.neg(rows[:, free].T)
    section = np.zeros((m.dim, len(free)), dtype=np.int64)
    section[free, np.arange(len(free))] = 1
    gens = []
    for a in m.gens:
        if np.any(f.matmul(proj, f.matmul(a, rows.T))):
            raise ValueError("subspace is not invariant under the generator actions")
        gens.append(f.matmul(proj, f.matmul(a, section)))
    quot = ModuleRep(f, gens, m.convention, allow_large=True)
    return Quotient(quot, proj, section)


# ---------------------------------------------------------------------------
# free summand splitting
# ---------------------------------------------------------------------------

def _monomial_columns(m: ModuleRep, vectors: np.ndarray) -> np.ndarray:
    """Columns A^mu v_j for all monomials mu and the given vectors v_j.

    Column order: vector index outermost, monomial index (mixed radix,
    exponent of t_1 least significant) innermost.  The columns are built
    one generator at a time: the columns so far, then their images under
    A_i, A_i^2, ..., A_i^(p-1), which makes the exponent of t_i the next
    more significant digit.
    """
    cols = vectors
    for a in m.gens:
        powers = [cols]
        for _ in range(m.p - 1):
            powers.append(m.field.matmul(a, powers[-1]))
        cols = np.hstack(powers)
    count, nvec = m.p**m.r, vectors.shape[1]
    return cols.reshape(m.dim, count, nvec).transpose(0, 2, 1).reshape(m.dim, nvec * count)


def _theta(m: ModuleRep) -> np.ndarray:
    """Product of all generator actions, each to the (p-1)-st power."""
    return _monomial(m.field, m.gens, [m.p - 1] * m.r)


@dataclass
class SplitResult:
    free_rank: int
    core: ModuleRep
    core_basis: np.ndarray  # columns in the ambient module
    core_pivot_rows: list[int]
    core_projection: np.ndarray  # core coords of the complement projection


def split_free(m: ModuleRep) -> SplitResult:
    """Split off the maximal free direct summand.

    The free rank is the rank of theta = (t_1 ... t_r)^(p-1).  A retraction
    onto the free part is assembled from dual functionals of the theta
    images (socle coordinates), which avoids solving a large intertwining
    system; the remaining summand is the kernel of that retraction.
    """
    f = m.field
    count = m.p**m.r
    theta = _theta(m)
    work = theta.copy()
    piv_cols = _echelonize(f, work, m.dim)
    t = len(piv_cols)
    if t == 0:
        basis = np.eye(m.dim, dtype=np.int64)
        return SplitResult(0, m, basis, list(range(m.dim)), basis)
    vectors = np.zeros((m.dim, t), dtype=np.int64)
    vectors[piv_cols, np.arange(t)] = 1
    free_cols = _monomial_columns(m, vectors)
    # psi_j, the coordinate functional of the socle column A^(p-1,...,p-1) v_j
    # in the basis that extends the free columns by the standard vectors off
    # the pivots of free_cols^T, vanishes off those pivots and solves
    # free_cols^T psi = E there (E: unit columns at j count + count - 1).
    # One elimination of [free_cols^T | E] gives the rank and that system.
    n = t * count
    aug = np.zeros((n, m.dim + t), dtype=np.int64)
    aug[:, : m.dim] = free_cols.T
    aug[np.arange(t) * count + count - 1, m.dim + np.arange(t)] = 1
    pivots = _echelonize(f, aug, m.dim)
    if len(pivots) != n:
        raise AssertionError("theta-independent vectors failed to generate freely")
    psi = np.zeros((m.dim, t), dtype=np.int64)
    psi[pivots] = _back_substitute(f, aug[:, pivots], aug[:, m.dim :])
    # the retraction is the sum over j and monomials mu of the column A^mu v_j
    # times the row psi_j A^(top - mu).  Those rows, transposed, are the
    # monomial columns of psi_j^T under the transposed actions, where the
    # column of top - mu sits at count - 1 - mu within block j.
    transposed = ModuleRep(f, [a.T for a in m.gens], allow_large=True)
    dual_cols = _monomial_columns(transposed, psi)
    rows = dual_cols.reshape(m.dim, t, count)[:, :, ::-1].reshape(m.dim, n).T
    retraction = f.matmul(free_cols, rows)
    core_basis = nullspace_array(f, retraction)
    if core_basis.shape[1] != m.dim - n:
        raise AssertionError("free splitting lost dimensions")
    sub = submodule(m, core_basis)
    if _theta(sub.module).any():
        raise AssertionError("core still contains a free summand")
    # core coordinates of id - retraction: a module projection onto the core
    complement_proj = np.eye(m.dim, dtype=np.int64)
    complement_proj = f.sub(complement_proj, retraction)[sub.pivot_rows, :]
    return SplitResult(t, sub.module, sub.basis, sub.pivot_rows, complement_proj)


# ---------------------------------------------------------------------------
# minimal projective covers and Heller shifts
# ---------------------------------------------------------------------------

@dataclass
class CoverData:
    """Internal cover/kernel data, free source kept structural.

    cover_matrix sends the free module of the given rank onto the module;
    kernel_basis columns (with identity at kernel_pivot_rows) present the
    Heller shift inside the free source.
    """

    rank: int
    cover_matrix: np.ndarray  # module dim x (rank * p^r)
    kernel_basis: np.ndarray
    kernel_pivot_rows: list[int]
    omega: ModuleRep


def _free_row(p: int, r: int, block: int, i: int, power: int) -> int:
    """Row of t_i^power in rank block ``block`` of a free module: blocks of
    p^r monomials, each indexed in mixed radix with the exponent of t_1
    least significant, the order of ``_monomial_columns``."""
    return block * p**r + power * p**i


def _free_shift(p: int, r: int, i: int, mat: np.ndarray) -> np.ndarray:
    """t_i applied to the rows of a matrix on a free module: rows are rank
    blocks of p^r monomials, and t_i raises the exponent of t_i by one, so
    rows with exponent p - 1 go to zero."""
    rows, cols = mat.shape
    blocks = mat.reshape(rows // p**r, p ** (r - 1 - i), p, p**i, cols)
    out = np.zeros_like(blocks)
    out[:, :, 1:] = blocks[:, :, :-1]
    return out.reshape(rows, cols)


def _cover_kernel(m: ModuleRep) -> CoverData:
    """Minimal projective cover of m and the kernel with its induced action."""
    f = m.field
    # the pivots of the rows of hstack(gens)^T, which span rad m, mark the
    # coordinates that rad m covers; the others lift a basis of m / rad m.
    # _echelonize alone gives the same pivots, but the benchmark's
    # exactalg.elim counters hook only the public elimination entry points,
    # and on shift-types this is the one such call (see CHANGES.md)
    _, rad_piv = rref_array(f, np.vstack([a.T for a in m.gens]))
    rad_pivots = set(rad_piv)
    lift_idx = [j for j in range(m.dim) if j not in rad_pivots]
    d = len(lift_idx)
    vectors = np.zeros((m.dim, d), dtype=np.int64)
    vectors[lift_idx, np.arange(d)] = 1
    cover = _monomial_columns(m, vectors)
    work = cover.copy()
    piv = _echelonize(f, work, cover.shape[1])
    if len(piv) != m.dim:
        raise AssertionError("cover map is not surjective")
    kernel = _kernel_from_echelon(f, work, piv, cover.shape[1])
    # the nullspace basis carries an identity block on the free columns
    pivots = set(piv)
    kernel_piv_rows = [j for j in range(cover.shape[1]) if j not in pivots]
    gens = [_free_shift(m.p, m.r, i, kernel)[kernel_piv_rows] for i in range(m.r)]
    omega = ModuleRep(f, gens, m.convention, allow_large=True)
    return CoverData(d, cover, kernel, kernel_piv_rows, omega)


@dataclass
class CoverResult:
    """Public result of projective_cover_omega."""

    cover: ModuleHom
    omega: ModuleRep
    inclusion: ModuleHom  # omega -> free source


def projective_cover_omega(m: ModuleRep) -> CoverResult:
    """Minimal projective cover and its kernel (the first Heller shift).

    The cover is a free module of rank dim(m / rad m); generator j maps to
    the lift of the j-th basis vector of m/rad m (first standard-vector
    extension in column order).  The kernel is asserted projective-free.
    """
    data = _cover_kernel(m)
    source = free_module(m.field, m.r, data.rank, m.convention)
    cover = ModuleHom(source, m, data.cover_matrix)
    inclusion = ModuleHom(data.omega, source, data.kernel_basis)
    if _theta(data.omega).any():
        raise AssertionError("Heller shift of a minimal cover must be projective-free")
    return CoverResult(cover, data.omega, inclusion)


class _MemoCache(OrderedDict):
    """An LRU dict of ``_module_memo`` entries, each kept as an (entry,
    size) pair, that keeps their summed size in ``weight``, so a miss need
    not weigh every entry again; ``clear`` (the benchmark's per-pass reset
    calls it) zeroes the sum."""

    weight = 0

    def clear(self) -> None:
        super().clear()
        self.weight = 0


# The budget of _module_cache, in bytes.  One pass of each benchmark
# workload fits (seed 7): shift-types keeps the 9 levels of Omega^n k at
# p = 5, r = 3, 40.8 MiB of generators; cli-carlson 12 levels of 4 towers
# (7.6 MiB) and 15 typed levels; zoo-sweep 34 typed levels (0.79 MiB).
MODULE_CACHE_BYTES = 64 << 20
# Heller-shift levels ("shift", n) and typed sweep levels ("level", e) of
# modules, least recently used first.
_module_cache: _MemoCache[tuple, tuple[object, int]] = _MemoCache()
_T = TypeVar("_T")


def _memo_key(m: ModuleRep, extra: tuple) -> tuple:
    """The key of (m, *extra) in ``_module_cache``; see ``_module_memo``."""
    return (m.field, m.convention, m.dim, tuple(a.tobytes() for a in m.gens)) + extra


def _module_memo(m: ModuleRep, extra: tuple, build: Callable[[], _T], weight: Callable[[_T], int]) -> _T:
    """The entry of (m, *extra) in ``_module_cache``, built on a miss and
    marked most recently used.  The key is (m.field, m.convention, m.dim,
    the bytes of each generator) + extra, so a generator written in place
    after an entry was made misses it; a dict lookup compares the whole
    bytes, not a hash alone.  A new entry shares the generator bytes of the
    most recently used entry when they are equal, so the levels of one
    Heller tower, each built right after the one below, hold one copy.

    An entry is kept with its size, the key's generator bytes plus
    weight(entry), taken once when it is added.  After a miss the least
    recently used entries are dropped until the cache holds at most
    ``MODULE_CACHE_BYTES``, but the new entry is always kept."""
    key = _memo_key(m, extra)
    cache = _module_cache
    if key not in cache:
        entry = build()
        last = next(reversed(cache), key)
        if last[3] == key[3]:
            key = key[:3] + (last[3],) + extra
        size = sum(map(len, key[3])) + weight(entry)
        cache[key] = entry, size
        cache.weight += size
        while cache.weight > MODULE_CACHE_BYTES and len(cache) > 1:
            cache.weight -= cache.popitem(last=False)[1][1]
    cache.move_to_end(key)
    return cache[key][0]


def _read_only(m: ModuleRep) -> ModuleRep:
    """Freeze m's generators, which lets m keep their nonzeros."""
    for a in m.gens:
        a.flags.writeable = False
    m._coo = [None] * m.r
    return m


def _generator_entries(m: ModuleRep, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of m.gens[i] as (positions row * dim + col, codes) in
    row-major order; kept in ``m._coo`` when m is frozen, built anew
    otherwise."""
    if m._coo is not None and m._coo[i] is not None:
        return m._coo[i]
    a = m.gens[i].ravel()
    # np.flatnonzero scans a bool mask faster than int64 codes
    positions = np.flatnonzero(a != 0)
    entries = positions, a[positions]
    if m._coo is not None:
        for x in entries:
            x.flags.writeable = False
        m._coo[i] = entries
    return entries


def _shift_level(core: ModuleRep, n: int) -> tuple[ModuleRep, list[int]]:
    """Level n of the Heller tower of a projective-free core: (Omega^n
    core, the rows where its kernel basis in the cover of level n - 1 is the
    identity), one ``_module_cache`` entry keyed ("shift", n) and weighed by
    its generator bytes.  Level 0 is a read-only copy of the core.  Level
    -n is (Omega^n core*)*, built from the levels of the dual; k equals its
    dual, so Omega^(-n) k reuses the covers of Omega^n k.  Levels other
    than n > 0 have no rows.  Levels are shared, with read-only generators.
    """

    def build():
        if n == 0:
            copy = ModuleRep(core.field, [a.copy() for a in core.gens], core.convention, allow_large=True)
            return _read_only(copy), []
        if n > 0:
            # the missing levels below go first, bottom up from the highest
            # one cached, so that no build recurses deeply
            cached = (j for j in range(n - 1, 0, -1) if _memo_key(core, ("shift", j)) in _module_cache)
            for j in range(next(cached, 0) + 1, n - 1):
                _shift_level(core, j)
            data = _cover_kernel(_shift_level(core, n - 1)[0])
            return _read_only(data.omega), data.kernel_pivot_rows
        return _read_only(dual(_shift(dual(core), -n))), []

    return _module_memo(core, ("shift", n), build, lambda level: sum(a.nbytes for a in level[0].gens))


def _shift(core: ModuleRep, n: int) -> ModuleRep:
    """Omega^n of a projective-free core: the only loop over minimal covers."""
    return _shift_level(core, n)[0]


def omega_n(m: ModuleRep, n: int) -> ModuleRep:
    """Iterated Heller shift of the projective-free core of m, split off before any dual."""
    return _shift(split_free(m).core, n)


# ---------------------------------------------------------------------------
# stable vanishing and extensions
# ---------------------------------------------------------------------------

def factors_through_projective(fmap: ModuleHom) -> bool:
    """Whether fmap factors through a projective module (is stably zero).

    By Higman's criterion the maps M -> N that factor through a projective
    are theta . Hom_k(M, N), for theta = (t_1 ... t_r)^(p-1), the integral of
    kE under either convention, acting on hom(M, N) = dual(M) (x) N.  The
    coordinates of fmap there are its transposed matrix read row by row, so
    fmap factors iff they lie in the column space of theta on hom(M, N).
    """
    h = hom(fmap.source, fmap.target)
    aug = np.hstack([_theta(h), fmap.matrix.T.reshape(-1, 1)])
    # columns are eliminated in order: the appended column takes a pivot
    # iff it is not a combination of theta's columns
    return h.dim not in _echelonize(h.field, aug, h.dim + 1)


@dataclass
class ExtensionResult:
    middle: ModuleRep
    include: ModuleHom  # left end -> middle
    project: ModuleHom  # middle -> right end


def build_extension(fmap: ModuleHom, right: ModuleRep) -> ExtensionResult:
    """Extension of `right` by fmap.target along fmap: Omega^1(right) -> target.

    The middle term is (M + P)/{(f(w), -w)} for P the minimal cover of
    `right`; its class is the one represented by fmap.
    """
    m = fmap.target
    f = m.field
    fmap.require_intertwiner()
    data = _cover_kernel(right)
    if fmap.source.dim != data.omega.dim or any(
        not np.array_equal(a, b) for a, b in zip(fmap.source.gens, data.omega.gens)
    ):
        raise ValueError("fmap source must be the first Heller shift of `right`")
    ambient = direct_sum([m, free_module(f, m.r, data.rank, m.convention)])
    graph = np.vstack([fmap.matrix, f.neg(data.kernel_basis)])
    quot = quotient_module(ambient, graph)
    middle = quot.module
    if middle.dim != m.dim + right.dim:
        raise AssertionError("extension middle term has the wrong dimension")
    incl_matrix = quot.projection[:, : m.dim]
    include = ModuleHom(m, middle, incl_matrix).require_intertwiner()
    proj_matrix = f.matmul(data.cover_matrix, quot.section[m.dim :])
    project = ModuleHom(middle, right, proj_matrix).require_intertwiner()
    if rank_array(f, incl_matrix) != m.dim:
        raise AssertionError("left end does not embed")
    if rank_array(f, proj_matrix) != right.dim:
        raise AssertionError("projection to the right end is not surjective")
    if np.any(f.matmul(proj_matrix, incl_matrix)):
        raise AssertionError("extension maps do not compose to zero")
    return ExtensionResult(middle, include, project)
