"""Heller shifts of the trivial module and degree-n cocycles.

A degree-n cocycle is carried by an on-the-nose module map from the n-th
Heller shift of the trivial module to the trivial module; the space of
such maps has the binomial dimension of degree-n cohomology, which is the
cross-check that the kernel chain lost nothing.  Coordinate ("factor-i")
generators in degrees one and two are single coordinates of the minimal
resolution, and restriction of a cocycle to a point is a row-space
membership test after evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from cjt.constancy import PiPoint, evaluate, point_field
from cjt.exactalg import Field, _echelonize, _power, rank_array, solve_linear
from cjt.modrep import (
    Convention,
    ModuleHom,
    ModuleRep,
    _cover_kernel,
    _free_row,
    _monomial_columns,
    _shift,
    _shift_level,
    free_module,
    hom_space,
    trivial_module,
)

__all__ = [
    "CocycleClass",
    "omega_k",
    "omega_dim_formula",
    "cohomology_basis",
    "restrict_cocycle",
    "factor_generator",
    "cocycle_product",
    "shift_hom",
]


@dataclass
class CocycleClass:
    degree: int
    carrier: ModuleHom
    tag: str = ""

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("cocycle degree must be >= 1")
        if self.carrier.target.dim != 1:
            raise ValueError("cocycle carrier must map to the trivial module")


def omega_k(field: Field, r: int, n: int, convention: Convention = Convention.PRIMITIVE) -> ModuleRep:
    """n-th Heller shift of the trivial module, from its cached levels;
    positive shifts are checked against the closed dimension formula."""
    if r < 1:
        raise ValueError("need r >= 1")
    shift = _shift(trivial_module(field, r, 1, convention), n)
    if n > 0 and shift.dim != (expected := omega_dim_formula(field.p, r, n)):
        raise AssertionError(f"dim of shift {n} is {shift.dim}, closed formula gives {expected}")
    return shift


def omega_dim_formula(p: int, r: int, n: int) -> int:
    """p^r * (alternating sum of binomials) + (-1)^n, for n > 0."""
    if n <= 0:
        raise ValueError("closed formula applies to positive degrees")
    acc = 0
    for i in range(n):
        acc += (-1) ** i * comb(n - 1 - i + r - 1, r - 1)
    return p**r * acc + (-1) ** n


def cohomology_basis(
    field: Field, r: int, n: int, convention: Convention = Convention.PRIMITIVE
) -> list[CocycleClass]:
    """Basis of degree-n cocycles as maps out of the n-th Heller shift.

    Every nonzero intertwiner to the trivial module is stably nonzero
    here: the shift has no projective summand, and a map to k through a
    projective would need a map onto kE, which would split off.  The
    binomial count certifies the basis.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    source = omega_k(field, r, n, convention)
    k = trivial_module(field, r, 1, convention)
    classes = [
        CocycleClass(n, h, tag=f"deg{n}-basis-{idx}") for idx, h in enumerate(hom_space(source, k))
    ]
    expected = comb(n + r - 1, r - 1)
    if len(classes) != expected:
        raise AssertionError(
            f"found {len(classes)} stably nonzero cocycles in degree {n}, expected {expected}"
        )
    return classes


def restrict_cocycle(c: CocycleClass, q: PiPoint) -> str:
    """ZERO or NONZERO: whether the class dies at the restriction point.

    Along a point, a functional is stably zero iff it lies in the row space
    of the (p-1)-st power of the point's matrix on the carrier source: the
    stable-rank identity of ``_onto_on_cores`` with the trivial target.
    """
    if q.tail:
        raise ValueError("cocycle restriction is defined at linear points")
    return "NONZERO" if _onto_on_cores(c.carrier, q) else "ZERO"


def _onto_on_cores(phi: ModuleHom, q: PiPoint) -> bool:
    """Whether the restriction of phi at q is onto on stable cores.

    With A and B the matrices of q on the source S and the target T, the
    map is onto on the cores (the summands without free part) iff

        rank [[A^(p-1), 0], [phi, B]] - rank A^(p-1) = dim T - rank B^(p-1).

    Over k[t]/t^p, ker A^(p-1) = core_S + rad F_S for the free part F_S,
    and phi(rad F_S) lies in im B.  So phi(ker A^(p-1)) + im B lies in
    ker B^(p-1) = core_T + rad F_T, and by Nakayama and the modular law
    the core map is onto iff the two spaces are equal.  The block matrix
    has rank rank A^(p-1) + dim(phi(ker A^(p-1)) + im B), and ker B^(p-1)
    has dimension dim T - rank B^(p-1).  A free target and p = 2 need no
    special case.
    """
    field = point_field(phi.source, q)
    a = evaluate(phi.source, q)
    b = evaluate(phi.target, q)
    s, t = phi.source.dim, phi.target.dim
    top_a = _power(field.matmul, a, field.p - 1)
    top_b = _power(field.matmul, b, field.p - 1)
    # reduced as codes of the modules' field: mod p over GF(p), and kept
    # whole over GF(p^e), where a residue mod p is another element
    codes = phi.matrix % phi.source.field.q
    block = np.block([[top_a, np.zeros((s, t), dtype=np.int64)], [codes, b]])
    # columns go in order: the pivots before column dim S count rank A^(p-1)
    pivots = _echelonize(field, np.ascontiguousarray(block.T), s + t)
    return sum(c >= s for c in pivots) == t - rank_array(field, top_b)


# ---------------------------------------------------------------------------
# coordinate generators, read off the minimal resolution
# ---------------------------------------------------------------------------

def factor_generator(
    field: Field, r: int, i: int, degree: int, convention: Convention = Convention.PRIMITIVE
) -> CocycleClass:
    """The coordinate cocycle of the i-th generator direction.

    Omega^degree k sits inside the free cover of Omega^(degree-1) k, and
    the carrier reads one coordinate there.  Degree 1: the coefficient of
    the monomial t_i in Omega^1 k = rad kE, the functional dual to t_i
    modulo the radical.  Degree 2: the coefficient of t_i^(p-1) e_i, where
    e_i is the free generator over t_i.  The cover sends either coordinate
    to zero, so the carrier is a unit row.  Along a point with linear part
    (a_1, ..., a_r) the degree-2 class is a_i^p times the periodicity class.
    """
    if not 0 <= i < r:
        raise ValueError(f"generator index {i} out of range")
    if degree not in (1, 2):
        raise ValueError("factor generators are provided in degrees 1 and 2")
    p = field.p
    col = _free_row(p, r, 0, i, 1) if degree == 1 else _free_row(p, r, i, i, p - 1)
    k = trivial_module(field, r, 1, convention)
    source = omega_k(field, r, degree, convention)
    free = _shift_level(k, degree)[1]
    if col not in free:
        raise AssertionError("a coordinate the cover kills must be a free row")
    row = np.eye(1, source.dim, free.index(col), dtype=np.int64)
    carrier = ModuleHom(source, k, row).require_intertwiner()
    return CocycleClass(degree, carrier, tag=f"factor-{i+1} degree-{degree} generator")


# ---------------------------------------------------------------------------
# shifting maps and multiplying cocycles
# ---------------------------------------------------------------------------

def shift_hom(fmap: ModuleHom) -> ModuleHom:
    """First Heller shift of a map between projective-free modules."""
    src, tgt = fmap.source, fmap.target
    f = src.field
    data_s = _cover_kernel(src)
    data_t = _cover_kernel(tgt)
    count = src.p**src.r
    rhs_all = f.matmul(fmap.matrix, data_s.cover_matrix)
    sol = solve_linear(f, data_t.cover_matrix, rhs_all[:, ::count])
    if not sol.consistent:
        raise AssertionError("covers are surjective; generator images must lift")
    # extend to all monomial columns through the free-module action
    free = free_module(f, src.r, data_t.rank, src.convention)
    lifted = _monomial_columns(free, sol.solution)
    shifted = f.matmul(lifted, data_s.kernel_basis)[data_t.kernel_pivot_rows]
    return ModuleHom(data_s.omega, data_t.omega, shifted).require_intertwiner()


def cocycle_product(outer: CocycleClass, inner: CocycleClass) -> CocycleClass:
    """Product class: shift the inner carrier by the outer degree, then
    compose with the outer carrier."""
    shifted = inner.carrier
    for _ in range(outer.degree):
        shifted = shift_hom(shifted)
    carrier = outer.carrier.compose(shifted)
    tag = f"({outer.tag})*({inner.tag})"
    return CocycleClass(outer.degree + inner.degree, carrier, tag)
