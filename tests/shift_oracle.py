"""Reference constructions the library replaced by identities.

- ``factor_generator_by_lifts``: the coordinate cocycles found by solving,
  a dual-functional solve in degree 1 and a chain lift through the
  rank-one quotient algebra in degree 2.  The library reads them off the
  minimal resolution as single coordinates.
- ``factor_generator_by_cover``: the same coordinates read as row ``col``
  of the kernel basis of a freshly built cover of Omega^(degree-1) k.  The
  library takes the unit row at that free row of the cached tower.
- ``omega_n_by_steps`` and ``omega_k_minus_by_steps``: negative Heller
  shifts stepped one at a time as dual -> cover -> dual.  The library
  takes (Omega^n M*)* once, from the tower of M*.
- ``unipotent_inverse_by_series``: (I + N)^(-1) as the geometric series
  with one product per term.  The library multiplies the factors
  I + (-N)^(2^i).

The tests compare each with the library byte for byte.
"""

from __future__ import annotations

import numpy as np

from cjt.exactalg import Field, solve_linear
from cjt.modrep import (
    Convention,
    ModuleHom,
    ModuleRep,
    _cover_kernel,
    _monomial_columns,
    dual,
    radical_socle,
    split_free,
    trivial_module,
)
from cjt.syzygy import CocycleClass, omega_k


def unipotent_inverse_by_series(field: Field, a: np.ndarray) -> np.ndarray:
    """(I + a)^(-1) for nilpotent a, via the geometric series."""
    n = a.shape[0]
    out = np.eye(n, dtype=np.int64)
    term = np.eye(n, dtype=np.int64)
    while True:
        term = field.neg(field.matmul(term, a))
        if not np.any(term):
            break
        out = field.add(out, term)
    return out


def _omega_minus_one(m: ModuleRep) -> ModuleRep:
    return dual(_cover_kernel(dual(m)).omega)


def omega_n_by_steps(m: ModuleRep, n: int) -> ModuleRep:
    """Iterated Heller shift of the projective-free core of m."""
    current = split_free(m).core
    if n >= 0:
        for _ in range(n):
            current = _cover_kernel(current).omega
    else:
        for _ in range(-n):
            current = _omega_minus_one(current)
    return current


def omega_k_minus_by_steps(field: Field, r: int, n: int, convention: Convention) -> ModuleRep:
    """Omega^(-n) k for n >= 0, stepped down from the trivial module."""
    current = trivial_module(field, r, 1, convention)
    for _ in range(n):
        current = _omega_minus_one(current)
    return current


def _rank_one_quotient(field: Field, r: int, i: int, convention: Convention) -> tuple[ModuleRep, np.ndarray]:
    """The p-dimensional module where t_i shifts and the others act by
    zero, together with the algebra projection from the rank-r free module
    of rank one (monomial coordinates)."""
    p = field.p
    shift = np.zeros((p, p), dtype=np.int64)
    for s in range(p - 1):
        shift[s + 1, s] = 1
    gens = [shift if j == i else np.zeros((p, p), dtype=np.int64) for j in range(r)]
    v = ModuleRep(field, gens, convention)
    count = p**r
    proj = np.zeros((p, count), dtype=np.int64)
    for idx in range(count):
        exps = [(idx // p**j) % p for j in range(r)]
        if all(e == 0 for j, e in enumerate(exps) if j != i):
            proj[exps[i], idx] = 1
    return v, proj


def factor_generator_by_lifts(
    field: Field, r: int, i: int, degree: int, convention: Convention = Convention.PRIMITIVE
) -> CocycleClass:
    """The coordinate cocycle of the i-th generator direction.

    Degree 1: the functional dual to t_i on the first shift modulo its
    radical.  Degree 2: chain lift of the two-step periodic resolution of
    the rank-one quotient algebra; its restriction dies exactly where the
    i-th coordinate of the point vanishes.
    """
    if not 0 <= i < r:
        raise ValueError(f"generator index {i} out of range")
    p = field.p
    k = trivial_module(field, r, 1, convention)
    if degree == 1:
        omega1 = omega_k(field, r, 1, convention)
        data1 = _cover_kernel(k)
        count = p**r
        tvecs = np.zeros((count, r), dtype=np.int64)
        for j in range(r):
            tvecs[p**j, j] = 1
        coords = tvecs[data1.kernel_pivot_rows]  # t_j in shift coordinates
        rad, _ = radical_socle(omega1)
        lhs = np.hstack([coords, rad])
        rhs = np.zeros((r + rad.shape[1], 1), dtype=np.int64)
        rhs[i, 0] = 1
        sol = solve_linear(field, lhs.T, rhs)
        if not sol.consistent:
            raise AssertionError("dual functional of a generator direction must exist")
        carrier = ModuleHom(omega1, k, sol.solution.T).require_intertwiner()
        return CocycleClass(1, carrier, tag=f"factor-{i+1} degree-1 generator")
    if degree == 2:
        v, proj = _rank_one_quotient(field, r, i, convention)
        data1 = _cover_kernel(k)
        omega1 = data1.omega
        data2 = _cover_kernel(omega1)
        # psi: second cover -> rank-one quotient, through the first kernel
        psi = field.matmul(proj, field.matmul(data1.kernel_basis, data2.cover_matrix))
        count = p**r
        # lift the generator images through the shift, then extend the lifts
        # to every monomial column through the quotient's action
        sol = solve_linear(field, v.gens[i], psi[:, ::count])
        if not sol.consistent:
            raise AssertionError("chain lift must exist: image lies in the shift image")
        g1 = _monomial_columns(v, sol.solution)
        socle_row = field.matmul(g1, data2.kernel_basis)[p - 1].reshape(1, -1)
        if not np.any(socle_row):
            raise AssertionError("coordinate cocycle must be nonzero")
        omega2 = omega_k(field, r, 2, convention)
        carrier = ModuleHom(omega2, k, socle_row).require_intertwiner()
        return CocycleClass(2, carrier, tag=f"factor-{i+1} degree-2 generator")
    raise ValueError("factor generators are provided in degrees 1 and 2")


def factor_generator_by_cover(
    field: Field, r: int, i: int, degree: int, convention: Convention = Convention.PRIMITIVE
) -> CocycleClass:
    """The coordinate cocycle as row ``col`` of the kernel basis of a new
    cover of Omega^(degree-1) k."""
    p = field.p
    col = p**i if degree == 1 else i * p**r + (p - 1) * p**i
    row = _cover_kernel(omega_k(field, r, degree - 1, convention)).kernel_basis[[col]]
    k = trivial_module(field, r, 1, convention)
    carrier = ModuleHom(omega_k(field, r, degree, convention), k, row).require_intertwiner()
    return CocycleClass(degree, carrier, tag=f"factor-{i+1} degree-{degree} generator")
