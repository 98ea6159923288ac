"""Reference split_free: the row-at-a-time version the library replaced.

It inverts the whole change of basis g with a back-substitution of one row
per product and builds the retraction from one row times matrix product per
monomial and vector.  The library's ``split_free`` solves only for the
socle rows of g^(-1) and forms the retraction in one product; the tests
compare every field of the two ``SplitResult``s.
"""

from __future__ import annotations

import numpy as np

from cjt.exactalg import Field, _echelonize, nullspace_array, rank_array, rref_array
from cjt.modrep import (
    ModuleRep,
    SplitResult,
    _monomial_columns,
    _theta,
    submodule,
)


def _inverse_by_rows(field: Field, g: np.ndarray) -> np.ndarray:
    """g^(-1) for an invertible g: eliminate [g | I], then back-substitute one
    row per product."""
    n = g.shape[0]
    aug = np.hstack([g, np.eye(n, dtype=np.int64)])
    piv = _echelonize(field, aug, n)
    if len(piv) != n:
        raise AssertionError("change of basis is singular")
    sol = np.zeros((n, n), dtype=np.int64)
    piv_arr = np.array(piv)
    for i in range(n - 1, -1, -1):
        rhs = aug[i, n:].copy()
        if i + 1 < n:
            rhs = field.sub(
                rhs,
                field.matmul(aug[i, piv_arr[i + 1 :]].reshape(1, -1), sol[piv_arr[i + 1 :]]).ravel(),
            )
        sol[piv[i]] = rhs
    return sol


def split_free_by_rows(m: ModuleRep) -> SplitResult:
    f = m.field
    p, r = m.p, m.r
    count = p**r
    work = _theta(m).copy()
    piv_cols = _echelonize(f, work, m.dim)
    t = len(piv_cols)
    if t == 0:
        basis = np.eye(m.dim, dtype=np.int64)
        return SplitResult(0, m, basis, list(range(m.dim)), basis)
    vectors = np.zeros((m.dim, t), dtype=np.int64)
    vectors[piv_cols, np.arange(t)] = 1
    free_cols = _monomial_columns(m, vectors)
    if rank_array(f, free_cols) != t * count:
        raise AssertionError("theta-independent vectors failed to generate freely")
    _, piv_rows = rref_array(f, free_cols.T)
    pivots = set(piv_rows)
    complement = [j for j in range(m.dim) if j not in pivots]
    g = np.zeros((m.dim, m.dim), dtype=np.int64)
    g[:, : t * count] = free_cols
    for k, j in enumerate(complement):
        g[j, t * count + k] = 1
    ginv = _inverse_by_rows(f, g)
    retraction = np.zeros((m.dim, m.dim), dtype=np.int64)
    for j in range(t):
        rows = np.zeros((count, m.dim), dtype=np.int64)
        rows[count - 1] = ginv[j * count + count - 1]
        for idx in range(count - 2, -1, -1):
            for i in range(r):
                if (idx // p**i) % p < p - 1:
                    rows[idx] = f.matmul(rows[idx + p**i].reshape(1, -1), m.gens[i]).ravel()
                    break
        retraction = f.add(retraction, f.matmul(free_cols[:, j * count : (j + 1) * count], rows))
    core_basis = nullspace_array(f, retraction)
    if core_basis.shape[1] != m.dim - t * count:
        raise AssertionError("free splitting lost dimensions")
    sub = submodule(m, core_basis)
    complement_proj = f.sub(np.eye(m.dim, dtype=np.int64), retraction)[sub.pivot_rows, :]
    return SplitResult(t, sub.module, sub.basis, sub.pivot_rows, complement_proj)
