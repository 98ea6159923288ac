"""Reference projectivity test: the cover-lifting route the library replaced.

It asks for an intertwiner h from the source into the projective cover of
the target with cover . h = fmap: a Kronecker system in the entries of h,
solved with ``solve_linear``, or a row-space test against theta for the
trivial target.  The library decides the same question by one rank of the
norm element theta on hom(source, target) (Higman's criterion); the tests
compare the two.
"""

from __future__ import annotations

import numpy as np

from cjt.exactalg import rank_array, solve_linear
from cjt.modrep import (
    ModuleHom,
    _cover_kernel,
    _theta,
    free_module,
)


def factors_through_projective(fmap: ModuleHom) -> bool:
    """Whether fmap factors through the projective cover of its target.

    Reduces to linear solvability: find h with cover . h = fmap and h an
    intertwiner; detects stably-zero maps.
    """
    if fmap.is_zero():
        return True
    m, n = fmap.source, fmap.target
    f = m.field
    if n.dim == 1 and not any(np.any(a) for a in n.gens):
        # functional target: any factoring map through the rank-one cover is
        # forced to be (top functional) . theta, so membership in the row
        # space of theta decides
        theta = _theta(m)
        base = rank_array(f, theta)
        stacked = np.vstack([theta, fmap.matrix])
        return rank_array(f, stacked) == base
    data = _cover_kernel(n)
    fdim = data.rank * m.p**m.r
    # unknowns: h (fdim x m.dim), row-major vec
    blocks = []
    rhs_blocks = []
    i_f = np.eye(fdim, dtype=np.int64)
    for i in range(m.r):
        # h A_i = F_i h where F_i is the free-source generator
        left = np.kron(i_f, m.gens[i].T)
        fi = free_module(f, m.r, data.rank, m.convention).gens[i]
        right = np.kron(fi, np.eye(m.dim, dtype=np.int64))
        blocks.append(f.sub(left, right))
        rhs_blocks.append(np.zeros((fdim * m.dim, 1), dtype=np.int64))
    blocks.append(np.kron(data.cover_matrix, np.eye(m.dim, dtype=np.int64)))
    rhs_blocks.append(fmap.matrix.reshape(-1, 1))
    return solve_linear(f, np.vstack(blocks), np.vstack(rhs_blocks)).consistent
