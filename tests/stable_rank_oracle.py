"""Reference stable-rank hypothesis: the per-point splitting route.

It restricts source and target to the point, splits the free summands off
both with ``split_free`` and asks the induced map of cores to be onto.  The
library decides the same question by the rank identity of
``syzygy._onto_on_cores``; the tests compare the two point by point.
"""

from __future__ import annotations

from cjt.constancy import PiPoint, evaluate, point_field
from cjt.exactalg import rank_array
from cjt.modrep import ModuleHom, ModuleRep, split_free


def restrict_to_point(m: ModuleRep, q: PiPoint) -> ModuleRep:
    """The module viewed over a single generator acting as the point's
    matrix."""
    return ModuleRep(point_field(m, q), [evaluate(m, q)], m.convention, allow_large=True)


def stable_rank_full(phi: ModuleHom, q: PiPoint) -> bool:
    """Whether the restriction of phi at q is surjective on stable cores."""
    src = restrict_to_point(phi.source, q)
    tgt = restrict_to_point(phi.target, q)
    field = src.field
    split_s = split_free(src)
    split_t = split_free(tgt)
    if split_t.core.dim == 0:
        return True
    core_map = field.matmul(
        split_t.core_projection, field.matmul(phi.matrix % phi.source.field.q, split_s.core_basis)
    )
    return rank_array(field, core_map) == split_t.core.dim
