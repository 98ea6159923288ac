"""Kernel constructions from cocycle data, and the endotriviality test.

A grid of maps between Heller shifts assembles into one map of direct
sums; its kernel inherits a module structure.  The per-point hypothesis
("full rank after restriction" in the stable sense) asks the restricted
map to be onto on stable cores.  It is decided by three ranks of powers
of the point's matrices and of one block matrix (``syzygy._onto_on_cores``).
The global endotriviality test is one rank of the norm element theta on
the endomorphism module.  No free summand is split off anywhere here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cjt.constancy import PiPoint, _admit_sweep, level_types, sweep_points
from cjt.exactalg import nullspace_array, rank_array
from cjt.jordan import JordanType, stable
from cjt.modrep import (
    ModuleHom,
    ModuleRep,
    _theta,
    direct_sum,
    hom,
    submodule,
    validate,
)
from cjt.syzygy import CocycleClass, _onto_on_cores

__all__ = [
    "KernelResult",
    "HypothesisReport",
    "kernel_of_hom_matrix",
    "l_xi",
    "EndoEvidence",
    "endotrivial_check",
]


@dataclass
class HypothesisReport:
    """Per-point outcome of the stable-rank hypothesis."""

    points: list[tuple[PiPoint, bool]]
    holds_everywhere: bool


@dataclass
class KernelResult:
    kernel: ModuleRep
    map: ModuleHom
    report: HypothesisReport


def kernel_of_hom_matrix(
    grid: list[list[ModuleHom]],
    sources: list[ModuleRep],
    targets: list[ModuleRep],
    max_e: int = 1,
) -> KernelResult:
    """Kernel of the assembled map (sum of sources) -> (sum of targets).

    grid[i][j] maps sources[j] to targets[i].  The hypothesis report checks
    at every swept rational point that the restricted map still has full
    stable rank; a failure is recorded, not raised.
    """
    if not grid or not sources or not targets:
        raise ValueError("grid, sources and targets must be nonempty")
    _admit_sweep(sources[0].field, sources[0].r, max_e)
    if len(grid) != len(targets) or any(len(row) != len(sources) for row in grid):
        raise ValueError("grid shape must be (targets) x (sources)")
    for i, row in enumerate(grid):
        for j, h in enumerate(row):
            if h.source is not sources[j] and h.source.dim != sources[j].dim:
                raise ValueError(f"grid[{i}][{j}] source mismatch")
            if h.target is not targets[i] and h.target.dim != targets[i].dim:
                raise ValueError(f"grid[{i}][{j}] target mismatch")
    source_sum = direct_sum(sources)
    target_sum = direct_sum(targets)
    blocks = [[grid[i][j].matrix for j in range(len(sources))] for i in range(len(targets))]
    phi_matrix = np.block(blocks)
    phi = ModuleHom(source_sum, target_sum, phi_matrix).require_intertwiner()
    sub = submodule(source_sum, nullspace_array(source_sum.field, phi_matrix))
    points = []
    ok = True
    for e in range(1, max_e + 1):
        for q in sweep_points(source_sum.field, source_sum.r, e):
            holds = _onto_on_cores(phi, q)
            ok = ok and holds
            points.append((q, holds))
    return KernelResult(sub.module, phi, HypothesisReport(points, ok))


def l_xi(classes: list[CocycleClass], max_e: int = 1) -> KernelResult:
    """Kernel of the joint cocycle map from the sum of Heller shifts to k,
    with the map and its hypothesis report.

    The classes must not all be zero (the assembled map would fail to be
    surjective).  The kernel dimension is one less than the sum of the
    shift dimensions.
    """
    if not classes:
        raise ValueError("need at least one cocycle class")
    if all(c.carrier.is_zero() for c in classes):
        raise ValueError("all classes are zero; the joint map is not surjective")
    sources = [c.carrier.source for c in classes]
    target = classes[0].carrier.target
    grid = [[c.carrier for c in classes]]
    result = kernel_of_hom_matrix(grid, sources, [target], max_e=max_e)
    expected = sum(s.dim for s in sources) - 1
    if result.kernel.dim != expected:
        raise AssertionError(
            f"kernel dimension {result.kernel.dim} does not match {expected}"
        )
    if not validate(result.kernel).ok:
        raise AssertionError("kernel module failed validation")
    return result


@dataclass
class EndoEvidence:
    global_verdict: bool
    local_verdict: bool
    endo_free_rank: int
    endo_core_dim: int
    stable_types: list[tuple[PiPoint, JordanType]]


def endotrivial_check(m: ModuleRep, max_e: int = 1) -> tuple[bool, EndoEvidence]:
    """Whether the endomorphism module is trivial plus projective.

    The global test reads the free rank of hom(m, m) as the rank of the
    norm element theta = (t_1 ... t_r)^(p-1) on it; the module is
    endotrivial iff the rest, the projective-free core, has dimension one
    (a one-dimensional module has zero action, so that core is k).  The
    global test is the verdict.  The local test, evidence beside it, asks
    the stable type at every swept point to be a single block of size 1 or
    p-1.  Global implies local: at every point the restriction of hom(m, m)
    is k plus free.  The converse needs every point over the algebraic
    closure, so a finite sweep may pass the local test on a module that is
    not endotrivial; only a global pass with a local failure is an error.
    """
    _admit_sweep(m.field, m.r, max_e)
    endo = hom(m, m)
    free_rank = rank_array(m.field, _theta(endo))
    core_dim = endo.dim - free_rank * m.p**m.r
    global_ok = core_dim == 1
    p = m.p
    allowed = {
        JordanType.from_blocks(p, {1: 1}),
        JordanType.from_blocks(p, {p - 1: 1}),
    }
    local_ok = True
    types = []
    for e in range(1, max_e + 1):
        for q, t in level_types(m, e):
            st = stable(t)
            types.append((q, st))
            if st not in allowed:
                local_ok = False
    if global_ok and not local_ok:
        raise AssertionError(
            "the module is endotrivial but a swept point has a stable type "
            "other than [1] or [p-1]"
        )
    return global_ok, EndoEvidence(global_ok, local_ok, free_rank, core_dim, types)
