"""The stable-rank identity against the splitting route.

``syzygy._onto_on_cores`` decides whether a map restricted to a point is
onto on stable cores from three ranks; the oracle in
``stable_rank_oracle`` splits the free summands off both restricted
modules and ranks the map of cores.  They must agree at every point, for
targets on which the generators act and for targets on which they do not.
"""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from stable_rank_oracle import stable_rank_full

from cjt import modrep
from cjt.carlson import kernel_of_hom_matrix, l_xi
from cjt.constancy import PiPoint, sweep_points
from cjt.exactalg import make_field
from cjt.modrep import ModuleHom, direct_sum, free_module, hom_space, trivial_module
from cjt.syzygy import _onto_on_cores, factor_generator, omega_k
from cjt.zoo import ke_mod_i2, random_module, w_module

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=40)

# level-2 sweeps with more points than this are checked on a sample
LEVEL_LIMIT = 24

# modules built from kE or its first shift only where kE is this small
FREE_DIM_LIMIT = 27


def _module(kind, f, r, seed):
    if kind == "k":
        return trivial_module(f, r, 1)
    if kind == "omega1":
        return omega_k(f, r, 1)
    if kind == "rad2":
        return ke_mod_i2(f, r)
    if kind == "W":
        return w_module(f)
    rand = random_module(f, r, 5 + seed % 4, seed)
    if kind == "random":
        return rand
    part = trivial_module(f, r, 1) if kind == "k+kE" else rand
    return direct_sum([part, free_module(f, r, 1)])


def _kinds(p, r):
    kinds = ["k", "rad2", "random"]
    if p**r <= FREE_DIM_LIMIT:
        kinds += ["omega1", "k+kE", "random+kE"]
    if (p, r) == (5, 2):
        kinds.append("W")
    return kinds


def _points(f, r, rng):
    """Every level-1 point, a sample of level 2, and tailed level-1 points."""
    points = sweep_points(f, r, 1)
    level2 = sweep_points(f, r, 2)
    if len(level2) > LEVEL_LIMIT:
        level2 = [level2[i] for i in sorted(rng.choice(len(level2), LEVEL_LIMIT, replace=False))]
    points += level2
    p = f.p
    monomials = [exps for exps in np.ndindex(*(p,) * r) if sum(exps) >= 2]
    for q in sweep_points(f, r, 1)[:3]:
        picks = rng.choice(len(monomials), min(2, len(monomials)), replace=False)
        tail = tuple((monomials[i], int(rng.integers(1, p))) for i in picks)
        points.append(PiPoint(q.field, q.linear, tail))
    return points


def _map(source, target, rng, combine):
    """A basis map of hom(source, target), or a random combination of the
    basis; the zero map when the hom space is zero."""
    f = source.field
    basis = hom_space(source, target)
    if not basis:
        return ModuleHom(source, target, np.zeros((target.dim, source.dim), dtype=np.int64))
    if not combine:
        return basis[int(rng.integers(len(basis)))]
    mat = np.zeros((target.dim, source.dim), dtype=np.int64)
    for h in basis:
        mat = f.add(mat, f.mul(np.int64(rng.integers(f.p)), h.matrix))
    return ModuleHom(source, target, mat)


@SEEDED
@given(
    pr=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 3)]),
    choice=st.integers(0, 10**6),
    seed=st.integers(0, 50),
    combine=st.booleans(),
)
def test_identity_matches_split_route(pr, choice, seed, combine):
    p, r = pr
    f = make_field(p, 1)
    kinds = _kinds(p, r)
    source = _module(kinds[choice % len(kinds)], f, r, seed)
    target = _module(kinds[choice // len(kinds) % len(kinds)], f, r, seed + 1)
    rng = np.random.default_rng(seed)
    phi = _map(source, target, rng, combine)
    for q in _points(f, r, rng):
        assert _onto_on_cores(phi, q) == stable_rank_full(phi, q), (pr, q)


def test_known_outcomes_hold_and_fail():
    # the identity of a module is onto everywhere; the zero map into the
    # first shift (a core at every point) is onto nowhere; a degree-two
    # coordinate cocycle is onto exactly off its vanishing line
    f = make_field(3, 1)
    m = random_module(f, 2, 7, 3)
    omega1 = omega_k(f, 2, 1)
    identity = ModuleHom(m, m, np.eye(m.dim, dtype=np.int64))
    zero = ModuleHom(m, omega1, np.zeros((omega1.dim, m.dim), dtype=np.int64))
    cocycle = factor_generator(f, 2, 0, 2).carrier
    for e in (1, 2):
        for q in sweep_points(f, 2, e):
            assert _onto_on_cores(identity, q) and stable_rank_full(identity, q)
            assert not _onto_on_cores(zero, q) and not stable_rank_full(zero, q)
            want = bool(q.linear[0])
            assert _onto_on_cores(cocycle, q) == stable_rank_full(cocycle, q) == want


def test_cli_carlson_points_match_split_route():
    # every point of the four `cjt carlson` commands of the benchmark
    configs = [(3, 2, (2, 2), 2), (3, 3, (2, 2, 2), 1), (3, 3, (1, 2, 2), 1), (5, 2, (1, 1), 1)]
    checked = 0
    for p, r, degrees, max_e in configs:
        f = make_field(p, 1)
        classes = [factor_generator(f, r, i % r, d) for i, d in enumerate(degrees)]
        result = l_xi(classes, max_e)
        for q, holds in result.report.points:
            assert holds == stable_rank_full(result.map, q), (p, r, degrees, q)
            checked += 1
    assert checked == 39


def test_kernel_of_hom_matrix_splits_nothing(monkeypatch):
    calls = []
    original = modrep.split_free

    def counted(m):
        calls.append(m.dim)
        return original(m)

    for name, mod in list(sys.modules.items()):
        if (name == "cjt" or name.startswith("cjt.")) and getattr(mod, "split_free", None) is original:
            monkeypatch.setattr(mod, "split_free", counted)
    f = make_field(3, 1)
    classes = [factor_generator(f, 2, 0, 2), factor_generator(f, 2, 1, 2)]
    sources = [c.carrier.source for c in classes]
    res = kernel_of_hom_matrix([[c.carrier for c in classes]], sources, [classes[0].carrier.target], max_e=2)
    assert res.report.holds_everywhere
    assert calls == []


def test_oracle_reads_extension_field_maps_whole():
    # 4 c_1 + c_2 over GF(9), for the degree-2 coordinate cocycles c_i: code 4
    # lies outside GF(3), so a carrier read mod 3 is another map
    f = make_field(3, 2)
    c1, c2 = (factor_generator(f, 2, i, 2).carrier for i in range(2))
    phi = ModuleHom(c1.source, c1.target, f.add(f.mul(np.int64(4), c1.matrix), c2.matrix))
    points = sweep_points(f, 2, 1)
    assert [_onto_on_cores(phi, q) for q in points] == [stable_rank_full(phi, q) for q in points]
    assert _onto_on_cores(phi, PiPoint(f, (1, 2)))
