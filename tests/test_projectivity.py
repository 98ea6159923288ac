"""Projectivity by ranks of the norm element theta against the old routes.

``factors_through_projective`` decides whether a map is stably zero by one
rank of theta on hom(source, target) (Higman's criterion), and
``endotrivial_check`` reads the free rank of the endomorphism module as the
rank of theta.  The oracles are the cover-lifting Kronecker system of
``projective_factor_oracle`` and ``split_free`` of hom(m, m).
"""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from projective_factor_oracle import factors_through_projective as factors_by_lifting
from stable_rank_oracle import restrict_to_point

from cjt import exactalg, modrep
from cjt.carlson import endotrivial_check
from cjt.constancy import sweep_points
from cjt.exactalg import make_field
from cjt.modrep import (
    Convention,
    ModuleHom,
    direct_sum,
    factors_through_projective,
    free_module,
    hom,
    hom_space,
    split_free,
    trivial_module,
)
from cjt.syzygy import omega_k
from cjt.zoo import ke_mod_i2, random_module

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# basis maps checked per pair of modules in the deterministic sweep
MAPS_PER_PAIR = 2

# (p, e, r): the prime fields and GF(4), GF(9)
FIELDS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (5, 1, 2), (2, 2, 2), (3, 2, 2)]

KINDS = ["k", "omega1", "omega-1", "omega2", "kE", "k+kE", "rad2", "random"]

# pairs of modules whose dimensions multiply past this are skipped: the
# oracle's Kronecker system grows with the product
HOM_DIM_LIMIT = 300


def _module(kind, f, r, convention, seed):
    if kind == "k":
        return trivial_module(f, r, 1, convention)
    if kind.startswith("omega"):
        return omega_k(f, r, int(kind[5:]), convention)
    if kind == "kE":
        return free_module(f, r, 1, convention)
    if kind == "k+kE":
        return direct_sum([trivial_module(f, r, 1, convention), free_module(f, r, 1, convention)])
    if kind == "rad2":
        return ke_mod_i2(f, r, convention)
    return random_module(f, r, 2 + seed % 7, seed, convention)


def _map(source, target, rng, combine):
    """A basis map of hom_space(source, target) or a random combination of
    the basis; the zero map when the hom space is zero."""
    f = source.field
    basis = hom_space(source, target)
    if not basis:
        return ModuleHom(source, target, np.zeros((target.dim, source.dim), dtype=np.int64))
    if not combine:
        return basis[int(rng.integers(len(basis)))]
    mat = np.zeros((target.dim, source.dim), dtype=np.int64)
    for h in basis:
        mat = f.add(mat, f.mul(np.int64(rng.integers(f.q)), h.matrix))
    return ModuleHom(source, target, mat)


def _pair(fields_index, choice, seed, convention, at_point):
    p, e, r = FIELDS[fields_index]
    f = make_field(p, e)
    source = _module(KINDS[choice % len(KINDS)], f, r, convention, seed)
    target = _module(KINDS[choice // len(KINDS) % len(KINDS)], f, r, convention, seed + 1)
    if at_point:
        # r = 1: both ends restricted to one level-1 point
        points = sweep_points(f, r, 1)
        q = points[seed % len(points)]
        source, target = restrict_to_point(source, q), restrict_to_point(target, q)
    return source, target


@SEEDED
@given(
    fields_index=st.integers(0, len(FIELDS) - 1),
    choice=st.integers(0, 10**6),
    seed=st.integers(0, 50),
    convention=st.sampled_from(list(Convention)),
    at_point=st.booleans(),
    combine=st.booleans(),
)
def test_theta_rank_matches_cover_lifting(fields_index, choice, seed, convention, at_point, combine):
    source, target = _pair(fields_index, choice, seed, convention, at_point)
    if source.dim * target.dim > HOM_DIM_LIMIT:
        return
    fmap = _map(source, target, np.random.default_rng(seed), combine)
    assert factors_through_projective(fmap) == factors_by_lifting(fmap)


def test_both_outcomes_on_every_field_and_convention():
    # the first basis maps between the smaller fixtures, on every field,
    # both conventions, and restricted to the first level-1 point
    for p, e, r in FIELDS:
        f = make_field(p, e)
        for convention in Convention:
            seen = set()
            for src_kind in ("k", "omega1", "kE", "k+kE"):
                for tgt_kind in ("k", "omega1"):
                    for at_point in (False, True):
                        source = _module(src_kind, f, r, convention, 3)
                        target = _module(tgt_kind, f, r, convention, 4)
                        if at_point:
                            q = sweep_points(f, r, 1)[0]
                            source, target = restrict_to_point(source, q), restrict_to_point(target, q)
                        if source.dim * target.dim > HOM_DIM_LIMIT:
                            continue
                        for h in hom_space(source, target)[:MAPS_PER_PAIR]:
                            got = factors_through_projective(h)
                            assert got == factors_by_lifting(h), (p, e, r, convention, src_kind, tgt_kind)
                            seen.add(got)
            assert seen == {True, False}, (p, e, r, convention)


def _endo_split(m):
    res = split_free(hom(m, m))
    return res.free_rank, res.core.dim


@SEEDED
@given(
    pr=st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]),
    dim=st.integers(1, 6),
    seed=st.integers(0, 1000),
    convention=st.sampled_from(list(Convention)),
)
def test_endo_free_rank_matches_split_free_on_random_modules(pr, dim, seed, convention):
    p, r = pr
    m = random_module(make_field(p, 1), r, dim, seed, convention)
    _, ev = endotrivial_check(m)
    assert (ev.endo_free_rank, ev.endo_core_dim) == _endo_split(m)


def test_endo_free_rank_matches_split_free_on_heller_shifts():
    for p, e, r, shifts in [(2, 1, 2, (-2, -1, 1, 2, 3)), (3, 1, 2, (-1, 1, 2)), (2, 1, 3, (-1, 1)), (3, 2, 2, (1,))]:
        f = make_field(p, e)
        for convention in Convention:
            for n in shifts:
                m = omega_k(f, r, n, convention)
                verdict, ev = endotrivial_check(m)
                assert verdict and ev.endo_core_dim == 1
                assert (ev.endo_free_rank, ev.endo_core_dim) == _endo_split(m), (p, e, r, convention, n)


def _count_calls(monkeypatch, module, name):
    """Route every cjt reference to module.name through a counter."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if (modname == "cjt" or modname.startswith("cjt.")) and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_endotrivial_check_splits_nothing(monkeypatch):
    f = make_field(3, 1)
    shift, rad2 = omega_k(f, 2, 2), ke_mod_i2(f, 2)
    calls = _count_calls(monkeypatch, modrep, "split_free")
    assert endotrivial_check(shift)[0]
    assert not endotrivial_check(rad2)[0]
    assert calls == []


def test_factoring_solves_nothing(monkeypatch):
    f = make_field(3, 1)
    source, target = omega_k(f, 2, 1), omega_k(f, 2, -1)
    maps = hom_space(source, target) + hom_space(source, trivial_module(f, 2, 1))
    calls = _count_calls(monkeypatch, exactalg, "solve_linear")
    answers = [factors_through_projective(h) for h in maps]
    assert True in answers and False in answers
    assert calls == []
