"""Heller shifts and coordinate cocycles against the constructions they replaced.

The library reads the coordinate cocycles off the minimal resolution as
unit rows of its one cached tower, takes a negative shift as the dual of a
positive one, and inverts I + N as a product of factors.  ``shift_oracle``
keeps the solving, cover-reading, stepping and geometric-series versions;
every matrix must agree byte for byte.
"""

import sys

import numpy as np
import pytest
from shift_oracle import (
    factor_generator_by_cover,
    factor_generator_by_lifts,
    omega_k_minus_by_steps,
    omega_n_by_steps,
    unipotent_inverse_by_series,
)
from test_consistency import _hide_free_summand

from cjt import constancy, exactalg, modrep
from cjt.constancy import level_types
from cjt.exactalg import _unipotent_inverse, make_field
from cjt.modrep import Convention, dual
from cjt.syzygy import factor_generator, omega_k
from cjt.zoo import random_module

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (2, 2), (2, 3), (3, 2), (5, 2)]

# coordinate cocycles are compared where kE has at most this dimension
FREE_DIM_LIMIT = 125


def _same_module(a, b):
    return a.field == b.field and a.dim == b.dim and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a.gens, b.gens)
    )


@pytest.mark.parametrize("p,e", FIELDS)
def test_factor_generators_match_lifts(p, e):
    f = make_field(p, e)
    for r in range(1, 5):
        if p**r > FREE_DIM_LIMIT:
            continue
        for conv in Convention:
            for degree in (1, 2):
                for i in range(r):
                    got = factor_generator(f, r, i, degree, conv)
                    want = factor_generator_by_lifts(f, r, i, degree, conv)
                    assert got.tag == want.tag
                    assert got.carrier.matrix.dtype == want.carrier.matrix.dtype
                    assert np.array_equal(got.carrier.matrix, want.carrier.matrix), (r, conv, degree, i)
                    assert _same_module(got.carrier.source, want.carrier.source)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)])
def test_factor_generators_match_cover_rows(p, e):
    f = make_field(p, e)
    for r in (1, 2, 3):
        for conv in Convention:
            for degree in (1, 2):
                for i in range(r):
                    got = factor_generator(f, r, i, degree, conv)
                    want = factor_generator_by_cover(f, r, i, degree, conv)
                    assert got.tag == want.tag
                    assert got.carrier.matrix.dtype == want.carrier.matrix.dtype
                    assert np.array_equal(got.carrier.matrix, want.carrier.matrix), (r, conv, degree, i)
                    assert got.carrier.source is want.carrier.source


def test_factor_generator_solves_nothing(monkeypatch):
    calls = []
    original = exactalg.solve_linear

    def counted(field, a, b):
        calls.append(a.shape)
        return original(field, a, b)

    for name, mod in list(sys.modules.items()):
        if (name == "cjt" or name.startswith("cjt.")) and getattr(mod, "solve_linear", None) is original:
            monkeypatch.setattr(mod, "solve_linear", counted)
    monkeypatch.setattr(modrep, "_module_cache", modrep._MemoCache())
    for f in (make_field(3, 1), make_field(3, 2)):
        for conv in Convention:
            for degree in (1, 2):
                for i in range(2):
                    factor_generator(f, 2, i, degree, conv)
    assert calls == []


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_negative_omega_k_matches_steps(p, e):
    f = make_field(p, e)
    for r in (1, 2, 3):
        if p**r > 27:
            continue
        for conv in Convention:
            for n in range(1, 5 if p**r <= 9 else 4):
                got = omega_k(f, r, -n, conv)
                assert _same_module(got, omega_k_minus_by_steps(f, r, n, conv)), (r, conv, n)
                assert omega_k(f, r, -n, conv) is got


def _count_covers(monkeypatch):
    calls = []
    original = modrep._cover_kernel
    monkeypatch.setattr(modrep, "_cover_kernel", lambda m: calls.append(m.dim) or original(m))
    monkeypatch.setattr(modrep, "_module_cache", modrep._MemoCache())
    return calls


def test_omega_k_at_zero_builds_no_cover(monkeypatch):
    calls = _count_covers(monkeypatch)
    f = make_field(3, 1)
    for r in (1, 5, 11):
        assert omega_k(f, r, 0).dim == 1
    assert calls == []
    omega_k(f, 2, -2)
    assert calls == [1, 8]
    # the cached levels of k at r = 2: level 0 and the levels -2 was built from
    gens = tuple(a.tobytes() for a in modrep.trivial_module(f, 2, 1).gens)
    assert sorted(key[5] for key in modrep._module_cache if key[3] == gens) == [-2, 0, 1, 2]


@pytest.mark.parametrize("conv", list(Convention))
def test_one_tower_serves_both_signs_and_the_cocycles(monkeypatch, conv):
    calls = _count_covers(monkeypatch)
    f = make_field(3, 1)
    k = modrep.trivial_module(f, 2, 1, conv)
    # the order of the benchmark's shift-types jobs: n = 1, -1, ..., 4, -4
    shifts = {0: modrep.omega_n(k, 0)}
    for n in range(1, 5):
        shifts[n] = modrep.omega_n(k, n)
        shifts[-n] = modrep.omega_n(k, -n)
    assert calls == [1, 8, 10, 17]
    # omega_k reads the same tower, and a hit returns the same object
    assert all(omega_k(f, 2, n, conv) is shifts[n] for n in shifts)
    calls.clear()
    for degree in (1, 2):
        for i in range(2):
            factor_generator(f, 2, i, degree, conv)
    assert calls == []


def test_cleared_caches_rebuild_the_tower(monkeypatch):
    # the rule by which the benchmark empties caches before each pass: every
    # module-level dict of cjt with "cache" in its name, and functools caches
    f = make_field(3, 1)
    before = omega_k(f, 2, 2)
    swept = level_types(before, 1)
    calls, evaluated = [], []
    original = modrep._cover_kernel
    monkeypatch.setattr(modrep, "_cover_kernel", lambda m: calls.append(m.dim) or original(m))
    evaluate = constancy.evaluate
    monkeypatch.setattr(constancy, "evaluate", lambda m, q: evaluated.append(q) or evaluate(m, q))
    assert level_types(before, 1) == swept and evaluated == []
    for name, mod in list(sys.modules.items()):
        if name == "cjt" or name.startswith("cjt."):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, dict) and "cache" in attr.lower():
                    obj.clear()
                elif callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    after = omega_k(f, 2, 2)
    assert calls == [1, 8]
    assert after is not before and _same_module(after, before)
    assert level_types(before, 1) == swept and len(evaluated) == len(swept)


def test_shared_shifts_are_read_only():
    f = make_field(3, 1)
    m = random_module(f, 2, 5, 3)
    core = modrep.split_free(m).core
    shifts = [omega_k(f, 2, n) for n in (-2, -1, 0, 1, 2)] + [modrep.omega_n(m, n) for n in (-1, 0, 1)]
    for shift in shifts:
        for a in shift.gens:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1
    # level 0 is a copy: a later write to the caller's core does not reach it
    kept = shifts[-2].gens[0].copy()
    core.gens[0][...] = 1
    assert np.array_equal(shifts[-2].gens[0], kept)


@pytest.mark.parametrize("p,e,r", [(2, 1, 2), (3, 1, 2), (5, 1, 2), (2, 1, 3), (2, 2, 2), (3, 2, 2)])
@pytest.mark.parametrize("conv", list(Convention))
@pytest.mark.parametrize("hidden", [False, True])
def test_omega_n_matches_steps(p, e, r, conv, hidden):
    # with a free summand hidden by a change of basis, the core must be split
    # off before dualizing: split_free of the dual picks another basis
    f = make_field(p, e)
    seed = 10 * p + e + r
    rng = np.random.default_rng(seed)
    m = random_module(f, r, 4 + seed % 3, seed, conv)
    if hidden:
        m = _hide_free_summand(m, rng)
    for n in range(-4, 5):
        assert _same_module(modrep.omega_n(m, n), omega_n_by_steps(m, n)), n


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_group_dual_matches_series(p, e):
    f = make_field(p, e)
    mods = [random_module(f, r, 6, seed, Convention.GROUP) for r in (1, 2, 3) for seed in range(3)]
    mods.append(omega_k(f, 2, 2, Convention.GROUP))
    for m in mods:
        eye = np.eye(m.dim, dtype=np.int64)
        want = [f.sub(unipotent_inverse_by_series(f, a), eye).T for a in m.gens]
        assert all(np.array_equal(x, y) for x, y in zip(dual(m).gens, want))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2)])
def test_unipotent_inverse_on_non_triangular_nilpotents(p, e):
    f = make_field(p, e)
    rng = np.random.default_rng(p * e)
    nils = [np.array([[1, 1], [p - 1, p - 1]], dtype=np.int64)]
    for n in (3, 5, 9):
        # a strictly upper triangular matrix in a random basis
        while True:
            g = rng.integers(0, f.q, (n, n))
            if exactalg.rank_array(f, g) == n:
                break
        g_inv = exactalg.solve_linear(f, g, np.eye(n, dtype=np.int64)).solution
        nils.append(f.matmul(g, f.matmul(np.triu(rng.integers(0, f.q, (n, n)), 1), g_inv)))
    for nil in nils:
        eye = np.eye(nil.shape[0], dtype=np.int64)
        inv = _unipotent_inverse(f, nil)
        assert np.array_equal(f.matmul(f.add(eye, nil), inv), eye)
        assert np.array_equal(inv, unipotent_inverse_by_series(f, nil))
