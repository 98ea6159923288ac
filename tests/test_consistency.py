"""Cross-validation between independent code paths.

Each test pits two genuinely different computations of the same quantity
against each other: point evaluation vs fraction-free elimination, minor
scans vs Smith reduction, shift towers against their inverses, splittings against
isomorphism search.
"""

import numpy as np
import pytest
from bareiss_oracle import bareiss_rank
from hypothesis import given, settings
from hypothesis import strategies as st
from minor_scan_oracle import chart, minor_scan_gcd

from cjt.constancy import PiPoint, is_isomorphic, jordan_at, sweep_points
from cjt.exactalg import make_field, rank_array, solve_linear
from cjt.jordan import JordanType, stable
from cjt.modrep import (
    Convention,
    ModuleRep,
    direct_sum,
    dual,
    free_module,
    hom_space,
    omega_n,
    split_free,
    tensor,
    trivial_module,
    validate,
)
from cjt.polymat import HomPoly, PolyMatrix, _chart_tensors, _determinantal_divisor, generic_rank
from cjt.syzygy import factor_generator, omega_k, restrict_cocycle
from cjt.zoo import ke_mod_i2, random_module, w_module


def jt(p, blocks):
    return JordanType.from_blocks(p, blocks)


class TestEliminationPathsAgree:
    def test_generic_rank_vs_bareiss_oracle(self):
        # certified point evaluation against fraction-free elimination
        p = 3
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            entries = []
            for i in range(n):
                row = []
                for j in range(n):
                    terms = {}
                    for e in [(1, 0), (0, 1)]:
                        c = int(rng.integers(0, p))
                        if c:
                            terms[e] = c
                    row.append(HomPoly(p, 2, terms))
                entries.append(row)
            m = PolyMatrix(p, 2, entries)
            assert generic_rank(m) == bareiss_rank(m)

    def test_minor_scan_vs_smith_reduction(self):
        p = 5
        rng = np.random.default_rng(9)
        for _ in range(15):
            rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            entries = []
            for i in range(rows):
                row = []
                for j in range(cols):
                    terms = {}
                    for e in [(1, 0), (0, 1)]:
                        c = int(rng.integers(0, p))
                        if c:
                            terms[e] = c
                    row.append(HomPoly(p, 2, terms))
                entries.append(row)
            m = PolyMatrix(p, 2, entries)
            k = min(rows, cols)
            scan = minor_scan_gcd(chart(m, 0), k, p)
            smith = _determinantal_divisor(_chart_tensors(m)[0], k, p)
            assert tuple(smith.tolist()) == scan


class TestShiftConsistency:
    @pytest.mark.parametrize("r,p", [(2, 3), (2, 5), (3, 3)])
    def test_inverse_shift_recovers_trivial_module(self, r, p):
        f = make_field(p, 1)
        omega1 = omega_k(f, r, 1)
        back = omega_n(omega1, -1)
        assert back.dim == 1
        assert not any(np.any(a) for a in back.gens)

    def test_inverse_shift_recovers_second_from_third(self):
        f = make_field(3, 1)
        omega3 = omega_k(f, 2, 3)
        back = omega_n(omega3, -1)
        res = is_isomorphic(back, omega_k(f, 2, 2), seed=0)
        assert res.isomorphic

    def test_shift_of_direct_sum_splits(self):
        f = make_field(3, 1)
        m = direct_sum([ke_mod_i2(f, 2), trivial_module(f, 2, 1)])
        shifted = omega_n(m, 1)
        parts = direct_sum([omega_n(ke_mod_i2(f, 2), 1), omega_k(f, 2, 1)])
        assert shifted.dim == parts.dim
        res = is_isomorphic(shifted, parts, seed=0)
        assert res.isomorphic


class TestSplitFreeAgainstIsomorphism:
    def test_split_reassembles_to_the_module(self):
        f = make_field(3, 1)
        rng = np.random.default_rng(4)
        for seed in range(4):
            m = direct_sum(
                [random_module(f, 2, int(rng.integers(2, 6)), seed=seed), free_module(f, 2, 1)]
            )
            res = split_free(m)
            assert res.free_rank >= 1
            rebuilt = direct_sum([res.core, free_module(f, 2, res.free_rank)])
            assert rebuilt.dim == m.dim
            iso = is_isomorphic(m, rebuilt, seed=0)
            assert iso.isomorphic

    def test_hom_space_dimension_matches_dual_pair(self):
        f = make_field(3, 1)
        m, n = ke_mod_i2(f, 2), omega_k(f, 2, 1)
        assert len(hom_space(m, n)) == len(hom_space(dual(n), dual(m)))


class TestFactorGeneratorsLargerPrime:
    def test_degree_two_patterns_at_p5(self):
        f = make_field(5, 1)
        for i in (0, 1):
            c = factor_generator(f, 2, i, 2)
            for q in sweep_points(f, 2, 1):
                want = "NONZERO" if q.linear[i] else "ZERO"
                assert restrict_cocycle(c, q) == want

    def test_degree_two_pattern_on_extension_points_at_p5(self):
        f = make_field(5, 1)
        c = factor_generator(f, 2, 0, 2)
        for q in sweep_points(f, 2, 2)[:12]:
            want = "NONZERO" if q.linear[0] else "ZERO"
            assert restrict_cocycle(c, q) == want


class TestPointwiseHellerReflection:
    """At every point q, stable(type(Omega^(+-1) M, q)) is stable(type(M, q))
    with each block j replaced by p - j: kE is free over every pi-point, so
    the shift restricts to the shift over k[t]/t^p plus a free part."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=16)
    @given(
        p=st.sampled_from([3, 5]),
        r=st.sampled_from([2, 3]),
        dim=st.integers(4, 8),
        seed=st.integers(0, 100),
        n=st.sampled_from([-1, 1]),
        convention=st.sampled_from(list(Convention)),
    )
    def test_shift_reflects_stable_types(self, p, r, dim, seed, n, convention):
        f = make_field(p, 1)
        m = random_module(f, r, dim, seed, convention)
        shifted = omega_n(m, n)
        rng = np.random.default_rng(seed)
        points = []
        for e, count in ((1, 8), (2, 4)):
            level = sweep_points(f, r, e)
            points += [level[i] for i in sorted(rng.choice(len(level), min(count, len(level)), replace=False))]
        for q in points[:3]:
            exps = tuple(int(x) for x in rng.integers(0, p, r))
            if sum(exps) >= 2:
                points.append(PiPoint(f, q.linear, ((exps, int(rng.integers(1, p))),)))
        for q in points:
            before = stable(jordan_at(m, q))
            after = stable(jordan_at(shifted, q))
            assert after.counts == tuple(reversed(before.counts[:-1])) + (0,), (q, before, after)


def _sampled_points(f, r, rng):
    """A seeded sample of six level-1 and three level-2 points, plus up to
    two tailed points."""
    points = []
    for e, count in ((1, 6), (2, 3)):
        level = sweep_points(f, r, e)
        points += [level[i] for i in sorted(rng.choice(len(level), min(count, len(level)), replace=False))]
    p = f.p
    for q in points[:2]:
        exps = tuple(int(x) for x in rng.integers(0, p, r))
        if sum(exps) >= 2:
            points.append(PiPoint(f, q.linear, ((exps, int(rng.integers(1, p))),)))
    return points


def _hide_free_summand(m, rng):
    """m + kE conjugated by a seeded unit triangular change of basis, so the
    free summand is not a block of the matrices."""
    f = m.field
    summed = direct_sum([m, free_module(f, m.r, 1, m.convention)])
    n = summed.dim
    lower = np.tril(rng.integers(0, f.p, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, f.p, (n, n)), 1) + np.eye(n, dtype=np.int64)
    g = f.matmul(lower, upper)
    g_inv = solve_linear(f, g, np.eye(n, dtype=np.int64)).solution
    gens = [f.matmul(g, f.matmul(a, g_inv)) for a in summed.gens]
    return ModuleRep(f, gens, m.convention)


class TestPointwiseDirectSummands:
    """At every point q, the projective-free core of M has the stable type
    of M: kE is free over every pi-point, so the free summand adds only
    blocks of size p."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        pr=st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]),
        dim=st.integers(3, 8),
        seed=st.integers(0, 100),
        hidden=st.booleans(),
        convention=st.sampled_from(list(Convention)),
    )
    def test_core_keeps_stable_types(self, pr, dim, seed, hidden, convention):
        p, r = pr
        f = make_field(p, 1)
        rng = np.random.default_rng(seed)
        m = random_module(f, r, dim, seed, convention)
        if hidden:
            m = _hide_free_summand(m, rng)
        res = split_free(m)
        assert res.free_rank >= int(hidden)
        assert res.core.dim == m.dim - res.free_rank * p**r
        for q in _sampled_points(f, r, rng):
            assert stable(jordan_at(res.core, q)) == stable(jordan_at(m, q)), q


class TestPointwiseFreeTensor:
    """M (x) kE is free at every point, under both conventions."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        pr=st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]),
        dim=st.integers(2, 6),
        seed=st.integers(0, 100),
        convention=st.sampled_from(list(Convention)),
    )
    def test_tensor_with_free_module_is_free(self, pr, dim, seed, convention):
        p, r = pr
        f = make_field(p, 1)
        rng = np.random.default_rng(seed)
        m = random_module(f, r, dim, seed, convention)
        product = tensor(m, free_module(f, r, 1, convention))
        free = JordanType.from_blocks(p, {p: product.dim // p})
        for q in _sampled_points(f, r, rng):
            assert jordan_at(product, q) == free, q


class TestZeroAndEdgeModules:
    def test_zero_module_through_the_api(self):
        f = make_field(3, 1)
        z = trivial_module(f, 2, 0)
        assert validate(z).ok
        assert split_free(z).free_rank == 0
        assert omega_n(z, 1).dim == 0
        t = jordan_at(z, PiPoint(f, (1, 0)))
        assert t.dim == 0 and str(t) == "0"

    def test_point_length_mismatch(self):
        from cjt.constancy import evaluate

        f = make_field(3, 1)
        m = ke_mod_i2(f, 3)
        with pytest.raises(ValueError):
            evaluate(m, PiPoint(f, (1, 0)))

    def test_large_dimension_cap(self):
        f = make_field(2, 1)
        with pytest.raises(ValueError):
            trivial_module(f, 1, 4001)

    def test_rank_of_wide_extension_matrix(self):
        f = make_field(2, 3)
        rng = np.random.default_rng(3)
        a = rng.integers(0, f.q, (5, 9)).astype(np.int64)
        assert 0 <= rank_array(f, a) <= 5
