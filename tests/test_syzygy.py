import numpy as np
import pytest

from cjt import modrep
from cjt.constancy import PiPoint, jordan_at, sweep_points
from cjt.exactalg import make_field
from cjt.jordan import JordanType, stable
from cjt.modrep import Convention, ModuleHom, factors_through_projective, hom_space
from cjt.syzygy import (
    CocycleClass,
    cocycle_product,
    cohomology_basis,
    factor_generator,
    omega_dim_formula,
    omega_k,
    restrict_cocycle,
    shift_hom,
)


def jt(p, blocks):
    return JordanType.from_blocks(p, blocks)


class TestOmegaDims:
    def test_specific_values(self):
        f5 = make_field(5, 1)
        assert omega_k(f5, 2, 2).dim == 26
        f3 = make_field(3, 1)
        assert omega_k(f3, 3, 2).dim == 55
        assert omega_k(f3, 2, 0).dim == 1

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("p", [2, 3])
    def test_formula_small_grid(self, r, p):
        f = make_field(p, 1)
        for n in range(1, 5):
            assert omega_k(f, r, n).dim == omega_dim_formula(p, r, n)

    def test_negative_shift_symmetry(self):
        f = make_field(5, 1)
        for n in (1, 2, 3):
            assert omega_k(f, 2, -n).dim == omega_k(f, 2, n).dim

    def test_rank_two_even_shift_dimension(self):
        f = make_field(5, 1)
        for n in (1, 2, 3):
            assert omega_k(f, 2, 2 * n).dim == 25 * n + 1

    def test_rank_three_even_shift_dimension(self):
        f = make_field(3, 1)
        for n in (1, 2):
            assert omega_k(f, 3, 2 * n).dim == 27 * n * (n + 1) + 1


class TestStableTypesOfShifts:
    @pytest.mark.parametrize("r,p", [(2, 3), (2, 5), (3, 3)])
    def test_parity_of_stable_type(self, r, p):
        f = make_field(p, 1)
        for n in range(-3, 4):
            m = omega_k(f, r, n)
            want = jt(p, {1: 1}) if n % 2 == 0 else jt(p, {p - 1: 1})
            for q in sweep_points(f, r, 1):
                assert stable(jordan_at(m, q)) == want


class TestCohomologyBasis:
    def test_counts(self):
        f3 = make_field(3, 1)
        assert len(cohomology_basis(f3, 2, 2)) == 3
        f5 = make_field(5, 1)
        assert len(cohomology_basis(f5, 3, 1)) == 3
        f2 = make_field(2, 1)
        assert len(cohomology_basis(f2, 2, 1)) == 2

    @pytest.mark.parametrize("r,p,n", [(2, 3, 1), (2, 3, 2), (2, 3, 3), (3, 3, 2), (2, 5, 2)])
    def test_binomial_grid(self, r, p, n):
        from math import comb

        f = make_field(p, 1)
        assert len(cohomology_basis(f, r, n)) == comb(n + r - 1, r - 1)

    def test_joint_nonvanishing_in_degree_two(self):
        # at every point, some degree-2 basis class restricts nonzero
        f = make_field(3, 1)
        basis = cohomology_basis(f, 2, 2)
        for e in (1, 2):
            for q in sweep_points(f, 2, e):
                assert any(restrict_cocycle(c, q) == "NONZERO" for c in basis)

    def test_joint_nonvanishing_in_degree_two_rank_three(self):
        f = make_field(3, 1)
        basis = cohomology_basis(f, 3, 2)
        assert len(basis) == 6
        for q in sweep_points(f, 3, 1):
            assert any(restrict_cocycle(c, q) == "NONZERO" for c in basis)


class TestRestrictCocycle:
    def test_zero_carrier(self):
        f = make_field(3, 1)
        omega2 = omega_k(f, 2, 2)
        from cjt.modrep import trivial_module

        zero = ModuleHom(omega2, trivial_module(f, 2, 1), np.zeros((1, omega2.dim), dtype=np.int64))
        from cjt.syzygy import CocycleClass

        c = CocycleClass(2, zero)
        assert restrict_cocycle(c, PiPoint(f, (1, 0))) == "ZERO"

    def test_factor_one_degree_two_pattern(self):
        f = make_field(3, 1)
        c = factor_generator(f, 2, 0, 2)
        for q in sweep_points(f, 2, 1):
            want = "NONZERO" if q.linear[0] else "ZERO"
            assert restrict_cocycle(c, q) == want

    def test_factor_two_degree_two_pattern_extension(self):
        f = make_field(3, 1)
        c = factor_generator(f, 2, 1, 2)
        for e in (1, 2):
            for q in sweep_points(f, 2, e):
                want = "NONZERO" if q.linear[1] else "ZERO"
                assert restrict_cocycle(c, q) == want

    def test_factor_degree_one_pattern(self):
        f = make_field(5, 1)
        for i in (0, 1):
            c = factor_generator(f, 2, i, 1)
            for q in sweep_points(f, 2, 1):
                want = "NONZERO" if q.linear[i] else "ZERO"
                assert restrict_cocycle(c, q) == want

    def test_rank_three_factor_patterns(self):
        f = make_field(3, 1)
        for i in range(3):
            c = factor_generator(f, 3, i, 2)
            for q in sweep_points(f, 3, 1):
                want = "NONZERO" if q.linear[i] else "ZERO"
                assert restrict_cocycle(c, q) == want

    def test_combination_over_extension_field_dies_on_its_line(self):
        # a x_1 + x_2 over GF(9) restricts to zero exactly at [1 : -a]; the
        # carrier's codes must not be read mod p
        from cjt.syzygy import CocycleClass

        f = make_field(3, 2)
        g0, g1 = (factor_generator(f, 2, i, 1).carrier for i in range(2))
        for a in range(1, f.q):
            mat = f.add(f.mul(np.int64(a), g0.matrix), g1.matrix)
            c = CocycleClass(1, ModuleHom(g0.source, g0.target, mat))
            dead = [b for b in range(f.q) if restrict_cocycle(c, PiPoint(f, (1, b))) == "ZERO"]
            assert dead == [int(f.neg(np.int64(a)))]
            assert restrict_cocycle(c, PiPoint(f, (0, 1))) == "NONZERO"


class TestVanishingClass:
    def test_some_degree_two_class_vanishes_at_every_point(self):
        # the degree-2 space contains a nonzero class (the product of the
        # two degree-1 directions) that restricts to zero at every point
        from itertools import product as iproduct

        f = make_field(3, 1)
        basis = cohomology_basis(f, 2, 2)
        pts = sweep_points(f, 2, 1) + sweep_points(f, 2, 2)
        found = None
        for coeffs in iproduct(range(3), repeat=3):
            if not any(coeffs):
                continue
            mat = sum(
                (c * b.carrier.matrix for c, b in zip(coeffs, basis) if c),
                start=np.zeros_like(basis[0].carrier.matrix),
            ) % 3
            cand = CocycleClass(2, ModuleHom(basis[0].carrier.source, basis[0].carrier.target, mat))
            if all(restrict_cocycle(cand, q) == "ZERO" for q in pts):
                found = cand
                break
        assert found is not None
        assert not found.carrier.is_zero()


class TestNegativeRestrictionProbe:
    def test_upward_maps_between_even_shifts_are_stably_zero_at_points(self):
        # maps from a lower even shift to a higher one restrict to zero
        from stable_rank_oracle import restrict_to_point

        f = make_field(3, 1)
        k = omega_k(f, 2, 0)
        omega2 = omega_k(f, 2, 2)
        maps = hom_space(k, omega2)
        assert maps
        for q in sweep_points(f, 2, 1):
            for h in maps:
                restricted = ModuleHom(
                    restrict_to_point(k, q), restrict_to_point(omega2, q), h.matrix
                )
                assert factors_through_projective(restricted)


class TestShiftAndProducts:
    def test_shift_of_degree_two_carrier(self):
        f = make_field(3, 1)
        c = factor_generator(f, 2, 1, 2)
        shifted = shift_hom(c.carrier)
        assert shifted.source.dim == omega_k(f, 2, 3).dim
        assert shifted.target.dim == omega_k(f, 2, 1).dim
        assert shifted.is_intertwiner()

    def test_square_of_coordinate_class(self):
        f = make_field(3, 1)
        c = factor_generator(f, 2, 1, 2)
        sq = cocycle_product(c, c)
        assert sq.degree == 4
        assert sq.carrier.source.dim == omega_k(f, 2, 4).dim
        # restriction pattern multiplies: still exactly the second axis
        for q in sweep_points(f, 2, 1):
            want = "NONZERO" if q.linear[1] else "ZERO"
            assert restrict_cocycle(sq, q) == want


class TestOmegaCache:
    """Heller-shift levels are entries ("shift", n) of ``modrep._module_cache``,
    an LRU that holds at most ``MODULE_CACHE_BYTES`` or its newest entry."""

    @staticmethod
    def _within_budget():
        cache = modrep._module_cache
        assert cache.weight == sum(size for _, size in cache.values())
        return cache.weight <= modrep.MODULE_CACHE_BYTES or len(cache) == 1

    @staticmethod
    def _levels(m):
        gens = tuple(a.tobytes() for a in m.gens)
        return sorted(key[5] for key in modrep._module_cache if key[3] == gens and key[4] == "shift")

    def test_towers_are_bounded_and_recent_ones_hit(self, monkeypatch):
        monkeypatch.setattr(modrep, "_module_cache", modrep._MemoCache())
        f3, f5 = make_field(3, 1), make_field(5, 1)
        first = omega_k(f3, 2, 2)
        # room for the levels of first and a few small level-0 entries
        monkeypatch.setattr(modrep, "MODULE_CACHE_BYTES", modrep._module_cache.weight + 500)
        keys = [(f, r, conv) for r in range(1, 12) for f in (f3, f5) for conv in Convention]
        zeros = {}
        for f, r, conv in keys:
            zeros[f, r, conv] = omega_k(f, r, 0, conv)
            assert self._within_budget()
            # a tower in use stays cached: the same module, not a rebuilt one
            assert omega_k(f3, 2, 2) is first
        assert len(modrep._module_cache) < len(keys)
        # the least recently used levels were dropped, and rebuild on demand
        rebuilt = omega_k(f5, 1, 0)
        assert rebuilt is not zeros[f5, 1, Convention.PRIMITIVE] and rebuilt.dim == 1

    def test_the_default_budget_keeps_a_shift_types_pass(self, monkeypatch):
        """The shift-types benchmark's pass, Omega^n k for n = 1, -1, ...,
        4, -4 at p = 5, r = 3, builds each cover once and then hits."""
        monkeypatch.setattr(modrep, "_module_cache", modrep._MemoCache())
        calls = []
        original = modrep._cover_kernel
        monkeypatch.setattr(modrep, "_cover_kernel", lambda m: calls.append(m.dim) or original(m))
        f = make_field(5, 1)
        for _ in range(2):
            shifts = [omega_k(f, 3, s * n) for n in range(1, 5) for s in (1, -1)]
            assert [m.dim for m in shifts] == [124, 124, 251, 251, 499, 499, 751, 751]
        assert calls == [1, 124, 251, 499]
        assert modrep._module_cache.weight <= modrep.MODULE_CACHE_BYTES
        # k equals its dual, so all 9 levels are keyed by one copy of its bytes
        assert len(modrep._module_cache) == 9
        assert len({id(key[3]) for key in modrep._module_cache}) == 1

    def test_a_small_budget_rebuilds_dropped_levels_alike(self, monkeypatch):
        monkeypatch.setattr(modrep, "_module_cache", modrep._MemoCache())
        f = make_field(3, 1)
        k = modrep.trivial_module(f, 2, 1)
        want = {n: omega_k(f, 2, n) for n in range(1, 6)}
        carriers = {(i, d): factor_generator(f, 2, i, d).carrier.matrix for i in range(2) for d in (1, 2)}
        sizes = {key[5]: size for key, (_, size) in modrep._module_cache.items()}
        for budget in (sizes[4] + sizes[5], sizes[5] // 2):
            monkeypatch.setattr(modrep, "_module_cache", modrep._MemoCache())
            monkeypatch.setattr(modrep, "MODULE_CACHE_BYTES", budget)
            for n in range(1, 6):
                top = omega_k(f, 2, n)
                assert _same_gens(top, want[n]) and self._within_budget()
            assert self._levels(k) == ([4, 5] if budget > sizes[5] else [5])
            # the top level is a hit even with the levels below it dropped
            assert omega_k(f, 2, 5) is top
            # level 2 was dropped from the middle: it is built again, alike
            again = omega_k(f, 2, 2)
            assert again is not want[2] and _same_gens(again, want[2])
            assert 2 in self._levels(k) and self._within_budget()
            for (i, d), matrix in carriers.items():
                c = factor_generator(f, 2, i, d)
                assert np.array_equal(c.carrier.matrix, matrix) and _same_gens(c.carrier.source, want[d])
                assert self._within_budget()

    def test_a_tall_tower_builds_without_deep_recursion(self, monkeypatch):
        # at r = 1 every level has dim 1 or p - 1, so a tower can be tall;
        # its missing levels are built bottom up, each cover once
        monkeypatch.setattr(modrep, "_module_cache", modrep._MemoCache())
        calls = []
        original = modrep._cover_kernel
        monkeypatch.setattr(modrep, "_cover_kernel", lambda m: calls.append(m.dim) or original(m))
        f = make_field(3, 1)
        assert omega_k(f, 1, 800).dim == 1 and omega_k(f, 1, -801).dim == 2
        assert omega_k(f, 1, 1601).dim == 2
        assert len(calls) == 1601


def _same_gens(a, b):
    return a.dim == b.dim and all(x.tobytes() == y.tobytes() for x, y in zip(a.gens, b.gens))
