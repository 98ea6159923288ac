import numpy as np
import pytest

from cjt import modrep
from cjt.constancy import PiPoint, jordan_at, sweep_points
from cjt.exactalg import make_field
from cjt.jordan import JordanType, stable
from cjt.modrep import OMEGA_CACHE_TOWERS, Convention, ModuleHom, factors_through_projective, hom_space
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
    def test_towers_are_bounded_and_recent_ones_hit(self, monkeypatch):
        monkeypatch.setattr(modrep, "_shift_cache", modrep._MemoCache())
        f3, f5 = make_field(3, 1), make_field(5, 1)
        first = omega_k(f3, 2, 2)
        keys = [(f, r, conv) for r in range(1, 12) for f in (f3, f5) for conv in Convention]
        assert len(keys) > 4 * OMEGA_CACHE_TOWERS
        zeros = {}
        for f, r, conv in keys:
            zeros[f, r, conv] = omega_k(f, r, 0, conv)
            assert len(modrep._shift_cache) <= OMEGA_CACHE_TOWERS
            # a tower in use stays cached: the same module, not a rebuilt one
            assert omega_k(f3, 2, 2) is first
        assert len(modrep._shift_cache) == OMEGA_CACHE_TOWERS
        # the least recently used towers were dropped, and rebuild on demand
        rebuilt = omega_k(f5, 1, 0)
        assert rebuilt is not zeros[f5, 1, Convention.PRIMITIVE] and rebuilt.dim == 1
