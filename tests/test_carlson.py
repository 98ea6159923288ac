import numpy as np
import pytest

from cjt.carlson import endotrivial_check, kernel_of_hom_matrix, l_xi
from cjt.constancy import is_isomorphic, jordan_at, sweep_points
from cjt.exactalg import make_field
from cjt.jordan import JordanType, stable
from cjt.modrep import ModuleHom, hom, omega_n, split_free, trivial_module
from cjt.serialize import module_from_json
from cjt.syzygy import CocycleClass, _onto_on_cores, cocycle_product, factor_generator, omega_k
from cjt.zoo import ke_mod_i2, v_module, w_module


# Modules that are not endotrivial but whose stable type is 1[2] at every
# level-1 point: over GF(3) a GF(9)-point has another stable type, and over
# GF(9) the point where x + c y vanishes lies over GF(9) itself.
LOCAL_ONLY = {
    "gf3": {
        "p": 3, "e": 1, "modulus": [0, 1], "r": 2, "dim": 5, "convention": "primitive",
        "generators": [
            [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0],
        ],
    },
    "gf9": {
        "p": 3, "e": 2, "modulus": [1, 0, 1], "r": 2, "dim": 2, "convention": "primitive",
        "generators": [
            [[0, 0], [0, 0], [1, 0], [0, 0]],
            [[0, 0], [0, 0], [1, 1], [0, 0]],
        ],
    },
}


def jt(p, blocks):
    return JordanType.from_blocks(p, blocks)


class TestLXi:
    def test_two_coordinate_classes_give_fourth_shift(self):
        f = make_field(3, 1)
        classes = [factor_generator(f, 2, 0, 2), factor_generator(f, 2, 1, 2)]
        L = l_xi(classes, max_e=2).kernel
        assert L.dim == 19
        res = is_isomorphic(L, omega_k(f, 2, 4), seed=0)
        assert res.isomorphic and not res.inconclusive

    def test_mixed_degree_pair_gives_sixth_shift(self):
        f = make_field(3, 1)
        c1 = factor_generator(f, 2, 0, 2)
        c2sq = cocycle_product(factor_generator(f, 2, 1, 2), factor_generator(f, 2, 1, 2))
        L = l_xi([c1, c2sq], max_e=1).kernel
        assert L.dim == 9 * 3 + 1
        res = is_isomorphic(L, omega_k(f, 2, 6), seed=0)
        assert res.isomorphic and not res.inconclusive

    def test_three_coordinate_classes_rank_three(self):
        f = make_field(3, 1)
        classes = [factor_generator(f, 3, i, 2) for i in range(3)]
        L = l_xi(classes, max_e=1).kernel
        assert L.dim == 6 * 27 + 2
        for q in sweep_points(f, 3, 1):
            assert stable(jordan_at(L, q)) == jt(3, {1: 2})

    def test_single_class_support_behavior(self):
        # one coordinate class: projective where it restricts nonzero, and
        # of stable type 1[p-1] + 1[1] on its vanishing locus (the support
        # of the kernel module)
        f = make_field(3, 1)
        p = 3
        c = factor_generator(f, 2, 0, 2)
        L = l_xi([c], max_e=1).kernel
        assert L.dim == omega_k(f, 2, 2).dim - 1
        for q in sweep_points(f, 2, 1):
            st = stable(jordan_at(L, q))
            if q.linear[0]:
                assert st == JordanType(p, (0,) * p)
            else:
                assert st == jt(p, {p - 1: 1, 1: 1})

    def test_all_zero_classes_rejected(self):
        f = make_field(3, 1)
        omega2 = omega_k(f, 2, 2)
        k = trivial_module(f, 2, 1)
        zero = CocycleClass(2, ModuleHom(omega2, k, np.zeros((1, omega2.dim), dtype=np.int64)))
        with pytest.raises(ValueError):
            l_xi([zero, zero])


class TestKernelOfHomMatrix:
    def test_single_row_matches_l_xi(self):
        f = make_field(3, 1)
        classes = [factor_generator(f, 2, 0, 2), factor_generator(f, 2, 1, 2)]
        L1 = l_xi(classes, max_e=1).kernel
        sources = [c.carrier.source for c in classes]
        target = classes[0].carrier.target
        res = kernel_of_hom_matrix([[c.carrier for c in classes]], sources, [target])
        assert res.kernel.dim == L1.dim
        assert all(np.array_equal(a, b) for a, b in zip(res.kernel.gens, L1.gens))
        assert res.report.holds_everywhere

    def test_degree_one_pair_kernel_shape(self):
        f = make_field(5, 1)
        p = 5
        classes = [factor_generator(f, 2, 0, 1), factor_generator(f, 2, 1, 1)]
        sources = [c.carrier.source for c in classes]
        target = classes[0].carrier.target
        res = kernel_of_hom_matrix([[c.carrier for c in classes]], sources, [target])
        assert res.report.holds_everywhere
        L = res.kernel
        assert L.dim == 2 * (p**2 - 1) - 1 == 47
        for q in sweep_points(f, 2, 1):
            assert stable(jordan_at(L, q)) == jt(p, {p - 1: 1, p - 2: 1})

    def test_zero_row_fails_hypothesis_everywhere(self):
        f = make_field(3, 1)
        omega2 = omega_k(f, 2, 2)
        k = trivial_module(f, 2, 1)
        c = factor_generator(f, 2, 0, 2)
        zero = ModuleHom(omega2, k, np.zeros((1, omega2.dim), dtype=np.int64))
        # second target row is identically zero
        res = kernel_of_hom_matrix(
            [[c.carrier], [zero]], [omega2], [k, k]
        )
        assert not res.report.holds_everywhere
        assert all(not ok for _, ok in res.report.points)

    @pytest.mark.parametrize("max_e", [0, -1])
    def test_rejects_max_e_below_one(self, max_e):
        # a sweep of no level would report the hypothesis holding everywhere
        f = make_field(3, 1)
        classes = [factor_generator(f, 2, 0, 1), factor_generator(f, 2, 1, 1)]
        sources = [c.carrier.source for c in classes]
        target = classes[0].carrier.target
        with pytest.raises(ValueError, match="max_e must be >= 1"):
            kernel_of_hom_matrix([[c.carrier for c in classes]], sources, [target], max_e=max_e)
        with pytest.raises(ValueError, match="max_e must be >= 1"):
            l_xi(classes, max_e=max_e)


class TestExtensionObstruction:
    def test_no_extension_of_even_shifts_has_near_projective_type(self):
        # bounded-search corroboration: no extension of two even shifts
        # (|a|, |b| <= 1, basis classes) has constant type n[p] + 1[2]
        from cjt.constancy import check_constant
        from cjt.modrep import build_extension, hom_space, omega_n

        f = make_field(5, 1)
        p = 5
        shifts = {n: omega_k(f, 2, 2 * n) for n in (-1, 0, 1)}
        candidates = 0
        for a, m in shifts.items():
            for b, n in shifts.items():
                omega1n = omega_n(n, 1)
                for h in hom_space(omega1n, m):
                    ext = build_extension(h, n)
                    t = jordan_at(ext.middle, sweep_points(f, 2, 1)[0])
                    bad_shape = (
                        t.count(2) == 1
                        and t.count(1) == 0
                        and all(t.count(i) == 0 for i in range(3, p))
                    )
                    if not bad_shape:
                        continue
                    # the shape can occur at one point; it must not be constant
                    candidates += 1
                    rep = check_constant(ext.middle, max_e=2)
                    assert rep.verdict != "CONSTANT_ON_TESTED" or not (
                        rep.type.count(2) == 1
                        and rep.type.count(1) == 0
                        and all(rep.type.count(i) == 0 for i in range(3, p))
                    ), (a, b)
        assert candidates >= 0


class TestEndotrivial:
    def test_trivial_module(self):
        f = make_field(3, 1)
        verdict, ev = endotrivial_check(trivial_module(f, 2, 1))
        assert verdict and ev.endo_core_dim == 1

    def test_first_shift(self):
        f = make_field(3, 1)
        verdict, _ = endotrivial_check(omega_k(f, 2, 1))
        assert verdict

    def test_cyclic_quotient_is_not_endotrivial(self):
        f = make_field(5, 1)
        verdict, ev = endotrivial_check(ke_mod_i2(f, 2))
        assert not verdict
        assert not ev.local_verdict

    def test_v2_and_w5_are_not_endotrivial(self):
        f = make_field(5, 1)
        assert not endotrivial_check(v_module(f, 2))[0]
        assert not endotrivial_check(w_module(f))[0]

    @pytest.mark.parametrize("name", sorted(LOCAL_ONLY))
    def test_a_local_pass_is_evidence_not_a_verdict(self, name):
        verdict, ev = endotrivial_check(module_from_json(LOCAL_ONLY[name]))
        assert verdict is False and ev.global_verdict is False
        assert ev.local_verdict is True
        assert all(str(t) == "1[2]" for _, t in ev.stable_types)

    def test_level_two_finds_the_failing_point(self):
        verdict, ev = endotrivial_check(module_from_json(LOCAL_ONLY["gf3"]), max_e=2)
        assert (verdict, ev.global_verdict, ev.local_verdict) == (False, False, False)

    @pytest.mark.parametrize("max_e", [0, -1])
    def test_rejects_max_e_below_one(self, max_e):
        # with no point swept the local test would pass vacuously
        f = make_field(3, 1)
        for m in (omega_n(trivial_module(f, 2, 1), 1), w_module(make_field(5, 1))):
            with pytest.raises(ValueError, match="max_e must be >= 1"):
                endotrivial_check(m, max_e=max_e)


class TestProperExtensionLevelOne:
    """Over GF(9) the level-1 checks run at the GF(3) points and agree with
    the per-point computations."""

    def test_endotrivial_over_gf9(self):
        f9 = make_field(3, 2)
        for m, want in ((omega_k(f9, 2, 1), True), (ke_mod_i2(f9, 2), False)):
            verdict, ev = endotrivial_check(m)
            assert verdict == want
            res = split_free(hom(m, m))
            assert (ev.endo_free_rank, ev.endo_core_dim) == (res.free_rank, res.core.dim)
            points = sweep_points(make_field(3, 1), 2, 1)
            assert ev.stable_types == [(q, stable(jordan_at(m, q))) for q in points]

    def test_kernel_of_hom_matrix_over_gf9(self):
        f9 = make_field(3, 2)
        first, second = factor_generator(f9, 2, 0, 2), factor_generator(f9, 2, 1, 2)
        # a x_1 + x_2 with a outside GF(3) restricts to zero at no GF(3) point
        mixed = f9.add(f9.mul(np.int64(4), first.carrier.matrix), second.carrier.matrix)
        cases = [
            (first.carrier, lambda q: bool(q.linear[0])),
            (ModuleHom(first.carrier.source, first.carrier.target, mixed), lambda q: True),
        ]
        for carrier, want in cases:
            res = kernel_of_hom_matrix([[carrier]], [carrier.source], [carrier.target])
            assert res.kernel.dim == carrier.source.dim - 1
            assert [q for q, _ in res.report.points] == sweep_points(make_field(3, 1), 2, 1)
            for q, holds in res.report.points:
                assert holds == _onto_on_cores(res.map, q) == want(q), q
