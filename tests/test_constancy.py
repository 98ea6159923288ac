import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from witness_level_oracle import witness_level

from cjt import carlson, constancy, exactalg, jordan, modrep, syzygy
from cjt.constancy import (
    PiPoint,
    check_constant,
    evaluate,
    gamma_locus,
    generic_type,
    jordan_at,
    level_types,
    pi_support,
    sweep_points,
)
from cjt.exactalg import CooMatrix, make_field
from cjt.jordan import Dominance, JordanType, dominance_compare, from_nilpotent, power_ranks
from cjt.modrep import ModuleHom, ModuleRep, free_module, tensor, trivial_module
from cjt.polymat import generic_rank
from cjt.zoo import ke_mod_i2, random_module, truncated_module, v_module, w_module


def jt(p, blocks):
    return JordanType.from_blocks(p, blocks)


def test_point_str_writes_coordinates_and_tail_length():
    f9 = make_field(3, 2)
    assert str(PiPoint(f9, (1, 5))) == "[[1, 0]:[2, 1]]"  # code 5 = 2 + x
    assert str(PiPoint(make_field(3, 1), (1, 2), (((2, 0), 1),))) == "[1:2]+tail(1)"


def half_supported_module(field):
    """Trivial along the first generator, a free shift along the second."""
    p = field.p
    a = np.zeros((p, p), dtype=np.int64)
    b = np.zeros((p, p), dtype=np.int64)
    for i in range(p - 1):
        b[i + 1, i] = 1
    return ModuleRep(field, [a, b])


class TestPiPoint:
    def test_rejects_zero_linear_part(self):
        f = make_field(3, 1)
        with pytest.raises(ValueError):
            PiPoint(f, (0, 0))

    def test_rejects_low_degree_tail(self):
        f = make_field(3, 1)
        with pytest.raises(ValueError):
            PiPoint(f, (1, 0), (((1, 0), 1),))

    def test_rejects_large_exponent_tail(self):
        f = make_field(3, 1)
        with pytest.raises(ValueError):
            PiPoint(f, (1, 0), (((3, 0), 1),))

    def test_serialization(self):
        f = make_field(3, 2)
        q = PiPoint(f, (1, 4))
        assert q.serialize() == {"e": 2, "coords": [[1, 0], [1, 1]]}

    def test_codes_are_read_like_field_code_of(self):
        # over GF(p) integers are reduced mod p; over GF(p^e) a code must
        # lie in [0, q), in the linear part and in tail coefficients alike
        f3, f9 = make_field(3, 1), make_field(3, 2)
        q = PiPoint(f3, (4, 1), (((1, 1), -1),))
        assert q == PiPoint(f3, (1, 1), (((1, 1), 2),))
        assert q.serialize() == {"e": 1, "coords": [1, 1], "tail": [{"exps": [1, 1], "coef": 2}]}
        for coords in ((-9, 1), (-1, 1), (9, 1)):
            with pytest.raises(ValueError, match=r"\[0, 9\)"):
                PiPoint(f9, coords)
        with pytest.raises(ValueError, match=r"\[0, 9\)"):
            PiPoint(f9, (1, 1), (((1, 1), 9),))
        with pytest.raises(ValueError, match="nonzero"):
            PiPoint(f3, (3, -3))


class TestEvaluate:
    def test_first_coordinate_point_returns_first_generator(self):
        f = make_field(5, 1)
        m = w_module(f)
        q = PiPoint(f, (1, 0))
        assert np.array_equal(evaluate(m, q), m.gens[0])

    def test_thirteen_dim_example_at_diagonal_point(self):
        f = make_field(7, 1)
        m = w_module(f)
        assert jordan_at(m, PiPoint(f, (1, 1))) == jt(7, {3: 4, 1: 1})

    def test_cyclic_quotient_any_point(self):
        f = make_field(5, 1)
        m = ke_mod_i2(f, 3)
        for coords in [(1, 0, 0), (1, 2, 3), (0, 0, 1)]:
            assert jordan_at(m, PiPoint(f, coords)) == jt(5, {2: 1, 1: 2})

    def test_axis_points_of_thirteen_dim_example(self):
        f = make_field(7, 1)
        m = w_module(f)
        assert jordan_at(m, PiPoint(f, (1, 0))) == jt(7, {3: 3, 2: 2})
        assert jordan_at(m, PiPoint(f, (0, 1))) == jt(7, {3: 3, 2: 2})

    def test_extension_point_on_prime_field_module(self):
        f = make_field(3, 1)
        f9 = make_field(3, 2)
        m = ke_mod_i2(f, 2)
        q = PiPoint(f9, (1, 3))  # second coordinate outside the prime field
        assert jordan_at(m, q) == jt(3, {2: 1, 1: 1})

    def test_characteristic_mismatch_rejected(self):
        f = make_field(3, 1)
        m = ke_mod_i2(f, 2)
        with pytest.raises(ValueError):
            evaluate(m, PiPoint(make_field(5, 1), (1, 0)))

    def test_tail_changes_matrix_but_keeps_nilpotency(self):
        f = make_field(5, 1)
        m = w_module(f)
        q = PiPoint(f, (1, 0), (((1, 1), 2),))
        mat = evaluate(m, q)
        t = jordan_at(m, q)
        assert t.dim == 13


class TestTrivialAndV:
    def test_trivial_module_type(self):
        f = make_field(5, 1)
        k4 = trivial_module(f, 2, 4)
        for q in sweep_points(f, 2, 1):
            assert jordan_at(k4, q) == jt(5, {1: 4})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_v_module_types(self, n):
        f = make_field(5, 1)
        m = v_module(f, n)
        for q in sweep_points(f, 2, 1):
            assert jordan_at(m, q) == jt(5, {2: n, 1: 1})


class TestGenericType:
    def test_trivial(self):
        f = make_field(5, 1)
        assert generic_type(trivial_module(f, 2, 3)) == jt(5, {1: 3})

    def test_thirteen_dim_example_p7(self):
        f = make_field(7, 1)
        assert generic_type(w_module(f)) == jt(7, {3: 4, 1: 1})

    def test_thirteen_dim_example_p5(self):
        f = make_field(5, 1)
        assert generic_type(w_module(f)) == jt(5, {3: 3, 2: 2})

    def test_free_module_generic(self):
        f = make_field(3, 1)
        assert generic_type(free_module(f, 2, 1)) == jt(3, {3: 3})

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zero_module(self, p):
        gens = [np.zeros((0, 0), dtype=np.int64)] * 2
        assert generic_type(ModuleRep(make_field(p, 1), gens)) == JordanType(p, (0,) * p)
        # like every module over a proper extension, it has no pencil
        with pytest.raises(ValueError, match="prime field"):
            generic_type(ModuleRep(make_field(p, 2), gens))

    def test_dominance_max_breaks_ties_by_descending_counts(self):
        # 2[3] and 1[4] + 2[1] are incomparable; the larger reversed count
        # vector (0, 1, 0, 0, 2) > (0, 0, 2, 0, 0) wins in either order
        a, b = jt(5, {3: 2}), jt(5, {4: 1, 1: 2})
        assert dominance_compare(a, b) == Dominance.INCOMPARABLE
        assert constancy._dominance_max([a, b]) == b
        assert constancy._dominance_max([b, a]) == b


class TestCheckConstant:
    def test_rank_one_vacuous(self):
        f = make_field(5, 1)
        from cjt.modrep import jordan_block_module

        rep = check_constant(jordan_block_module(f, 3))
        assert rep.verdict == "CONSTANT_EXACT"
        assert rep.type == jt(5, {3: 1})

    def test_w_constant_at_p5_exact(self):
        f = make_field(5, 1)
        rep = check_constant(w_module(f), exact=True)
        assert rep.verdict == "CONSTANT_EXACT"
        assert rep.method == "RANK2_GCD"
        assert rep.type == jt(5, {3: 3, 2: 2})

    def test_w_not_constant_at_p7_exact(self):
        f = make_field(7, 1)
        rep = check_constant(w_module(f), exact=True)
        assert rep.verdict == "NOT_CONSTANT"
        assert rep.type == jt(7, {3: 4, 1: 1})
        wit = {tuple(q.linear): t for q, t in rep.witnesses}
        assert wit == {(1, 0): jt(7, {3: 3, 2: 2}), (0, 1): jt(7, {3: 3, 2: 2})}

    def test_truncated_window_constant(self):
        for p in (5, 7):
            f = make_field(p, 1)
            m = truncated_module(f, 2, p - 2, p + 1)
            rep = check_constant(m, exact=True)
            assert rep.verdict == "CONSTANT_EXACT"
            assert rep.type == jt(p, {3: p - 2, 2: 2})

    def test_sweep_path_on_three_generators(self):
        f = make_field(3, 1)
        rep = check_constant(ke_mod_i2(f, 3), max_e=2)
        assert rep.verdict == "CONSTANT_ON_TESTED"
        assert rep.method == "SWEEP"
        assert rep.extensions == [1, 2]
        assert rep.type == jt(3, {2: 1, 1: 2})

    def test_sweep_detects_nonconstant(self):
        f = make_field(7, 1)
        rep = check_constant(w_module(f), max_e=1)
        assert rep.verdict == "NOT_CONSTANT"
        assert len({t for _, t in rep.witnesses} | {rep.type}) >= 2

    def test_exact_and_sweep_agree_on_zoo(self):
        for p in (3, 5):
            f = make_field(p, 1)
            mods = [
                ke_mod_i2(f, 2),
                v_module(f, 2),
                w_module(f),
                truncated_module(f, 2, 1, 3),
            ]
            for m in mods:
                exact = check_constant(m, exact=True)
                swept = check_constant(m, max_e=3)
                constant_exact = exact.verdict == "CONSTANT_EXACT"
                constant_swept = swept.verdict == "CONSTANT_ON_TESTED"
                assert constant_exact == constant_swept
                assert exact.type == swept.type

    def test_exact_path_reuses_the_generic_ranks(self, monkeypatch):
        # generic_type takes one generic rank per pencil power up to the
        # first power of rank zero; the exact path reads its ranks off the
        # Smith reductions instead, and reports the type generic_type gives
        calls = []

        def counted(power):
            calls.append(power)
            return generic_rank(power)

        monkeypatch.setattr(constancy, "generic_rank", counted)
        for p in (3, 5, 7):
            f = make_field(p, 1)
            for m in (w_module(f), ke_mod_i2(f, 2), v_module(f, 3), truncated_module(f, 2, 1, 4)):
                calls.clear()
                gen = generic_type(m)
                powers = next((j for j in range(1, p) if gen.power_rank(j) == 0), p - 1)
                assert len(calls) == powers
                calls.clear()
                rep = check_constant(m, exact=True)
                assert len(calls) == 0
                if rep.verdict == "CONSTANT_EXACT":
                    assert rep.type == gen

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_exact_path_sweeps_past_max_e_to_the_witness_level(self, p):
        # x1 A + x2 B drops rank where det(x1 I + x2 N) = 0, at the roots of
        # an irreducible quadratic and cubic: no GF(p) point is a witness
        f = make_field(p, 1)
        m = quadratic_cubic_module(f)
        rep = check_constant(m, max_e=1, exact=True)
        assert rep.verdict == "NOT_CONSTANT" and rep.method == "RANK2_GCD"
        assert rep.extensions == [1, 2] == [1, witness_level(m)]
        assert {q.field.e for q, _ in rep.witnesses} == {2}

    def test_exact_path_stops_at_the_oracle_witness_level(self):
        mods = [quadratic_cubic_module(make_field(p, 1)) for p in (2, 3, 5)]
        mods += [w_module(make_field(p, 1)) for p in (3, 7)]
        mods += [
            random_module(make_field(p, 1), 2, dim, seed)
            for p in (2, 3, 5)
            for dim in (4, 9)
            for seed in range(3)
        ]
        checked = 0
        for m in mods:
            level = witness_level(m)
            rep = check_constant(m, max_e=1, exact=True)
            if level is None:
                assert rep.verdict == "CONSTANT_EXACT"
                continue
            assert rep.verdict == "NOT_CONSTANT"
            assert rep.extensions[-1] == level
            checked += 1
        assert checked >= 10


def quadratic_cubic_module(field):
    """Generators [[0, 0], [I, 0]] and [[0, 0], [N, 0]], N the companion
    matrices of an irreducible quadratic and an irreducible cubic over
    GF(p) on the diagonal."""
    p = field.p
    n = np.zeros((5, 5), dtype=np.int64)
    start = 0
    for e in (2, 3):
        modulus = make_field(p, e).modulus
        for i in range(e):
            if i:
                n[start + i, start + i - 1] = 1
            n[start + i, start + e - 1] = -modulus[i] % p
        start += e
    a = np.zeros((10, 10), dtype=np.int64)
    b = np.zeros((10, 10), dtype=np.int64)
    a[5:, :5] = np.eye(5, dtype=np.int64)
    b[5:, :5] = n
    return ModuleRep(field, [a, b])


class TestGammaAndSupport:
    def test_constant_module_has_empty_locus(self):
        f = make_field(5, 1)
        assert gamma_locus(w_module(f), 1).points == []

    def test_nonconstant_module_locus_p7(self):
        f = make_field(7, 1)
        locus = gamma_locus(w_module(f), 1)
        assert {tuple(q.linear) for q in locus.points} == {(1, 0), (0, 1)}
        assert locus.generic == jt(7, {3: 4, 1: 1})

    def test_free_module_locus_empty(self):
        f = make_field(3, 1)
        assert gamma_locus(free_module(f, 2, 1), 1).points == []
        assert gamma_locus(free_module(f, 2, 1), 2).points == []

    def test_support_of_free_module_empty(self):
        f = make_field(3, 1)
        assert pi_support(free_module(f, 2, 1), 1) == []

    def test_support_of_trivial_is_everything(self):
        f = make_field(3, 1)
        pts = pi_support(trivial_module(f, 2, 1), 1)
        assert len(pts) == len(sweep_points(f, 2, 1))

    def test_half_supported_module(self):
        f = make_field(3, 1)
        m = half_supported_module(f)
        pts = pi_support(m, 1)
        assert [tuple(q.linear) for q in pts] == [(1, 0)]

    def test_gamma_of_tensor_identity_with_irreducible_support(self):
        # Gamma(M (x) N) = (Gamma(M) u Gamma(N)) n (supp(M) n supp(N))
        f = make_field(3, 1)
        m = half_supported_module(f)
        n = ke_mod_i2(f, 2)
        for e in (1, 2):
            prod = tensor(m, n)
            left = {(q.extension, q.linear) for q in gamma_locus(prod, e).points}
            gm = {(q.extension, q.linear) for q in gamma_locus(m, e).points}
            gn = {(q.extension, q.linear) for q in gamma_locus(n, e).points}
            sm = {(q.extension, q.linear) for q in pi_support(m, e)}
            sn = {(q.extension, q.linear) for q in pi_support(n, e)}
            assert left == (gm | gn) & (sm & sn)


class TestConstancyLocusEquivalence:
    def test_constant_verdict_iff_empty_locus(self):
        for p in (3, 5, 7):
            f = make_field(p, 1)
            mods = [ke_mod_i2(f, 2), v_module(f, 3), w_module(f), truncated_module(f, 2, 1, 3)]
            for m in mods:
                rep = check_constant(m, max_e=2)
                empty = all(not gamma_locus(m, e).points for e in (1, 2))
                assert (rep.verdict != "NOT_CONSTANT") == empty


class TestSemicontinuity:
    def test_generic_dominates_all_rational_points(self):
        for p in (3, 5, 7):
            f = make_field(p, 1)
            mods = [ke_mod_i2(f, 2), v_module(f, 2), w_module(f)]
            for m in mods:
                gen = generic_type(m)
                for e in (1, 2):
                    for q in sweep_points(f, 2, e):
                        t = jordan_at(m, q)
                        assert dominance_compare(gen, t) in (
                            Dominance.GREATER,
                            Dominance.EQUAL,
                        )


class TestSweepPoints:
    def test_prime_level_counts(self):
        f = make_field(5, 1)
        assert len(sweep_points(f, 2, 1)) == 6
        assert len(sweep_points(f, 3, 1)) == 31

    def test_extension_level_skips_prime_points_and_dedups(self):
        f = make_field(3, 1)
        pts = sweep_points(f, 2, 2)
        # P^1(F_9) has 10 points; 4 are rational, the remaining 6 split
        # into 3 Frobenius pairs
        assert len(pts) == 3

    def test_unsweepable_level_is_rejected(self):
        # 9^20 coordinate tuples: too many to enumerate
        f = make_field(3, 1)
        with pytest.raises(ValueError, match="cannot sweep GF\\(3\\^2\\) with r = 20"):
            sweep_points(f, 20, 2)

    def test_tail_probe_at_maximal_points_keeps_type(self):
        # at points of maximal type, higher-order representative terms do
        # not move the observed type (50 seeded tails per point)
        f = make_field(7, 1)
        m = w_module(f)
        rng = np.random.default_rng(0)
        for coords in [(1, 1), (1, 2), (1, 6)]:
            base = jordan_at(m, PiPoint(f, coords))
            drawn = 0
            while drawn < 50:
                exps = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
                if sum(exps) < 2:
                    continue
                coef = int(rng.integers(1, 7))
                drawn += 1
                q = PiPoint(f, coords, ((exps, coef),))
                assert jordan_at(m, q) == base

    def test_tail_probe_at_non_maximal_point_is_representative_dependent(self):
        # inside the non-maximal locus the observed type may move with the
        # representative; record whether any sampled tail does move it
        f = make_field(7, 1)
        m = w_module(f)
        base = jordan_at(m, PiPoint(f, (1, 0)))
        rng = np.random.default_rng(1)
        moved = 0
        for _ in range(50):
            exps = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
            if sum(exps) < 2:
                continue
            coef = int(rng.integers(1, 7))
            t = jordan_at(m, PiPoint(f, (1, 0), ((exps, coef),)))
            if t != base:
                moved += 1
        # no assertion on moved > 0: dependence is permitted, not promised
        assert moved >= 0


class TestProperExtensionModules:
    """A module over GF(9) is swept at level 1 only: its GF(3) points are
    typed over GF(9), and a level-2 sweep, which keeps one point per
    Frobenius orbit, is refused because conjugate points may differ."""

    @staticmethod
    def _module():
        # x acts as the 2 x 2 shift s, y as a s for a = code 4, not in GF(3)
        f = make_field(3, 2)
        s = np.array([[0, 0], [1, 0]], dtype=np.int64)
        return ModuleRep(f, [s, f.mul(np.int64(4), s)])

    def test_conjugate_points_differ(self):
        m = self._module()
        f = m.field
        q = PiPoint(f, (1, int(f.neg(f.inv_scalar(4)))))
        conjugate = PiPoint(f, (1, int(f.frobenius(q.linear[1]))))
        assert jordan_at(m, q) == jt(3, {1: 2})
        assert jordan_at(m, conjugate) == jt(3, {2: 1})

    def test_level_two_is_refused(self):
        m = self._module()
        with pytest.raises(ValueError, match="only on modules over the prime field"):
            level_types(m, 2)
        with pytest.raises(ValueError, match="only on modules over the prime field"):
            check_constant(m, max_e=2)
        with pytest.raises(ValueError, match="only on modules over the prime field"):
            sweep_points(m.field, 2, 2)

    def test_deeper_sweeps_are_refused_before_any_point(self, monkeypatch):
        # x acts as s and y as 0: type [2] at [1 : 0], 2[1] at [0 : 1], so a
        # sweep would stop after level 1; every caller refuses max_e = 2 first
        def untouched(*args):
            raise AssertionError("work before the refusal")

        for where in (constancy, syzygy):
            monkeypatch.setattr(where, "evaluate", untouched)
        monkeypatch.setattr(carlson, "hom", untouched)
        f = make_field(3, 2)
        s = np.array([[0, 0], [1, 0]], dtype=np.int64)
        m = ModuleRep(f, [s, np.zeros_like(s)])
        identity = ModuleHom(m, m, np.eye(2, dtype=np.int64))
        calls = [
            lambda: check_constant(m, max_e=2),
            lambda: carlson.endotrivial_check(m, max_e=2),
            lambda: carlson.kernel_of_hom_matrix([[identity]], [m], [m], max_e=2),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="a level-2 sweep .* only on modules over the prime field"):
                call()

    def test_level_one_types_match_per_point(self):
        m = self._module()
        typed = level_types(m, 1)
        assert [q for q, _ in typed] == sweep_points(make_field(3, 1), 2, 1)
        assert [t for _, t in typed] == [jordan_at(m, q) for q, _ in typed]
        assert {t for _, t in typed} == {jt(3, {2: 1})}
        report = check_constant(m, max_e=1)
        assert report.verdict == "CONSTANT_ON_TESTED" and report.type == jt(3, {2: 1})

    def test_level_one_types_survive_scalar_extension(self):
        f3, f9 = make_field(3, 1), make_field(3, 2)
        for seed in range(4):
            m = random_module(f3, 2, 6, seed)
            wide = ModuleRep(f9, m.gens)
            assert level_types(wide, 1) == level_types(m, 1)
            assert check_constant(wide, max_e=1).serialize() == check_constant(m, max_e=1).serialize()


class TestIsIsomorphic:
    def test_differing_level_one_types_decide_without_hom_space(self, monkeypatch):
        def no_hom_space(m, n):
            raise AssertionError("hom_space called")

        monkeypatch.setattr(constancy, "hom_space", no_hom_space)
        f = make_field(3, 1)
        m = ModuleRep(f, [np.zeros((3, 3), dtype=np.int64)] * 2)
        res = constancy.is_isomorphic(m, ke_mod_i2(f, 2))
        assert not res.isomorphic and not res.inconclusive and res.witness is None

    def test_zero_dimensional_modules_are_isomorphic_untyped(self, monkeypatch):
        def untouched(*args):
            raise AssertionError("typed or searched a zero-dimensional module")

        monkeypatch.setattr(constancy, "level_types", untouched)
        monkeypatch.setattr(constancy, "hom_space", untouched)
        f = make_field(3, 1)
        m, n = (ModuleRep(f, [np.zeros((0, 0), dtype=np.int64)] * 2) for _ in range(2))
        res = constancy.is_isomorphic(m, n)
        assert res.isomorphic and not res.inconclusive and res.witness is None


def coo_route(m, q):
    """(the matrix jordan_at handed to power_ranks, its ranks, the type or
    the ValueError jordan_at raised)."""
    seen = []
    original = jordan.power_ranks

    def recorded(a, p):
        seen.append(a)
        seen.append(original(a, p))
        return seen[-1]

    with mock.patch.object(jordan, "power_ranks", recorded):
        try:
            out = jordan_at(m, q)
        except ValueError as exc:
            out = exc
    a, ranks = seen
    return a, ranks, out


def dense_route(m, q):
    """evaluate's matrix, its field, its ranks, and from_nilpotent's type
    or error."""
    field, mat = constancy.point_field(m, q), evaluate(m, q)
    a = CooMatrix.from_dense(field, mat)
    try:
        out = from_nilpotent(a, m.p)
    except ValueError as exc:
        out = exc
    return mat, field, power_ranks(a, m.p), out


def assert_routes_agree(m, q):
    """jordan_at's COO matrix is evaluate's matrix, entry for entry, with
    distinct sorted positions and nonzero codes; ranks and types agree."""
    a, ranks, out = coo_route(m, q)
    mat, field, want_ranks, want = dense_route(m, q)
    assert isinstance(a, CooMatrix) and a.field == field and a.rows == m.dim
    rows, cols, codes = a.triples
    keys = rows * m.dim + cols
    assert np.all(np.diff(keys) > 0) and np.all(codes != 0)
    dense = np.zeros((m.dim, m.dim), dtype=np.int64)
    dense[rows, cols] = codes
    assert np.array_equal(dense, mat)
    assert ranks == want_ranks
    if isinstance(want, ValueError):
        assert isinstance(out, ValueError) and str(out) == str(want)
    else:
        assert out == want
    return ranks


@st.composite
def modules_and_points(draw):
    """A random module over GF(p) of dim 1-40 (both sides of
    BATCH_DIM_CUTOFF), and a point over GF(p) or GF(p^2), with up to two
    tail terms."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    r = draw(st.integers(1, 3))
    dim = draw(st.one_of(st.integers(1, 12), st.integers(28, 40)))
    m = random_module(make_field(p, 1), r, dim, draw(st.integers(0, 2**16)))
    f = make_field(p, draw(st.integers(1, 2)))
    linear = draw(st.lists(st.integers(0, f.q - 1), min_size=r, max_size=r))
    linear[0] += not any(linear)
    tail = []
    if (p - 1) * r >= 2:
        exps = st.lists(st.integers(0, p - 1), min_size=r, max_size=r).filter(lambda x: sum(x) >= 2)
        tail = draw(st.lists(st.tuples(exps, st.integers(0, f.q - 1)), max_size=2))
    return m, PiPoint(f, tuple(linear), tuple((tuple(x), c) for x, c in tail))


class TestSparsePointRoute:
    """jordan_at builds the point matrix as COO triples from the generators'
    nonzeros; it must be evaluate's matrix, with the same ranks and type."""

    @settings(max_examples=80, deadline=None)
    @given(modules_and_points())
    def test_matches_evaluate_on_random_modules(self, drawn):
        assert_routes_agree(*drawn)

    def test_dims_zero_and_one(self):
        f, f9 = make_field(3, 1), make_field(3, 2)
        for dim in (0, 1):
            m = ModuleRep(f, [np.zeros((dim, dim), dtype=np.int64)] * 2)
            for q in (PiPoint(f, (1, 2)), PiPoint(f9, (4, 0), (((1, 1), 5),))):
                assert assert_routes_agree(m, q) == [dim] + [0] * 3

    def test_sizes_around_the_batch_cutoff(self):
        cut = exactalg.BATCH_DIM_CUTOFF
        f, f25 = make_field(5, 1), make_field(5, 2)
        for dim in (cut - 1, cut, cut + 1, 2 * cut):
            m = random_module(f, 2, dim, dim)
            for q in (PiPoint(f, (1, 3)), PiPoint(f25, (7, 1), (((2, 1), 3), ((0, 2), 11)))):
                assert_routes_agree(m, q)

    def test_extension_module_at_level_one_and_its_own_field(self):
        # a GF(3) module in the basis diag(a^i) over GF(9): entries off GF(3)
        f3, f9 = make_field(3, 1), make_field(3, 2)
        for seed in range(3):
            base = random_module(f3, 2, 14, seed)
            d = np.array([f9.pow_scalar(4, i) for i in range(14)])
            d_inv = np.array([f9.inv_scalar(int(x)) for x in d])
            m = ModuleRep(f9, [f9.mul(f9.mul(d[:, None], a), d_inv[None, :]) for a in base.gens])
            assert any(np.any(a >= 3) for a in m.gens)
            for q in sweep_points(f9, 2, 1) + [PiPoint(f9, (1, 5), (((1, 1), 7),))]:
                assert_routes_agree(m, q)

    def test_large_extension_field_routes_by_the_join_count(self, monkeypatch):
        # GF(2^11) is above TABLE_CAP, so its products use discrete logs; the
        # sparse route and the image chain are chosen by the join count alone
        f2, f = make_field(2, 1), make_field(2, 11)
        base = random_module(f2, 2, 40, 3)
        m = ModuleRep(f, [base.gens[0], f.mul(np.int64(5), base.gens[1])])
        ranks = []
        for join in (exactalg.SPARSE_JOIN_PER_ROW, 0):
            monkeypatch.setattr(exactalg, "SPARSE_JOIN_PER_ROW", join)
            with (
                mock.patch.object(jordan, "_sparse_rank", wraps=jordan._sparse_rank) as sparse,
                mock.patch.object(jordan, "_echelonize", wraps=jordan._echelonize) as dense,
            ):
                ranks.append(assert_routes_agree(m, PiPoint(f, (1, 1000))))
            assert (sparse.called, dense.called) == ((True, False) if join else (False, True))
        assert ranks[0] == ranks[1] and ranks[0][1]

    def test_non_nilpotent_input_raises_the_same_error(self):
        f = make_field(5, 1)
        for n in (3, 40):
            cycle = np.roll(np.eye(n, dtype=np.int64), 1, axis=1)
            m = ModuleRep(f, [cycle, 2 * cycle])
            _, _, out = coo_route(m, PiPoint(f, (1, 1)))
            assert isinstance(out, ValueError) and "not nilpotent" in str(out)
            assert_routes_agree(m, PiPoint(f, (1, 1)))

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("r", [2, 3])
    def test_criterion_06_shifts_at_first_and_last_points(self, p, r):
        f = make_field(p, 1)
        points = sweep_points(f, r, 1)
        for n in range(-4, 5):
            shift = syzygy.omega_k(f, r, n)
            for q in (points[0], points[-1]):
                ranks = assert_routes_agree(shift, q)
                assert ranks[0] == shift.dim and ranks[p] == 0


class TestPointEntryCache:
    """Generator nonzeros are kept only on frozen (Heller-tower) modules."""

    def test_tower_level_keeps_its_entries_across_calls(self, monkeypatch):
        monkeypatch.setattr(modrep, "_module_cache", modrep._MemoCache())
        f = make_field(5, 1)
        m = syzygy.omega_k(f, 3, 2)
        assert m._coo == [None] * 3

        class Stores(list):
            def __setitem__(self, i, value):
                stored.append(i)
                super().__setitem__(i, value)

        stored = []
        m._coo = Stores(m._coo)
        points = [PiPoint(f, c) for c in [(1, 1, 1), (1, 2, 0), (0, 3, 1), (4, 0, 2), (2, 2, 2)]]
        types = [jordan_at(m, q) for q in points]
        assert sorted(stored) == [0, 1, 2]
        assert all(x is not None and not x[0].flags.writeable for x in m._coo)
        assert types == [from_nilpotent(CooMatrix.from_dense(f, evaluate(m, q)), 5) for q in points]

        # the rule by which the benchmark empties caches before each pass
        for name, mod in list(sys.modules.items()):
            if name == "cjt" or name.startswith("cjt."):
                for attr, obj in list(vars(mod).items()):
                    if isinstance(obj, dict) and "cache" in attr.lower():
                        obj.clear()
                    elif callable(getattr(obj, "cache_clear", None)):
                        obj.cache_clear()
        again = syzygy.omega_k(f, 3, 2)
        assert again is not m and again._coo == [None] * 3
        assert [jordan_at(again, q) for q in points] == types
        for kept, rebuilt in zip(m._coo, again._coo):
            assert rebuilt is not kept
            assert all(np.array_equal(x, y) for x, y in zip(kept, rebuilt))

    def test_a_write_into_a_writable_generator_gives_the_new_type(self):
        f = make_field(3, 1)
        m = random_module(f, 2, 9, 4)
        q = PiPoint(f, (1, 2))
        before = jordan_at(m, q)
        assert m._coo is None
        m.gens[0][...] = 0
        m.gens[1][...] = 0
        assert before != jt(3, {1: 9})
        assert jordan_at(m, q) == jt(3, {1: 9}) == from_nilpotent(CooMatrix.from_dense(f, evaluate(m, q)), 3)
