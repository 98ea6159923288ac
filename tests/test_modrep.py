import tracemalloc
from itertools import product

import numpy as np
import pytest

from split_free_oracle import split_free_by_rows
from stable_rank_oracle import restrict_to_point

from cjt.constancy import is_isomorphic, sweep_points
from cjt.exactalg import CooMatrix, Field, make_field, nullspace_array, rank_array
from cjt.jordan import JordanType, from_nilpotent
from cjt.modrep import (
    Convention,
    ModuleHom,
    ModuleRep,
    _free_shift,
    _monomial,
    _monomial_columns,
    build_extension,
    direct_sum,
    dual,
    factors_through_projective,
    free_module,
    hom,
    hom_space,
    jordan_block_module,
    omega_n,
    projective_cover_omega,
    radical_socle,
    split_free,
    tensor,
    trivial_module,
    validate,
)
from cjt.syzygy import omega_k
from cjt.zoo import random_module


def ke_mod_i2(field, r, convention=Convention.PRIMITIVE):
    """kE/I^2: generator i sends the cyclic generator to the i-th radical line."""
    gens = []
    for i in range(r):
        a = np.zeros((r + 1, r + 1), dtype=np.int64)
        a[i + 1, 0] = 1
        gens.append(a)
    return ModuleRep(field, gens, convention)


def evaluate_at(m, coords):
    f = m.field
    out = np.zeros((m.dim, m.dim), dtype=np.int64)
    for c, a in zip(coords, m.gens):
        if c:
            out = f.add(out, f.mul(np.int64(c), a))
    return out


def nilpotent_type(f, a, p):
    """from_nilpotent of a dense matrix of codes."""
    return from_nilpotent(CooMatrix.from_dense(f, a), p)


def jt(p, blocks):
    return JordanType.from_blocks(p, blocks)


class TestValidate:
    def test_trivial_module_ok(self):
        f = make_field(5, 1)
        assert validate(trivial_module(f, 2, 4)).ok

    def test_regular_block_ok(self):
        f = make_field(5, 1)
        assert validate(jordan_block_module(f, 5)).ok

    def test_non_commuting_pair_reported(self):
        f = make_field(3, 1)
        a = np.zeros((3, 3), dtype=np.int64)
        a[1, 0] = 1
        b = np.zeros((3, 3), dtype=np.int64)
        b[2, 1] = 1
        from cjt.modrep import ModuleRep

        rep = validate(ModuleRep(f, [a, b]))
        assert not rep.ok and rep.index == (0, 1)

    def test_non_nilpotent_reported(self):
        f = make_field(3, 1)
        from cjt.modrep import ModuleRep

        rep = validate(ModuleRep(f, [np.eye(2, dtype=np.int64)]))
        assert not rep.ok and rep.index == (0,)

    def test_free_module_validates(self):
        f = make_field(3, 1)
        assert validate(free_module(f, 2, 1)).ok

    def test_a_report_is_true_exactly_when_ok(self):
        f = make_field(3, 1)
        assert bool(validate(jordan_block_module(f, 3))) is True
        assert bool(validate(ModuleRep(f, [np.eye(2, dtype=np.int64)]))) is False


def test_module_repr_names_dim_rank_field_and_convention():
    m = trivial_module(make_field(5, 2), 3, 4)
    assert repr(m) == "ModuleRep(dim=4, r=3, GF(5^2), primitive)"
    group = ModuleRep(make_field(3, 1), [[[0]]], Convention.GROUP)
    assert repr(group) == "ModuleRep(dim=1, r=1, GF(3^1), group)"


class TestTensor:
    def test_two_by_two_primitive(self):
        f = make_field(5, 1)
        t = tensor(jordan_block_module(f, 2), jordan_block_module(f, 2))
        assert nilpotent_type(t.field, t.gens[0], 5) == jt(5, {3: 1, 1: 1})

    def test_top_block_tensor(self):
        f = make_field(5, 1)
        t = tensor(jordan_block_module(f, 4), jordan_block_module(f, 4))
        assert nilpotent_type(t.field, t.gens[0], 5) == jt(5, {5: 3, 1: 1})

    def test_unit_object(self):
        f = make_field(3, 1)
        m = ke_mod_i2(f, 2)
        k = trivial_module(f, 2, 1)
        t = tensor(k, m)
        for a, b in zip(t.gens, m.gens):
            assert np.array_equal(a, b)

    def test_group_convention_matches_primitive_types_rank_one(self):
        for p in (2, 3, 5):
            f = make_field(p, 1)
            for i in range(1, p + 1):
                for j in range(1, p + 1):
                    tp = tensor(
                        jordan_block_module(f, i), jordan_block_module(f, j)
                    )
                    tg = tensor(
                        jordan_block_module(f, i, Convention.GROUP),
                        jordan_block_module(f, j, Convention.GROUP),
                    )
                    assert nilpotent_type(tp.field, tp.gens[0], p) == nilpotent_type(tg.field, tg.gens[0], p)

    def test_convention_mismatch_raises(self):
        f = make_field(3, 1)
        with pytest.raises(ValueError):
            tensor(jordan_block_module(f, 2), jordan_block_module(f, 2, Convention.GROUP))

    def test_pointwise_kronecker_sum_identity(self):
        # at any linear point, the restricted tensor matrix is the Kronecker
        # sum of the restricted matrices (PRIMITIVE convention)
        f = make_field(3, 1)
        m = ke_mod_i2(f, 2)
        n = free_module(f, 2, 1)
        t = tensor(m, n)
        for coords in [(1, 0), (0, 1), (1, 1), (1, 2)]:
            am = evaluate_at(m, coords)
            an = evaluate_at(n, coords)
            at = evaluate_at(t, coords)
            want = f.add(f.kron(am, np.eye(n.dim, dtype=np.int64)), f.kron(np.eye(m.dim, dtype=np.int64), an))
            assert np.array_equal(at, want)

    def test_results_validate(self):
        f = make_field(3, 1)
        t = tensor(ke_mod_i2(f, 2), ke_mod_i2(f, 2))
        assert validate(t).ok


class TestDual:
    def test_trivial_selfdual(self):
        f = make_field(5, 1)
        k3 = trivial_module(f, 2, 3)
        d = dual(k3)
        assert all(np.array_equal(a, b) for a, b in zip(d.gens, k3.gens))

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_blocks_selfdual_type(self, i):
        f = make_field(5, 1)
        d = dual(jordan_block_module(f, i))
        assert nilpotent_type(d.field, d.gens[0], 5) == jt(5, {i: 1})

    @pytest.mark.parametrize("conv", [Convention.PRIMITIVE, Convention.GROUP])
    def test_double_dual_identity(self, conv):
        f = make_field(5, 1)
        m = ke_mod_i2(f, 3, conv)
        dd = dual(dual(m))
        assert all(np.array_equal(a, b) for a, b in zip(dd.gens, m.gens))

    def test_dual_of_cyclic_quotient_same_type_at_points(self):
        f = make_field(5, 1)
        m = ke_mod_i2(f, 2)
        d = dual(m)
        for coords in [(1, 0), (0, 1), (1, 3)]:
            tm = nilpotent_type(m.field, evaluate_at(m, coords), 5)
            td = nilpotent_type(d.field, evaluate_at(d, coords), 5)
            assert tm == td == jt(5, {2: 1, 1: 1})

    def test_group_dual_formula_is_involutive_on_free(self):
        f = make_field(3, 1)
        m = free_module(f, 2, 1, Convention.GROUP)
        dd = dual(dual(m))
        assert all(np.array_equal(a, b) for a, b in zip(dd.gens, m.gens))

    def test_primitive_dual_type_matches_at_every_point(self):
        # the restricted dual matrix is a negative transpose, so the type
        # agrees pointwise even off the maximal locus
        from cjt.zoo import w_module

        f = make_field(7, 1)
        m = w_module(f)
        d = dual(m)
        for coords in [(1, 0), (0, 1), (1, 1), (1, 3)]:
            assert nilpotent_type(m.field, evaluate_at(m, coords), 7) == nilpotent_type(d.field, evaluate_at(d, coords), 7)

    def test_group_dual_type_at_maximal_points(self):
        # for the group-like convention equality is asserted where the type
        # is maximal; a constant-type module is maximal everywhere
        f = make_field(3, 1)
        m = ke_mod_i2(f, 2, Convention.GROUP)
        d = dual(m)
        for coords in [(1, 0), (0, 1), (1, 1), (1, 2)]:
            assert nilpotent_type(m.field, evaluate_at(m, coords), 3) == nilpotent_type(d.field, evaluate_at(d, coords), 3)


class TestHom:
    def test_hom_from_trivial(self):
        f = make_field(5, 1)
        m = ke_mod_i2(f, 2)
        h = hom(trivial_module(f, 2, 1), m)
        for a, b in zip(h.gens, m.gens):
            assert np.array_equal(a, b)

    def test_hom_to_trivial_is_dual(self):
        f = make_field(5, 1)
        m = ke_mod_i2(f, 2)
        h = hom(m, trivial_module(f, 2, 1))
        for a, b in zip(h.gens, dual(m).gens):
            assert np.array_equal(a, b)

    def test_hom_of_blocks(self):
        f = make_field(5, 1)
        h = hom(jordan_block_module(f, 2), jordan_block_module(f, 2))
        assert nilpotent_type(h.field, h.gens[0], 5) == jt(5, {3: 1, 1: 1})


class TestHomSpace:
    def test_trivial_endomorphisms(self):
        f = make_field(3, 1)
        k = trivial_module(f, 2, 1)
        assert len(hom_space(k, k)) == 1

    def test_free_endomorphisms_have_group_algebra_dimension(self):
        f = make_field(3, 1)
        fr = free_module(f, 2, 1)
        assert len(hom_space(fr, fr)) == 9

    def test_cyclic_to_trivial(self):
        f = make_field(3, 1)
        assert len(hom_space(ke_mod_i2(f, 2), trivial_module(f, 2, 1))) == 1

    def test_basis_members_are_intertwiners(self):
        f = make_field(3, 1)
        m, n = ke_mod_i2(f, 2), free_module(f, 2, 1)
        for h in hom_space(m, n):
            assert h.is_intertwiner()

    @pytest.mark.parametrize("q", [(3, 1), (5, 1), (2, 2), (3, 2)])
    def test_basis_matches_the_kronecker_system(self, q):
        # the system written in place is the stacked I (x) A_i^T - B_i (x) I,
        # so its nullspace basis is the same array, pair by pair, including
        # pairs with a zero-dimensional module
        f = make_field(*q)
        zero = ModuleRep(f, [np.zeros((0, 0), dtype=np.int64)] * 2)
        mods = [random_module(f, 2, d, seed=d) for d in (1, 3, 4)] + [zero]
        for m, n in product(mods, repeat=2):
            blocks = [
                f.sub(np.kron(np.eye(n.dim, dtype=np.int64), a.T), np.kron(b, np.eye(m.dim, dtype=np.int64)))
                for a, b in zip(m.gens, n.gens)
            ]
            want = nullspace_array(f, np.vstack(blocks))
            got = hom_space(m, n)
            assert len(got) == want.shape[1]
            for h, column in zip(got, want.T):
                assert np.array_equal(h.matrix, column.reshape(n.dim, m.dim))

    def test_oversized_system_is_refused_before_anything_is_built(self):
        # 8 * 108^4 bytes is the first r = 1 square system past 1 GiB
        f = make_field(3, 1)
        m = trivial_module(f, 1, 108)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="1088391168 bytes"):
                hom_space(m, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestRadicalSocle:
    def test_trivial(self):
        f = make_field(3, 1)
        rad, soc = radical_socle(trivial_module(f, 2, 4))
        assert rad.shape[1] == 0 and soc.shape[1] == 4

    def test_free_rank_one(self):
        f = make_field(3, 1)
        rad, soc = radical_socle(free_module(f, 2, 1))
        assert rad.shape[1] == 8 and soc.shape[1] == 1

    def test_cyclic_quotient_rank_three(self):
        f = make_field(5, 1)
        rad, soc = radical_socle(ke_mod_i2(f, 3))
        assert rad.shape[1] == 3 and soc.shape[1] == 3

    def test_generator_count(self):
        # dim(M / rad M) = minimal number of generators: 1 for a cyclic module
        f = make_field(5, 1)
        m = ke_mod_i2(f, 3)
        rad, _ = radical_socle(m)
        assert m.dim - rad.shape[1] == 1


def monomial_index(p, mu):
    """The layout of kE's monomials: mixed radix, exponent of t_1 least significant."""
    return sum(x * p**i for i, x in enumerate(mu))


class TestMonomialLayout:
    """Cover columns and the free action against references built from
    exponent tuples, which share no index arithmetic with the code."""

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (3, 2)])
    @pytest.mark.parametrize("conv", [Convention.PRIMITIVE, Convention.GROUP])
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("dim,nvec", [(5, 2), (0, 2), (5, 0)])
    def test_columns_and_free_shift(self, p, e, conv, transposed, dim, nvec):
        from cjt.zoo import random_module

        f = make_field(p, e)
        r = 3
        rng = np.random.default_rng(p * e + dim + nvec)
        if dim:
            # scaling by extension codes keeps the actions commuting and nilpotent
            base = random_module(make_field(p, 1), r, dim, seed=p + nvec)
            gens = [f.mul(np.int64(rng.integers(1, f.q)), a) for a in base.gens]
        else:
            gens = [np.zeros((0, 0), dtype=np.int64)] * r
        if transposed:
            gens = [a.T for a in gens]
        m = ModuleRep(f, gens, conv, allow_large=True)
        assert validate(m).ok
        vectors = rng.integers(0, f.q, size=(dim, nvec)).astype(np.int64)
        count = p**r
        cols = _monomial_columns(m, vectors)
        assert cols.shape == (dim, nvec * count)
        for j in range(nvec):
            for mu in product(range(p), repeat=r):
                want = f.matmul(_monomial(f, m.gens, mu), vectors[:, [j]])
                assert np.array_equal(cols[:, [j * count + monomial_index(p, mu)]], want)

        rank_ = 2
        for i in range(r):
            regular = np.zeros((rank_ * count, rank_ * count), dtype=np.int64)
            for j in range(rank_):
                for mu in product(range(p), repeat=r):
                    if mu[i] < p - 1:
                        up = mu[:i] + (mu[i] + 1,) + mu[i + 1 :]
                        regular[j * count + monomial_index(p, up), j * count + monomial_index(p, mu)] = 1
            mat = rng.integers(0, f.q, size=(rank_ * count, 3)).astype(np.int64)
            assert np.array_equal(_free_shift(p, r, i, mat), f.matmul(regular, mat))
            assert np.array_equal(free_module(f, r, rank_, conv).gens[i], regular)
            assert _free_shift(p, r, i, np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)


class TestSplitFree:
    def test_free_rank_two(self):
        f = make_field(3, 1)
        res = split_free(free_module(f, 2, 2))
        assert res.free_rank == 2 and res.core.dim == 0

    def test_trivial_plus_free(self):
        f = make_field(3, 1)
        m = direct_sum([trivial_module(f, 2, 1), free_module(f, 2, 1)])
        res = split_free(m)
        assert res.free_rank == 1
        assert res.core.dim == 1 and not np.any(res.core.gens[0])

    def test_point_restriction_of_first_shift(self):
        # Omega^1(k) for r=2, p=5 restricted to the first generator splits as
        # 4 free blocks plus a [4]
        f = make_field(5, 1)
        omega1 = omega_n(trivial_module(f, 2, 1), 1)
        assert omega1.dim == 24
        from cjt.modrep import ModuleRep

        restricted = ModuleRep(f, [omega1.gens[0]])
        res = split_free(restricted)
        assert res.free_rank == 4
        assert nilpotent_type(res.core.field, res.core.gens[0], 5) == jt(5, {4: 1})

    def test_dimension_accounting(self):
        f = make_field(3, 1)
        m = direct_sum([ke_mod_i2(f, 2), free_module(f, 2, 2)])
        res = split_free(m)
        assert m.dim == res.free_rank * 9 + res.core.dim
        assert validate(res.core).ok

    def test_one_elimination_gives_rank_and_socle_functionals(self, monkeypatch):
        # theta, [free columns^T | E], the retraction's kernel and the core's
        # row reduction: four eliminations (the core's theta is tested zero
        # without one)
        from cjt import exactalg, modrep

        f = make_field(3, 1)
        m = direct_sum([omega_n(trivial_module(f, 2, 1), 1), free_module(f, 2, 2)])
        calls = []
        original = exactalg._echelonize

        def counted(field, a, width):
            calls.append(a.shape)
            return original(field, a, width)

        monkeypatch.setattr(exactalg, "_echelonize", counted)
        monkeypatch.setattr(modrep, "_echelonize", counted)
        res = split_free(m)
        assert res.free_rank == 2 and res.core.dim == m.dim - 18
        assert len(calls) == 4 and (18, m.dim + 2) in calls


def assert_same_split(got, want):
    assert got.free_rank == want.free_rank
    assert got.core_pivot_rows == want.core_pivot_rows
    assert np.array_equal(got.core_basis, want.core_basis)
    assert np.array_equal(got.core_projection, want.core_projection)
    assert got.core.field == want.core.field and got.core.convention == want.core.convention
    assert len(got.core.gens) == len(want.core.gens)
    assert all(np.array_equal(a, b) for a, b in zip(got.core.gens, want.core.gens))


class TestSplitFreeOracle:
    """split_free against the row-at-a-time reference in split_free_oracle."""

    @pytest.mark.parametrize("degrees,dim", [((1, 2, 2), 136), ((2, 2, 2), 165)])
    def test_carlson_sources_at_every_point(self, degrees, dim):
        # the sources of `cjt carlson --p 3 --rank 3 --degrees ...`, restricted
        # at every rational point and at two points over GF(9)
        f = make_field(3, 1)
        src = direct_sum([omega_k(f, 3, d) for d in degrees])
        assert src.dim == dim
        for q in sweep_points(f, 3, 1) + sweep_points(f, 3, 2)[:2]:
            m = restrict_to_point(src, q)
            assert_same_split(split_free(m), split_free_by_rows(m))

    def test_rank_two_tensor_with_free_summands(self):
        f = make_field(3, 1)
        shift = omega_k(f, 2, 3)
        m = tensor(shift, shift)
        assert m.dim == 289
        got = split_free(m)
        assert got.free_rank == 29
        assert_same_split(got, split_free_by_rows(m))

    def test_module_over_gf9(self):
        f = make_field(3, 2)
        shift = omega_k(f, 2, 2)
        m = tensor(shift, shift)
        got = split_free(m)
        assert got.free_rank > 0
        assert_same_split(got, split_free_by_rows(m))

    def test_whole_matrix_split_makes_few_products(self, monkeypatch):
        f = make_field(3, 1)
        src = direct_sum([omega_k(f, 3, 2)] * 3)
        m = restrict_to_point(src, sweep_points(f, 3, 1)[0])
        calls = []
        matmul = Field.matmul

        def counted(self, a, b):
            calls.append(a.shape)
            return matmul(self, a, b)

        monkeypatch.setattr(Field, "matmul", counted)
        split_free(m)
        assert len(calls) < 60


class TestCoverOmega:
    def test_omega_of_trivial(self):
        f = make_field(5, 1)
        res = projective_cover_omega(trivial_module(f, 2, 1))
        assert res.omega.dim == 24
        assert res.cover.is_intertwiner()
        assert res.inclusion.is_intertwiner()

    def test_omega_of_free_is_zero(self):
        f = make_field(3, 1)
        res = projective_cover_omega(free_module(f, 2, 1))
        assert res.omega.dim == 0

    def test_second_shift_dimension(self):
        f = make_field(5, 1)
        omega1 = omega_n(trivial_module(f, 2, 1), 1)
        res = projective_cover_omega(omega1)
        assert res.omega.dim == 26

    def test_omega_n_values(self):
        f3 = make_field(3, 1)
        assert omega_n(trivial_module(f3, 3, 1), 2).dim == 55
        k = trivial_module(f3, 2, 1)
        zero_shift = omega_n(k, 0)
        assert zero_shift.dim == 1 and not np.any(zero_shift.gens[0])
        f5 = make_field(5, 1)
        assert omega_n(trivial_module(f5, 2, 1), -2).dim == 26

    def test_negative_and_positive_shifts_match_dimensions(self):
        f = make_field(3, 1)
        k = trivial_module(f, 2, 1)
        for n in (1, 2, 3):
            assert omega_n(k, n).dim == omega_n(k, -n).dim


class TestFactorsThroughProjective:
    def test_identity_on_trivial_is_stably_nonzero(self):
        f = make_field(3, 1)
        k = trivial_module(f, 2, 1)
        h = ModuleHom(k, k, np.eye(1, dtype=np.int64))
        assert not factors_through_projective(h)

    def test_map_from_free_factors(self):
        f = make_field(3, 1)
        fr = free_module(f, 2, 1)
        k = trivial_module(f, 2, 1)
        for h in hom_space(fr, k):
            assert factors_through_projective(h)

    def test_nonzero_degree_one_cocycle_is_stably_nonzero(self):
        f = make_field(3, 1)
        k = trivial_module(f, 2, 1)
        omega1 = omega_n(k, 1)
        cocycles = [h for h in hom_space(omega1, k) if not h.is_zero()]
        assert cocycles
        assert not factors_through_projective(cocycles[0])


class TestBuildExtension:
    def test_zero_class_splits_pointwise(self):
        f = make_field(3, 1)
        k = trivial_module(f, 2, 1)
        m = ke_mod_i2(f, 2)
        omega1k = omega_n(k, 1)
        zero = ModuleHom(omega1k, m, np.zeros((m.dim, omega1k.dim), dtype=np.int64))
        ext = build_extension(zero, k)
        assert ext.middle.dim == m.dim + 1
        for coords in [(1, 0), (0, 1), (1, 1), (1, 2)]:
            tb = nilpotent_type(ext.middle.field, evaluate_at(ext.middle, coords), 3)
            tm = nilpotent_type(m.field, evaluate_at(m, coords), 3)
            assert tb == tm + jt(3, {1: 1})

    def test_nonsplit_self_extension_of_trivial_rank_one(self):
        f = make_field(3, 1)
        k = trivial_module(f, 1, 1)
        omega1k = omega_n(k, 1)
        witness = [h for h in hom_space(omega1k, k) if not h.is_zero()][0]
        ext = build_extension(witness, k)
        assert ext.middle.dim == 2
        assert nilpotent_type(ext.middle.field, ext.middle.gens[0], 3) == jt(3, {2: 1})

    def test_rejects_non_intertwiner(self):
        f = make_field(3, 1)
        k = trivial_module(f, 2, 1)
        m = ke_mod_i2(f, 2)
        omega1k = omega_n(k, 1)
        bad = np.zeros((m.dim, omega1k.dim), dtype=np.int64)
        bad[0, 0] = 1
        bad[2, 3] = 1
        hom_bad = ModuleHom(omega1k, m, bad)
        if not hom_bad.is_intertwiner():
            with pytest.raises(ValueError):
                build_extension(hom_bad, k)


class TestConstructorClosure:
    @pytest.mark.parametrize("conv", [Convention.PRIMITIVE, Convention.GROUP])
    def test_all_constructors_return_valid_modules(self, conv):
        f = make_field(3, 1)
        m = ke_mod_i2(f, 2, conv)
        n = free_module(f, 2, 1, conv)
        k = trivial_module(f, 2, 1, conv)
        assert validate(tensor(m, n)).ok
        assert validate(dual(m)).ok
        assert validate(hom(m, n)).ok
        assert validate(omega_n(k, 2)).ok
        assert validate(omega_n(k, -1)).ok
        omega1k = omega_n(k, 1)
        zero = ModuleHom(omega1k, m, np.zeros((m.dim, omega1k.dim), dtype=np.int64))
        assert validate(build_extension(zero, k).middle).ok


class TestIsIsomorphic:
    def test_literal_equality(self):
        f = make_field(3, 1)
        m = ke_mod_i2(f, 2)
        assert is_isomorphic(m, m).isomorphic

    def test_dimension_mismatch(self):
        f = make_field(3, 1)
        res = is_isomorphic(trivial_module(f, 1, 1), jordan_block_module(f, 2))
        assert not res.isomorphic and not res.inconclusive

    def test_conjugated_module_is_isomorphic(self):
        f = make_field(3, 1)
        m = ke_mod_i2(f, 2)
        rng = np.random.default_rng(2)
        while True:
            g = rng.integers(0, 3, (3, 3)).astype(np.int64)
            if rank_array(f, g) == 3:
                break
        from cjt.exactalg import solve_linear
        from cjt.modrep import ModuleRep

        ginv = solve_linear(f, g, np.eye(3, dtype=np.int64)).solution
        conj = ModuleRep(f, [f.matmul(g, f.matmul(a, ginv)) for a in m.gens])
        res = is_isomorphic(m, conj, seed=0)
        assert res.isomorphic

    def test_same_type_non_isomorphic_pair_is_not_conflated(self):
        # kE/I^2 and its dual share all local Jordan types but are not
        # isomorphic (one is generated by a single vector, the other is not)
        f = make_field(5, 1)
        m = ke_mod_i2(f, 2)
        res = is_isomorphic(m, dual(m), seed=0)
        assert not res.isomorphic

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
    def test_random_witness_matches_termwise_combination(self, p, e):
        # the witness is the first seeded combination of the hom basis that
        # is invertible; each combination is summed term by term here
        from cjt.exactalg import solve_linear
        from cjt.modrep import ModuleRep

        f = make_field(p, e)
        m = direct_sum([trivial_module(f, 2, 1), trivial_module(f, 2, 1), ke_mod_i2(f, 2)])
        rng = np.random.default_rng(p + e)
        while True:
            g = rng.integers(0, f.q, (m.dim, m.dim))
            if rank_array(f, g) == m.dim:
                break
        ginv = solve_linear(f, g, np.eye(m.dim, dtype=np.int64)).solution
        n = ModuleRep(f, [f.matmul(g, f.matmul(a, ginv)) for a in m.gens])
        basis = hom_space(m, n)
        assert all(rank_array(f, h.matrix) < m.dim for h in basis)
        draws = np.random.default_rng(0)
        for _ in range(200):
            mat = np.zeros((n.dim, m.dim), dtype=np.int64)
            for c, h in zip(draws.integers(0, f.q, len(basis)), basis):
                if c:
                    mat = f.add(mat, f.mul(np.int64(int(c)), h.matrix))
            if rank_array(f, mat) == m.dim:
                break
        res = is_isomorphic(m, n, seed=0)
        assert res.isomorphic and np.array_equal(res.witness.matrix, mat)


class TestSoftCap:
    def test_cap_binds_direct_construction_only(self, monkeypatch):
        from cjt import modrep
        from cjt.modrep import ModuleRep

        f = make_field(3, 1)
        small = ke_mod_i2(f, 2)  # dim 3
        monkeypatch.setattr(modrep, "DIM_SOFT_CAP", 3)
        gens = [np.zeros((4, 4), dtype=np.int64)] * 2
        with pytest.raises(ValueError, match="soft cap 3"):
            ModuleRep(f, gens)
        assert ModuleRep(f, gens, allow_large=True).dim == 4
        assert direct_sum([small, small]).dim == 6
        assert tensor(small, small).dim == 9


def test_modrep_imports_from_exactalg_only():
    import ast
    from pathlib import Path

    from cjt import constancy, modrep

    tree = ast.parse(Path(modrep.__file__).read_text(encoding="utf-8"))
    sources = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sources.add(node.module)
        elif isinstance(node, ast.Import):
            sources.update(alias.name for alias in node.names)
    assert {s for s in sources if s == "cjt" or s.startswith("cjt.")} == {"cjt.exactalg"}
    # constancy reaches exactalg through its public names only
    tree = ast.parse(Path(constancy.__file__).read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "cjt.exactalg"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
