import json
from itertools import product

import numpy as np
import pytest

from cjt.cli import execute
from cjt.constancy import check_constant, is_isomorphic
from cjt.exactalg import make_field
from cjt.jordan import JordanType
from cjt.modrep import validate
from cjt.serialize import module_to_json
from cjt.zoo import build_example, ke_mod_i2, random_module, truncated_module, v_module, w_module


def jt(p, blocks):
    return JordanType.from_blocks(p, blocks)


class TestConstructors:
    def test_cyclic_quotient_shape_and_type(self):
        f = make_field(5, 1)
        m = build_example(f, "KE_MOD_I2", r=3)
        assert m.dim == 4
        rep = check_constant(m, max_e=2)
        assert rep.verdict == "CONSTANT_ON_TESTED"
        assert rep.type == jt(5, {2: 1, 1: 2})

    def test_w_is_truncated_window_at_p5(self):
        f = make_field(5, 1)
        w = build_example(f, "W")
        assert w.dim == 13
        t = truncated_module(f, 2, 3, 6)
        assert t.dim == 13
        assert is_isomorphic(w, t, seed=0).isomorphic

    def test_v_fixture(self):
        f = make_field(5, 1)
        m = build_example(f, "V", n=3)
        assert m.dim == 7
        rep = check_constant(m, exact=True)
        assert rep.verdict == "CONSTANT_EXACT"
        assert rep.type == jt(5, {2: 3, 1: 1})

    def test_jblock(self):
        f = make_field(7, 1)
        m = build_example(f, "JBLOCK", i=4)
        assert m.dim == 4 and m.r == 1

    def test_truncated_dimension_counts(self):
        f = make_field(3, 1)
        # degrees 1..2 in three variables with exponents < 3
        m = truncated_module(f, 3, 1, 3)
        assert m.dim == 3 + 6

    def test_w_rejects_p2(self):
        f = make_field(2, 1)
        with pytest.raises(ValueError):
            w_module(f)

    def test_bad_params(self):
        f = make_field(3, 1)
        with pytest.raises(ValueError):
            truncated_module(f, 2, 3, 3)
        with pytest.raises(ValueError):
            v_module(f, 0)
        with pytest.raises(ValueError):
            build_example(f, "NO_SUCH_NAME")

    def test_every_constructor_validates(self):
        f = make_field(3, 1)
        mods = [
            ke_mod_i2(f, 2),
            ke_mod_i2(f, 4),
            truncated_module(f, 2, 1, 4),
            truncated_module(f, 3, 0, 2),
            w_module(f),
            v_module(f, 4),
            random_module(f, 2, 7, seed=1),
            random_module(f, 3, 6, seed=2),
        ]
        for m in mods:
            assert validate(m).ok

    def test_random_is_seed_deterministic(self):
        f = make_field(5, 1)
        a = random_module(f, 2, 9, seed=7)
        b = random_module(f, 2, 9, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.gens, b.gens))
        c = random_module(f, 2, 9, seed=8)
        assert any(not np.array_equal(x, y) for x, y in zip(a.gens, c.gens))


class TestTruncatedConstancy:
    @pytest.mark.parametrize("p", [3, 5])
    def test_windows_are_constant(self, p):
        f = make_field(p, 1)
        cases = [(2, 0, 2), (2, 1, 3), (2, 2, 4), (3, 0, 2), (3, 1, 3)]
        for r, m_lo, n_hi in cases:
            if n_hi > p + 1:
                continue
            mod = truncated_module(f, r, m_lo, n_hi)
            if r == 2:
                rep = check_constant(mod, exact=True)
                assert rep.verdict == "CONSTANT_EXACT"
            else:
                rep = check_constant(mod, max_e=2)
                assert rep.verdict == "CONSTANT_ON_TESTED"


class TestSoftCapBeforeBuilding:
    """Fixtures check the dimension cap before they allocate: a RANDOM
    fixture of dim 5000 once spent minutes on its staircase, and TRUNCATED
    at p = 7, r = 6 asked numpy for 103 GiB of shift operators."""

    @pytest.fixture
    def tiny_cap(self, monkeypatch):
        from cjt import modrep, zoo

        def refuse(*args):
            raise AssertionError("built before the cap was checked")

        monkeypatch.setattr(modrep, "DIM_SOFT_CAP", 3)
        monkeypatch.setattr(zoo, "_random_staircase", refuse)
        monkeypatch.setattr(zoo, "_shift_operators", refuse)

    def test_random_module(self, tiny_cap):
        with pytest.raises(ValueError, match="dimension 5 exceeds the soft cap 3"):
            random_module(make_field(3, 1), 2, 5, 0)

    def test_truncated_module(self, tiny_cap):
        with pytest.raises(ValueError, match="dimension 6 exceeds the soft cap 3"):
            truncated_module(make_field(3, 1), 2, 0, 3)


class TestMonomialsOfDegrees:
    """TRUNCATED's basis is enumerated degree by degree: a scan of all p^r
    exponent tuples took 10.8 s for a dim-10 module at p = 7, r = 9."""

    def test_matches_the_tuple_scan(self):
        from cjt.zoo import _monomials_of_degrees

        for p in (2, 3, 5, 7):
            for r in range(1, 6):
                scan = sorted(product(range(p), repeat=r), key=lambda mu: (sum(mu), mu))
                for lo in range(r * (p - 1) + 2):
                    for hi in range(lo, lo + 6):
                        expected = [mu for mu in scan if lo <= sum(mu) < hi]
                        assert _monomials_of_degrees(r, p, lo, hi) == expected, (p, r, lo, hi)

    def test_no_scan_of_all_tuples(self, monkeypatch):
        from cjt import zoo

        def refuse(*args, **kwargs):
            raise AssertionError("scanned all p^r exponent tuples")

        # a scan would draw the 7^9 tuples from itertools.product
        monkeypatch.setattr(zoo, "product", refuse, raising=False)
        m = build_example(make_field(7, 1), "TRUNCATED", r=9, m=0, n=2)
        assert m.dim == 10
        assert validate(m).ok


class TestRandomByName:
    def test_matches_random_module_and_ignores_case(self):
        f = make_field(5, 1)
        want = random_module(f, 3, 7, 11)
        for name in ("RANDOM", "random", "Random"):
            got = build_example(f, name, r=3, dim=7, seed=11)
            assert (got.r, got.dim) == (3, 7)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got.gens, want.gens))

    def test_omitted_seed_is_zero(self):
        f = make_field(3, 1)
        got = build_example(f, "RANDOM", r=2, dim=6)
        want = random_module(f, 2, 6, 0)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.gens, want.gens))

    def test_cli_emits_the_module(self, capsys):
        code = execute(["zoo", "--name", "RANDOM", "--p", "3", "--params", '{"r":2,"dim":6,"seed":3}'])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out == module_to_json(random_module(make_field(3, 1), 2, 6, 3))
