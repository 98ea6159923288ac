"""The two generic-rank algorithms as each other's oracle, on r = 2.

``polymat.generic_rank`` certifies a rank by point evaluation (Serre's
bound); the exact rank-two constancy test reads the same rank off the
nonzero diagonal of a Smith reduction of each pencil power's chart-0
tensor (``polymat._chart_divisor``).  ``generic_type`` uses the first,
``check_constant(..., exact=True)`` the second, so they must agree power
by power, and the two must report the same type whenever the exact
verdict is CONSTANT_EXACT.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cjt import constancy, polymat
from cjt.constancy import _pencil_powers, check_constant, generic_type
from cjt.exactalg import make_field
from cjt.modrep import tensor
from cjt.polymat import HomPoly, _chart_divisor, generic_rank
from cjt.zoo import ke_mod_i2, random_module, truncated_module, v_module, w_module


def _assert_rank_algorithms_agree(m):
    for power in _pencil_powers(m):
        assert _chart_divisor(power)[0] == generic_rank(power)
    rep = check_constant(m, exact=True)
    if rep.verdict == "CONSTANT_EXACT":
        assert rep.type == generic_type(m)


@settings(max_examples=120)
@given(p=st.sampled_from([2, 3, 5, 7]), dim=st.integers(2, 18), seed=st.integers(0, 10_000))
def test_smith_and_point_ranks_agree_on_random_modules(p, dim, seed):
    _assert_rank_algorithms_agree(random_module(make_field(p, 1), 2, dim, seed=seed))


def _zoo(p):
    f = make_field(p, 1)
    mods = [v_module(f, 3), truncated_module(f, 2, 1, 4)]
    if p > 2:  # W needs nilpotency of order <= p
        mods += [w_module(f), tensor(w_module(f), ke_mod_i2(f, 2))]
    return mods


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_smith_and_point_ranks_agree_on_zoo(p):
    for m in _zoo(p):
        _assert_rank_algorithms_agree(m)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exact_path_runs_one_smith_reduction_per_power(p, monkeypatch):
    # chart 1 is reduced only through _determinantal_divisor, so the chart-0
    # reductions are the Smith reductions made outside it
    calls = {"smith": 0, "chart1": 0, "generic_rank": 0, "hompoly": 0}

    def counter(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(polymat, "_smith_diagonal", counter("smith", polymat._smith_diagonal))
    monkeypatch.setattr(polymat, "_determinantal_divisor", counter("chart1", polymat._determinantal_divisor))
    monkeypatch.setattr(constancy, "generic_rank", counter("generic_rank", constancy.generic_rank))
    monkeypatch.setattr(HomPoly, "__init__", counter("hompoly", HomPoly.__init__))
    for m in _zoo(p):
        powers = len(list(_pencil_powers(m)))
        for key in calls:
            calls[key] = 0
        check_constant(m, exact=True)
        assert calls["smith"] - calls["chart1"] == powers
        assert calls["generic_rank"] == 0
        assert calls["hompoly"] == 0
