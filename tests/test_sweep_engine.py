"""The batched sweep engine against per-point typing.

``constancy.level_types`` and the kernel ``jordan.jordan_types`` must give
exactly the Jordan types that ``jordan_at`` (one ``from_nilpotent`` per
point) gives, on either side of ``exactalg.BATCH_DIM_CUTOFF``, and type a
module at a level once while its memo holds it.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cjt import carlson, constancy, exactalg, modrep
from cjt.carlson import endotrivial_check, l_xi
from cjt.constancy import (
    PiPoint,
    check_constant,
    evaluate,
    gamma_locus,
    is_isomorphic,
    jordan_at,
    level_types,
    pi_support,
    sweep_points,
)
from cjt.exactalg import BATCH_DIM_CUTOFF, CooMatrix, Field, make_field
from cjt.jordan import JordanType, from_nilpotent, jordan_types
from cjt.modrep import Convention, ModuleRep, _MemoCache, omega_n, trivial_module
from cjt.syzygy import factor_generator, omega_k
from cjt.zoo import random_module, w_module

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# levels with more points than this are checked on a sample of their points
LEVEL_LIMIT = 150


def _module(p, r, dim, seed):
    f = make_field(p, 1)
    if dim == 0:
        return trivial_module(f, r, 0)
    return random_module(f, r, dim, seed)


def _level_size(p, r, e):
    q = p**e
    return (q**r - 1) // (q - 1)


def _random_points(field, r, count, rng):
    """Normalized points over the field: first nonzero coordinate 1."""
    out = []
    for _ in range(count):
        coords = [int(c) for c in rng.integers(0, field.q, r)]
        lead = int(rng.integers(0, r))
        coords[:lead] = [0] * lead
        coords[lead] = 1
        out.append(PiPoint(field, tuple(coords)))
    return out


@SEEDED
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    r=st.integers(1, 4),
    e=st.integers(1, 3),
    dim=st.one_of(
        st.sampled_from([0, 1, BATCH_DIM_CUTOFF, BATCH_DIM_CUTOFF + 1]),
        st.integers(2, 24),
    ),
    seed=st.integers(0, 10_000),
)
def test_engine_matches_per_point_types(p, r, e, dim, seed):
    m = _module(p, r, dim, seed)
    if _level_size(p, r, e) <= LEVEL_LIMIT:
        typed = level_types(m, e)
        assert [q for q, _ in typed] == sweep_points(m.field, r, e)
        assert [t for _, t in typed] == [jordan_at(m, q) for q, _ in typed]
    else:
        points = _random_points(make_field(p, e), r, 12, np.random.default_rng(seed))
        stack = np.stack([evaluate(m, q) for q in points])
        got = jordan_types(make_field(p, e), stack, p)
        assert got == [jordan_at(m, q) for q in points]


def _dense_stack(m, e):
    """The sweep points of level e, the field of their matrices, and the
    (points, dim, dim) stack of ``evaluate``."""
    points = sweep_points(m.field, m.r, e)
    field = make_field(m.p, e) if m.field.is_prime_field else m.field
    stack = np.array([evaluate(m, q) for q in points], dtype=np.int64).reshape(len(points), m.dim, m.dim)
    return points, field, stack


def _per_point_types(field, stack, p):
    """One ``from_nilpotent`` per dense ``evaluate`` matrix: neither the
    COO sum of ``jordan_at`` nor the stacked kernel."""
    return [from_nilpotent(CooMatrix.from_dense(field, a), p) for a in stack]


def _level_against_independent_routes(m, e, monkeypatch):
    """level_types(m, e) from an empty memo, and jordan_types on the dense
    ``evaluate`` stack of the same points, against one ``from_nilpotent``
    per dense matrix.  Above BATCH_DIM_CUTOFF level_types types each point
    by ``jordan_at`` and calls ``evaluate`` at none; at or below it, it
    types the ``evaluate`` stacks by jordan_types."""
    monkeypatch.setattr(modrep, "_module_cache", _MemoCache())
    points, field, stack = _dense_stack(m, e)
    expected = _per_point_types(field, stack, m.p)
    evaluated = []
    original = constancy.evaluate
    monkeypatch.setattr(constancy, "evaluate", lambda m, q: evaluated.append(q) or original(m, q))
    typed = level_types(m, e)
    monkeypatch.setattr(constancy, "evaluate", original)
    assert [q for q, _ in typed] == points
    assert [t for _, t in typed] == expected
    assert jordan_types(field, stack, m.p) == expected
    assert len(evaluated) == (0 if m.dim > BATCH_DIM_CUTOFF else len(points))


_CUTOFF_CASES = [
    (lambda: omega_n(trivial_module(make_field(3, 1), 3, 1), -1), 1),  # dim 26
    (lambda: omega_n(trivial_module(make_field(3, 1), 2, 1), 2), 2),  # dim 10
    (lambda: random_module(make_field(5, 1), 3, 48, 7), 1),
    (lambda: random_module(make_field(3, 1), 2, 40, 3), 2),
]


def test_stacked_elimination_above_the_cutoff(monkeypatch):
    # force the batched elimination of stack_ranks on slices that it
    # otherwise eliminates one by one
    monkeypatch.setattr(exactalg, "BATCH_DIM_CUTOFF", 10**6)
    for build, e in _CUTOFF_CASES:
        m = build()
        _, field, stack = _dense_stack(m, e)
        assert jordan_types(field, stack, m.p) == _per_point_types(field, stack, m.p)


def _over_gf9(dim, seed):
    """A random module conjugated by an invertible matrix over GF(9), so
    that its generators hold codes outside GF(3)."""
    f = make_field(3, 2)
    m = random_module(f, 2, dim, seed)
    rng = np.random.default_rng(seed)
    while True:
        g = rng.integers(0, f.q, (dim, dim))
        if exactalg.rank(f, g) == dim:
            break
    ginv = exactalg.solve_linear(f, g, np.eye(dim, dtype=np.int64)).solution
    return ModuleRep(f, [f.matmul(f.matmul(g, a), ginv) for a in m.gens])


@pytest.mark.parametrize(
    "build, e",
    _CUTOFF_CASES
    + [
        (lambda: omega_k(make_field(5, 1), 3, 2), 1),  # dim 251, 31 points
        (lambda: _over_gf9(40, 5), 1),
        (lambda: random_module(make_field(3, 1), 2, BATCH_DIM_CUTOFF, 11), 2),
        (lambda: random_module(make_field(3, 1), 2, BATCH_DIM_CUTOFF + 1, 11), 2),
        (lambda: random_module(make_field(5, 1), 1, BATCH_DIM_CUTOFF + 1, 2), 2),  # no points
    ],
    ids=[
        "omega-1-p3-r3",
        "omega2-p3-r2",
        "random-48",
        "random-40",
        "omega2-p5-r3",
        "gf9-level1",
        "at-cutoff",
        "above-cutoff",
        "empty-level",
    ],
)
def test_level_types_match_the_stacked_kernel(build, e, monkeypatch):
    m = build()
    assert any((g >= m.p).any() for g in m.gens) == (not m.field.is_prime_field)
    _level_against_independent_routes(m, e, monkeypatch)


def test_kernel_checks_like_from_nilpotent():
    f = make_field(5, 2)
    with pytest.raises(ValueError, match="not nilpotent"):
        jordan_types(f, np.eye(3, dtype=np.int64)[None], 5)
    with pytest.raises(ValueError, match="square"):
        jordan_types(f, np.zeros((2, 3, 4), dtype=np.int64), 5)
    assert jordan_types(f, np.zeros((0, 3, 3), dtype=np.int64), 5) == []
    zero = JordanType(5, (0,) * 5)
    assert jordan_types(f, np.zeros((2, 0, 0), dtype=np.int64), 5) == [zero, zero]


def test_kernel_mixes_types_in_one_stack():
    f = make_field(7, 1)
    m = w_module(f)
    points = sweep_points(f, 2, 1)
    stack = np.stack([evaluate(m, q) for q in points])
    types = jordan_types(f, stack, 7)
    assert len(set(types)) == 2
    assert types == [from_nilpotent(CooMatrix.from_dense(f, a), 7) for a in stack]


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (7, 1), (7, 2)])
def test_gamma_locus_support_is_pi_support(p, e):
    m = w_module(make_field(p, 1))
    assert gamma_locus(m, e).support == pi_support(m, e)


class TestDepthAdmission:
    """An exhaustive sweep refuses a depth it cannot reach before it sweeps
    any level: level max_e must keep q^r below 2^62 and, above level 1,
    the discrete-log tables of GF(p^max_e) within exactalg.LOG_TABLE_BYTES.
    Sweeping stands in for a run that would take minutes, or exhaust
    memory, before the old per-level checks refused it."""

    # at p = 3, r = 2: 3^80 coordinate tuples; tables of 1.95e9 bytes for GF(3^15)
    DEPTHS = pytest.mark.parametrize(
        "max_e,message", [(40, "q\\^r < 2\\^62"), (15, "discrete-log tables")], ids=["tuples", "tables"]
    )

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a level was swept")

        for module in (constancy, carlson):
            monkeypatch.setattr(module, "level_types", refuse)
            monkeypatch.setattr(module, "sweep_points", refuse)

    @DEPTHS
    def test_check_constant(self, no_sweep, max_e, message):
        # W is nonconstant at level 1, which once stopped the sweep there
        with pytest.raises(ValueError, match=message):
            check_constant(w_module(make_field(3, 1)), max_e=max_e)

    @DEPTHS
    def test_endotrivial_check(self, no_sweep, max_e, message):
        with pytest.raises(ValueError, match=message):
            endotrivial_check(w_module(make_field(3, 1)), max_e=max_e)

    @DEPTHS
    def test_l_xi(self, no_sweep, max_e, message):
        f = make_field(3, 1)
        classes = [factor_generator(f, 2, 0, 1), factor_generator(f, 2, 1, 1)]
        with pytest.raises(ValueError, match=message):
            l_xi(classes, max_e=max_e)

    def test_level_is_checked_before_its_codes_are_built(self, monkeypatch):
        # GF(2^25) has 2^50 coordinate pairs, but its Frobenius needs 7.2 GB
        # of log tables; its ordered codes alone took 25 planes of 2^25 codes
        def refuse(self):
            raise AssertionError("codes built")

        monkeypatch.setattr(Field, "ordered_codes", refuse)
        with pytest.raises(ValueError, match="discrete-log tables"):
            sweep_points(make_field(2, 1), 2, 25)


class TestLevelMemo:
    """``level_types`` keeps each typed (module, level) in
    ``modrep._module_cache``, an LRU bounded by bytes and keyed by the
    module's field, convention, dim and generator bytes plus ("level", e)."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The points ``evaluate`` is called at, from an empty memo."""
        monkeypatch.setattr(modrep, "_module_cache", _MemoCache())
        points = []
        original = constancy.evaluate
        monkeypatch.setattr(constancy, "evaluate", lambda m, q: points.append(q) or original(m, q))
        return points

    def test_each_level_is_typed_once(self, evaluated):
        f = make_field(3, 1)
        m = omega_k(f, 2, 1)  # constant type, so check_constant sweeps both levels
        assert check_constant(m, 2).verdict == "CONSTANT_ON_TESTED"
        gamma_locus(m, 2)
        pi_support(m, 2)
        assert is_isomorphic(m, m)
        swept = sweep_points(f, 2, 1) + sweep_points(f, 2, 2)
        assert Counter(evaluated) == Counter(swept) and len(evaluated) == len(swept)

    def test_a_hit_is_a_new_list_equal_to_a_fresh_sweep(self, evaluated, monkeypatch):
        m = random_module(make_field(5, 1), 2, 6, 4)
        first = level_types(m, 2)
        count = len(evaluated)
        hit = level_types(m, 2)
        assert len(evaluated) == count
        assert hit == first and hit is not first
        hit.clear()
        monkeypatch.setattr(modrep, "_module_cache", _MemoCache())
        assert level_types(m, 2) == first == [(q, jordan_at(m, q)) for q, _ in first]

    def test_a_write_into_a_generator_retypes(self, evaluated):
        f = make_field(3, 1)
        m = random_module(f, 2, 5, 11)
        before = level_types(m, 1)
        m.gens[1][...] = 0  # still commuting and nilpotent
        after = level_types(m, 1)
        assert len(evaluated) == 2 * len(before)
        assert after != before
        assert after == [(q, jordan_at(m, q)) for q in sweep_points(f, 2, 1)]

    def test_equal_bytes_in_another_category_do_not_share(self, evaluated):
        block = np.eye(3, k=-1, dtype=np.int64)  # one Jordan block of size 3
        zero = np.zeros((3, 3), dtype=np.int64)
        modules = [
            ModuleRep(make_field(3, 1), [block, zero]),
            ModuleRep(make_field(5, 1), [block, zero]),
            ModuleRep(make_field(3, 2), [block, zero]),
            ModuleRep(make_field(3, 1), [block, zero, zero]),
            ModuleRep(make_field(3, 1), [block, zero], Convention.GROUP),
        ]
        for m in modules:
            assert level_types(m, 1) == [(q, jordan_at(m, q)) for q in sweep_points(m.field, m.r, 1)]
        assert len(modrep._module_cache) == len(modules)

    @staticmethod
    def _cached(*modules):
        """Which of the modules have a typed level in the memo, and a check
        that its running weight is the sum of its entries' sizes, each the
        key's generator bytes and the entry's weight."""
        cache = modrep._module_cache
        assert all(size == sum(map(len, k[3])) + constancy._level_weight(v) for k, (v, size) in cache.items())
        assert cache.weight == sum(size for _, size in cache.values())
        held = {k[3] for k in cache if k[4] == "level"}
        return [tuple(a.tobytes() for a in m.gens) in held for m in modules]

    @staticmethod
    def _sizes():
        return [size for _, size in modrep._module_cache.values()]

    def test_the_least_recently_used_level_is_evicted(self, evaluated, monkeypatch):
        f = make_field(3, 1)
        small = [random_module(f, 2, 3, seed) for seed in range(4)]
        for m in small[:3]:
            level_types(m, 1)
        weights = self._sizes()
        assert len(set(weights)) == 1  # equal dims and points: equal weights
        monkeypatch.setattr(modrep, "MODULE_CACHE_BYTES", 3 * weights[0])
        level_types(small[0], 1)  # now small[1] is the least recently used
        level_types(small[3], 1)
        assert self._cached(*small) == [True, False, True, True]
        count = len(evaluated)
        for m in (small[0], small[2], small[3]):
            level_types(m, 1)
        assert len(evaluated) == count
        level_types(small[1], 1)  # retyped, and small[0] goes
        assert len(evaluated) == count + len(sweep_points(f, 2, 1))
        assert self._cached(*small) == [False, True, True, True]

    def test_the_key_bytes_are_weighed(self, evaluated, monkeypatch):
        """A level of a dim-18 module has as many points as one of a dim-3
        module, but its generators' bytes push out four small levels."""
        f = make_field(3, 1)
        small = [random_module(f, 2, 3, seed) for seed in range(5)]
        large = random_module(f, 2, 18, 5)
        for m in small + [large]:
            level_types(m, 1)
        w_small, *_, w_large = self._sizes()
        assert 3 * w_small < w_large <= 4 * w_small
        modrep._module_cache.clear()
        monkeypatch.setattr(modrep, "MODULE_CACHE_BYTES", 5 * w_small)
        for m in small + [small[0]]:  # small[1] is now the least recently used
            level_types(m, 1)
        assert self._cached(*small, large) == [True] * 5 + [False]
        count = len(evaluated)
        level_types(large, 1)
        assert len(evaluated) == count + len(sweep_points(f, 2, 1))
        # counted by points, one small level would go
        assert self._cached(*small, large) == [True, False, False, False, False, True]

    def test_the_newest_level_is_kept_over_the_budget(self, evaluated, monkeypatch):
        monkeypatch.setattr(modrep, "MODULE_CACHE_BYTES", 1)
        f = make_field(5, 1)
        first, second = random_module(f, 2, 4, 1), random_module(f, 2, 4, 2)
        typed = level_types(first, 2)
        assert self._cached(first, second) == [True, False] and len(modrep._module_cache) == 1
        count = len(evaluated)
        assert level_types(first, 2) == typed and len(evaluated) == count
        level_types(second, 2)
        assert len(modrep._module_cache) == 1
        assert [k[3] for k in modrep._module_cache] == [tuple(a.tobytes() for a in second.gens)]
        level_types(first, 2)
        assert len(evaluated) == count + 2 * len(sweep_points(f, 2, 2))

    def test_a_session_types_each_level_once(self, monkeypatch):
        """Interleaved check_constant, gamma_locus and pi_support over 17
        modules, two of them Heller shifts whose levels share the cache,
        evaluate each point of each (module, level) once."""
        monkeypatch.setattr(modrep, "_module_cache", _MemoCache())
        calls = []
        original = constancy.evaluate
        monkeypatch.setattr(constancy, "evaluate", lambda m, q: calls.append((id(m), q)) or original(m, q))
        modules = [omega_k(make_field(3, 1), 2, 1), omega_k(make_field(5, 1), 2, -1)]
        modules += [random_module(make_field(3 + 2 * (i % 2), 1), 2, 3 + i % 4, i) for i in range(15)]
        swept = [check_constant(m, 2).extensions for m in modules]
        # level 2 is typed first by check_constant on some modules, by gamma_locus on others
        assert [1] in swept and [1, 2] in swept
        for m in modules:
            gamma_locus(m, 2)
        for m in reversed(modules):
            pi_support(m, 2)
        for m in modules[::2]:
            check_constant(m, 2)
        expected = Counter((id(m), q) for m in modules for e in (1, 2) for q in sweep_points(m.field, m.r, e))
        assert Counter(calls) == expected and set(expected.values()) == {1}

    def test_unmemoized_calls_leave_the_caches_alone(self):
        """generic_type, sweep_points and jordan_at add to no cache: the
        benchmark's untimed output checks call them, and a memo filled there
        would move timed work into those checks."""
        f = make_field(3, 1)
        tower_level = omega_n(trivial_module(f, 2), 2)
        plain = random_module(f, 2, 5, 3)
        level_types(plain, 1)

        def state():
            return [
                [(k, id(v)) for k, v in modrep._module_cache.items()],
                modrep._module_cache.weight,
            ]

        before = state()
        for m in (tower_level, plain, random_module(f, 2, 4, 8)):
            constancy.generic_type(m)
            for e in (1, 2):
                for q in sweep_points(m.field, m.r, e):
                    jordan_at(m, q)
        assert state() == before
