"""Orbit enumeration, first-zero search and extension-field kernels against
point-by-point and polynomial oracles."""

from itertools import islice

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cjt.exactalg import TABLE_CAP, _poly_mod, _poly_mul, _poly_powmod, make_field, rank_array
from cjt.polymat import (
    CommonZeroNotFound,
    CommonZeroWitness,
    HomPoly,
    PolyMatrix,
    _orbit_blocks,
    common_zero_search,
    projective_points,
)

from test_exactalg import STACKED, _factor_dims, _python_int_matmul


def _orbit_oracle(field, nvars):
    """Points of P^(nvars-1)(GF(q)) whose e - 1 proper Frobenius conjugates
    all come strictly later in sweep order, found point by point."""
    position = {int(c): i for i, c in enumerate(field.ordered_codes())}

    def frob(x):
        return tuple(field.pow_scalar(c, field.p) for c in x)

    out = []
    for x in projective_points(field, nvars):
        key = [position[c] for c in x]
        y, keep = x, True
        for _ in range(field.e - 1):
            y = frob(y)
            keep &= [position[c] for c in y] > key
        if keep:
            out.append(x)
    return out


# (p, e, nvars) with at most a few thousand points to check one by one
ORBIT_CASES = [
    (2, 2, 1), (2, 2, 2), (2, 2, 4), (2, 3, 3), (2, 4, 3), (2, 6, 2), (3, 2, 3), (3, 2, 4),
    (3, 3, 2), (3, 4, 2), (5, 2, 3), (7, 2, 2), (7, 3, 2), (2, 5, 2), (3, 3, 3),
]


class TestOrbitBlocks:
    @settings(max_examples=len(ORBIT_CASES))
    @given(case=st.sampled_from(ORBIT_CASES))
    def test_matches_the_point_by_point_filter(self, case):
        p, e, nvars = case
        field = make_field(p, e)
        got = [tuple(x) for block in _orbit_blocks(field, nvars) for x in block.tolist()]
        assert got == _orbit_oracle(field, nvars)

    def test_small_chunks_keep_order_and_points(self):
        field = make_field(3, 2)
        whole = np.concatenate(list(_orbit_blocks(field, 4)))
        blocks = list(_orbit_blocks(field, 4, chunk=5))
        assert max(len(b) for b in blocks) <= 9  # one prefix of q = 9 tails at a time
        # every prefix keeps a last coordinate: the first point of an orbit
        assert min(len(b) for b in blocks) > 0
        assert np.array_equal(np.concatenate(blocks), whole)

    def test_level_one_streams_blocks_of_at_most_chunk_points(self):
        field = make_field(101, 1)
        blocks = list(_orbit_blocks(field, 3, chunk=50))
        assert max(len(b) for b in blocks) <= 50
        got = [tuple(x) for b in blocks for x in b.tolist()]
        assert got == list(projective_points(field, 3))
        # a level-1 sweep of a large prime field starts without building it whole
        first_two = list(islice(_orbit_blocks(make_field(1000003, 1), 2), 2))
        assert [len(b) for b in first_two] == [1, 1 << 15]


def _first_zero_oracle(m, k, max_e):
    """First point in sweep order, extensions ascending, where the evaluated
    matrix has rank below k, ranking every point of every level."""
    for e in range(1, max_e + 1):
        field = make_field(m.p, e)
        for x in projective_points(field, m.nvars):
            if rank_array(field, m.evaluate(field, x)) < k:
                return x, e
    return None


class TestFirstZeroSearch:
    @settings(max_examples=60)
    @given(
        pe=st.sampled_from([(2, 3), (3, 3), (5, 2), (2, 4)]),
        # k = 3 passes the blocks through _minor_sieve unfiltered
        shape=st.sampled_from([(3, 2, 2), (2, 2, 2), (3, 2, 1), (2, 3, 2), (3, 3, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_orbit_sweep_finds_the_first_zero(self, pe, shape, seed):
        # random linear forms in three variables: the first zero often lies
        # over an extension, where only orbit representatives are ranked
        p, max_e = pe
        rows, cols, k = shape
        rng = np.random.default_rng(seed)
        entries = [
            [HomPoly(p, 3, {exps: int(c) for exps, c in zip([(1, 0, 0), (0, 1, 0), (0, 0, 1)], rng.integers(0, p, 3))})
             for _ in range(cols)]
            for _ in range(rows)
        ]
        m = PolyMatrix(p, 3, entries)
        res = common_zero_search(m, k, max_e)
        want = _first_zero_oracle(m, k, max_e)
        if want is None:
            assert isinstance(res, CommonZeroNotFound)
            assert res.extensions_tested == list(range(1, max_e + 1))
        else:
            assert isinstance(res, CommonZeroWitness)
            assert (res.coords, res.extension) == want


# extension fields with tables, at the cap, and above it
KERNEL_FIELDS = [(2, 2), (3, 2), (2, 5), (7, 3), (2, 10), (37, 2), (3, 7)]


class TestExtensionKernels:
    @settings(max_examples=60)
    @given(
        pe=st.sampled_from(KERNEL_FIELDS),
        kinds=st.tuples(*[st.sampled_from(["full", "prime", "zero", "high"])] * 2),
        shape=st.tuples(st.integers(0, 2), st.integers(1, 4), st.integers(0, 5), st.integers(1, 4)),
        stacked=st.sampled_from(STACKED),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matmul_with_zero_digit_planes(self, pe, kinds, shape, stacked, seed):
        # factors over the prime field and zero factors take one digit
        # plane, and factors without a constant digit e planes whose lowest
        # is zero; the result must not change
        f = make_field(*pe)
        a_dims, b_dims = _factor_dims(shape, stacked)
        rng = np.random.default_rng(seed)

        def draw(kind, dims):
            if kind == "prime":
                return rng.integers(0, f.p, dims)
            if kind == "zero":
                return np.zeros(dims, dtype=np.int64)
            if kind == "high":
                return f.p * rng.integers(0, f.q // f.p, dims)
            return rng.integers(0, f.q, dims)

        a, b = draw(kinds[0], a_dims), draw(kinds[1], b_dims)
        assert np.array_equal(f.matmul(a, b), _python_int_matmul(f, a, b))

    @settings(max_examples=60)
    @given(
        pe=st.sampled_from(KERNEL_FIELDS),
        side=st.sampled_from(["left", "right"]),
        shape=st.tuples(st.integers(0, 2), st.integers(1, 4), st.integers(1, 5), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matmul_with_one_extension_entry(self, pe, side, shape, seed):
        # a factor over GF(p) but for one code in [p, q) must take the
        # general product, not the prime-factor shortcut
        f = make_field(*pe)
        count, m, k, n = shape
        lead = (count,) if count else ()
        rng = np.random.default_rng(seed)
        a, b = rng.integers(0, f.p, lead + (m, k)), rng.integers(0, f.p, lead + (k, n))
        x = a if side == "left" else b
        x[tuple(int(rng.integers(0, d)) for d in x.shape)] = rng.integers(f.p, f.q)
        assert np.array_equal(f.matmul(a, b), _python_int_matmul(f, a, b))

    @settings(max_examples=len(KERNEL_FIELDS))
    @given(pe=st.sampled_from(KERNEL_FIELDS))
    def test_frobenius_is_the_p_th_power(self, pe):
        f = make_field(*pe)
        codes = np.arange(min(f.q, 4096), dtype=np.int64)
        want = [f._poly_to_code(_poly_powmod(f._code_to_poly(int(c)), f.p, f.modulus, f.p)) for c in codes]
        assert f.frobenius(codes).tolist() == want
        assert f.frobenius(codes.reshape(-1, 1)).shape == (codes.size, 1)

    @settings(max_examples=len(KERNEL_FIELDS))
    @given(pe=st.sampled_from(KERNEL_FIELDS))
    def test_discrete_log_tables(self, pe):
        f = make_field(*pe)
        exp, log = f._tables()
        assert sorted(exp.tolist()) == list(range(1, f.q))
        assert np.array_equal(log[exp], np.arange(f.q - 1))
        g = f._code_to_poly(int(exp[1]))
        for i in np.random.default_rng(f.q).integers(0, f.q - 1, 20).tolist():
            assert int(exp[i]) == f._poly_to_code(_poly_powmod(g, i, f.modulus, f.p))
        if f.q <= TABLE_CAP:
            add, mul, _ = f._arith_tables()
            a, b = np.random.default_rng(f.p).integers(0, f.q, (2, 50)).tolist()
            for x, y in zip(a, b):
                prod = _poly_mod(_poly_mul(f._code_to_poly(x), f._code_to_poly(y), f.p), f.modulus, f.p)
                assert int(mul[x * f.q + y]) == f._poly_to_code(prod)
                assert int(add[x * f.q + y]) == int(f._digit_add(x, y))
