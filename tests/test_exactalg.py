import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from cjt.exactalg import (
    MAX_P,
    TABLE_CAP,
    BACK_SUB_BLOCK,
    CooMatrix,
    Field,
    _poly_divmod,
    _poly_mod,
    _poly_mul,
    _power,
    make_field,
    nullspace,
    nullspace_array,
    rank,
    rank_array,
    rref_array,
    solve_linear,
)


def naive_rank_mod_p(rows, p):
    """Reference rank over GF(p), scalar row reduction with no numpy tricks."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rk = 0
    for c in range(ncols):
        piv = None
        for r in range(rk, nrows):
            if m[r][c] % p:
                piv = r
                break
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        inv = pow(m[rk][c], p - 2, p)
        m[rk] = [(x * inv) % p for x in m[rk]]
        for r in range(nrows):
            if r != rk and m[r][c] % p:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rk])]
        rk += 1
    return rk


def brute_force_smallest_irreducible(p, e):
    """Exhaustive search over all monic degree-e polynomials, trial division."""

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def all_monic(d):
        for code in range(p**d):
            c, coeffs = code, []
            for _ in range(d):
                coeffs.append(c % p)
                c //= p
            yield coeffs + [1]

    def reducible(f):
        for d in range(1, e // 2 + 1):
            for g in all_monic(d):
                # trial divide f by g
                r = list(f)
                while len(r) >= len(g) and any(r):
                    if r[-1] == 0:
                        r.pop()
                        continue
                    lead = r[-1]
                    shift = len(r) - len(g)
                    for i, gi in enumerate(g):
                        r[shift + i] = (r[shift + i] - lead * gi) % p
                    r.pop()
                while r and r[-1] == 0:
                    r.pop()
                if not r:
                    return True
        return False

    best = None
    for f in all_monic(e):
        key = tuple(f[:-1])
        if (best is None or key < best[0]) and not reducible(f):
            best = (key, tuple(f))
    return best[1]


class TestMakeField:
    def test_prime_field_modulus_is_x(self):
        f = make_field(5, 1)
        assert (f.p, f.e, f.modulus) == (5, 1, (0, 1))

    def test_gf4_modulus_unique(self):
        f = make_field(2, 2)
        assert f.modulus == (1, 1, 1)

    def test_repr_names_the_characteristic_and_degree(self):
        assert repr(make_field(5, 3)) == "Field(p=5, e=3)"

    def test_gf25_modulus_matches_exhaustive_search(self):
        assert make_field(5, 2).modulus == brute_force_smallest_irreducible(5, 2)

    @pytest.mark.parametrize(
        "p,e", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 3), (7, 2), (7, 3)]
    )
    def test_small_moduli_match_exhaustive_search(self, p, e):
        assert make_field(p, e).modulus == brute_force_smallest_irreducible(p, e)

    def test_rejects_composite_p(self):
        for p in (6, 0, 1, -3):
            with pytest.raises(ValueError, match="not prime"):
                make_field(p, 1)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            make_field(5, 0)

    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            Field(5, 2, (0, 0, 1))  # x^2 factors

    def test_candidate_walk_takes_constant_memory(self):
        # x^2 + 1 is the first candidate and is irreducible, as 1000003 = 3
        # mod 4; the walk must not hold a tuple of every residue meanwhile
        tracemalloc.start()
        try:
            f = make_field.__wrapped__(1000003, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.modulus == (1, 0, 1)
        assert peak < 1 << 20


# primes near the word-size bound: the largest supported one, and ones for
# which float64 dot products of 2, 3 and 7 terms are exact
NEAR_BOUND = [94906249, 67108859, 54794149, 35871193]


def _python_int_matmul(field, a, b):
    """Matrix product of code arrays, entry by entry in Python integers.
    Stacks of different ndim are broadcast first, as numpy's matmul does."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a, b = np.broadcast_to(a, lead + a.shape[-2:]), np.broadcast_to(b, lead + b.shape[-2:])
    p, mod = field.p, field.modulus
    out = np.zeros(a.shape[:-1] + b.shape[-1:], dtype=np.int64)
    for idx in np.ndindex(out.shape):
        *stack, i, j = idx
        acc = ()
        for t in range(a.shape[-1]):
            x, y = int(a[(*stack, i, t)]), int(b[(*stack, t, j)])
            term = _poly_mul(field._code_to_poly(x), field._code_to_poly(y), p)
            width = max(len(acc), len(term))
            acc = tuple((u + v) % p for u, v in zip(acc + (0,) * (width - len(acc)), term + (0,) * (width - len(term))))
        out[idx] = field._poly_to_code(_poly_mod(acc, mod, p) if field.e > 1 else acc)
    return out


# which factors of a stacked product carry the stack axis: both, as in
# stack_ranks' powers, only the left one, as in (count, m, k) @ (k, n) from
# _pencil_powers and jordan_types, or only the right one
STACKED = ["both", "left", "right"]


def _factor_dims(shape, stacked):
    """Shapes of the two factors of a product of (count,) stacks of m x k and
    k x n matrices, from shape = (count, m, k, n); count 0 means plain
    matrices."""
    count, m, k, n = shape
    lead = (count,) if count else ()
    return (lead if stacked != "right" else ()) + (m, k), (lead if stacked != "left" else ()) + (k, n)


@settings(max_examples=100)
@given(
    p=st.sampled_from([2, 3, 7, 31]),
    a=st.lists(st.integers(0, 30), max_size=9),
    m=st.lists(st.integers(0, 30), min_size=1, max_size=5),
)
def test_poly_divmod(p, a, m):
    a, m = [c % p for c in a], [c % p for c in m]
    if not m[-1]:
        m[-1] = 1
    quo, rem = _poly_divmod(a, m, p)
    assert len(rem) < len(m)
    assert rem == _poly_mod(a, m, p)
    prod = list(_poly_mul(quo, m, p)) + [0] * (len(a) + 1)
    padded_rem = list(rem) + [0] * (len(prod) - len(rem))
    summed = [(x + y) % p for x, y in zip(prod, padded_rem)]
    assert tuple(summed[: len(a)]) == tuple(a) and not any(summed[len(a) :])


class TestWordSize:
    def test_bound_is_the_largest_p_with_exact_float_products(self):
        assert (MAX_P - 1) ** 2 < 2**53 <= MAX_P**2
        assert [(2**53 - 1) // (p - 1) ** 2 for p in NEAR_BOUND] == [1, 2, 3, 7]

    @pytest.mark.parametrize("p", [94906297, 2147483647, 3037000493, 2**61 - 1])
    def test_rejects_p_above_the_bound(self, p):
        with pytest.raises(ValueError, match="supported bound"):
            make_field(p, 1)
        with pytest.raises(ValueError, match="supported bound"):
            Field(p, 1, (0, 1))

    def test_rejects_codes_beyond_int64(self):
        with pytest.raises(ValueError, match="2\\^63"):
            make_field(2, 63)
        assert make_field(2, 62).q == 2**62

    def test_elementwise_arithmetic_refuses_oversized_log_tables(self):
        # the discrete-log tables of GF(2^40) would take 8 q (e + 2) bytes,
        # about 336 TiB: refused before anything is allocated
        f = make_field(2, 40)
        start = time.perf_counter()
        calls = [
            lambda: f.mul(3, 5),
            lambda: f.inv(3),
            lambda: f.inv_scalar(3),
            lambda: f.pow_scalar(3, 5),
            lambda: f.pow_array(3, 5),
            lambda: f.frobenius(3),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"GF\\(2\\^40\\).*q = {2**40}"):
                call()
        assert time.perf_counter() - start < 1
        assert f._exp is None
        g = make_field(1009, 2)
        a = np.arange(1, 2000, dtype=np.int64) * 509
        assert np.all(g.mul(a, g.inv(a)) == 1)
        assert np.array_equal(g.frobenius(g.frobenius(a)), a)

    @settings(max_examples=80)
    @given(
        pe=st.sampled_from([(p, 1) for p in NEAR_BOUND] + [(94906249, 2), (35871193, 2)]),
        shape=st.tuples(st.integers(0, 3), st.integers(1, 4), st.integers(0, 9), st.integers(1, 4)),
        stacked=st.sampled_from(STACKED),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matmul_near_the_bound_matches_python_ints(self, pe, shape, stacked, seed):
        f = make_field(*pe)
        a_dims, b_dims = _factor_dims(shape, stacked)
        rng = np.random.default_rng(seed)
        # entries near q - 1 make every partial sum as large as it gets
        a = f.q - 1 - rng.integers(0, 3, a_dims)
        b = rng.integers(0, f.q, b_dims)
        assert np.array_equal(f.matmul(a, b), _python_int_matmul(f, a, b))

    @pytest.mark.parametrize("p", [NEAR_BOUND[0], NEAR_BOUND[3]])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_plane_sums_on_one_power_stay_exact(self, p, k):
        # a's digits are odd and b's are even then odd, so for odd k the two
        # plane products landing on x^1 sum to an odd integer, which float64
        # rounds once it passes 2^53 (at k = 1 for the top prime, k = 5 for
        # 35871193)
        f = make_field(p, 2)
        a = np.full((2, k), (p - 2) + p * (p - 2))
        b = np.full((k, 2), (p - 3) + p * (p - 2))
        assert np.array_equal(f.matmul(a, b), _python_int_matmul(f, a, b))

    def test_six_by_six_products_at_the_top_prime(self):
        f = make_field(NEAR_BOUND[0], 1)
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, f.p, (2, 6, 6))
        assert np.array_equal(f.matmul(a, b), _python_int_matmul(f, a, b))


class TestFieldArithmetic:
    @pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (2, 4), (3, 2), (5, 2), (7, 2), (2, 8)])
    def test_inverses_and_frobenius_exhaustive(self, p, e):
        f = make_field(p, e)
        codes = np.arange(1, f.q, dtype=np.int64)
        assert np.all(f.mul(codes, f.inv(codes)) == 1)
        a = np.repeat(np.arange(f.q, dtype=np.int64), f.q)
        b = np.tile(np.arange(f.q, dtype=np.int64), f.q)
        # Frobenius is additive and multiplicative
        assert np.array_equal(f.frobenius(f.add(a, b)), f.add(f.frobenius(a), f.frobenius(b)))
        assert np.array_equal(f.frobenius(f.mul(a, b)), f.mul(f.frobenius(a), f.frobenius(b)))
        # x^(p^e) = x
        x = np.arange(f.q, dtype=np.int64)
        for _ in range(e):
            x = f.frobenius(x)
        assert np.array_equal(x, np.arange(f.q))

    def test_associativity_distributivity_sampled(self):
        f = make_field(3, 3)
        rng = np.random.default_rng(0)
        a, b, c = (rng.integers(0, f.q, 200) for _ in range(3))
        assert np.array_equal(f.mul(a, f.mul(b, c)), f.mul(f.mul(a, b), c))
        assert np.array_equal(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)))

    def test_element_coeffs_roundtrip(self):
        f = make_field(5, 2)
        for code in range(f.q):
            coeffs = f.serialize_code(code)
            assert len(coeffs) == f.e
            assert f.code_of(coeffs) == code
            assert f.code_of(code) == code

    def test_element_serialization_shape(self):
        assert make_field(7, 1).serialize_code(make_field(7, 1).code_of(3)) == 3
        assert make_field(2, 2).serialize_code(make_field(2, 2).code_of([1, 1])) == [1, 1]

    def test_matmul_extension_field_matches_elementwise(self):
        f = make_field(3, 2)
        rng = np.random.default_rng(1)
        a = rng.integers(0, f.q, (6, 5)).astype(np.int64)
        b = rng.integers(0, f.q, (5, 4)).astype(np.int64)
        got = f.matmul(a, b)
        want = np.zeros((6, 4), dtype=np.int64)
        for i in range(6):
            for j in range(4):
                acc = np.int64(0)
                for k in range(5):
                    acc = f.add(acc, f.mul(a[i, k], b[k, j]))
                want[i, j] = acc
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (3, 2), (5, 2), (37, 2)])
    def test_kron_extension_field_matches_elementwise(self, p, e):
        f = make_field(p, e)
        rng = np.random.default_rng(p)
        a = rng.integers(0, f.q, (3, 4)).astype(np.int64)
        b = rng.integers(0, f.q, (5, 2)).astype(np.int64)
        want = np.zeros((15, 8), dtype=np.int64)
        for i, k in np.ndindex(a.shape):
            for j, l in np.ndindex(b.shape):
                want[5 * i + j, 2 * k + l] = f.mul(a[i, k], b[j, l])
        assert np.array_equal(f.kron(a, b), want)

    def test_power_matches_python_pow(self):
        m = 1009
        for x in (2, 5, 1008):
            for n in range(1, 201):
                assert _power(lambda a, b: a * b % m, x, n) == pow(x, n, m)

    def test_ordered_codes_prime_field(self):
        assert list(make_field(5, 1).ordered_codes()) == [0, 1, 2, 3, 4]

    def test_ordered_codes_sorts_by_serialized_coeffs(self):
        f = make_field(3, 2)
        order = [tuple(f.serialize_code(int(c))) for c in f.ordered_codes()]
        assert order == sorted(order)


# (p, e) with q = p^e <= TABLE_CAP, whose e >= 2 arithmetic is table-driven
TABLED = [(2, 2), (2, 3), (2, 5), (2, 10), (3, 2), (3, 3), (3, 6), (5, 2), (5, 3), (7, 2), (7, 3), (31, 2)]


def _poly(field, code):
    return field._code_to_poly(int(code))


class TestTableArithmetic:
    """Table lookups for e >= 2 against the polynomial definitions."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(pe=st.sampled_from(TABLED), data=st.data())
    def test_tables_match_polynomial_arithmetic(self, pe, data):
        p, e = pe
        f = make_field(p, e)
        assert f.q <= TABLE_CAP and f._arith_tables() is not None
        codes = st.integers(0, f.q - 1)
        a, b = data.draw(codes), data.draw(codes)
        pa, pb = _poly(f, a), _poly(f, b)
        prod = _poly_mod(_poly_mul(pa, pb, p), f.modulus, p)
        assert int(f.mul(a, b)) == f._poly_to_code(prod)
        width = max(len(pa), len(pb))
        pa, pb = pa + (0,) * (width - len(pa)), pb + (0,) * (width - len(pb))
        assert int(f.add(a, b)) == f._poly_to_code([(x + y) % p for x, y in zip(pa, pb)])
        assert int(f.neg(a)) == f._poly_to_code([(-x) % p for x in pa])
        assert int(f.sub(a, b)) == f._poly_to_code([(x - y) % p for x, y in zip(pa, pb)])

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(pe=st.sampled_from(TABLED), seed=st.integers(0, 2**32 - 1))
    def test_field_laws(self, pe, seed):
        f = make_field(*pe)
        a, b, c = np.random.default_rng(seed).integers(0, f.q, (3, 64))
        zero, one = np.zeros_like(a), np.ones_like(a)
        assert np.array_equal(f.add(a, b), f.add(b, a))
        assert np.array_equal(f.mul(a, b), f.mul(b, a))
        assert np.array_equal(f.add(f.add(a, b), c), f.add(a, f.add(b, c)))
        assert np.array_equal(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)))
        assert np.array_equal(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)))
        assert np.array_equal(f.add(a, zero), a) and np.array_equal(f.mul(a, one), a)
        assert not np.any(f.add(a, f.neg(a)))
        assert np.array_equal(f.sub(a, b), f.add(a, f.neg(b)))
        nz = a[a != 0]
        assert np.all(f.mul(nz, f.inv(nz)) == 1)

    @pytest.mark.parametrize("p,e", [(37, 2), (11, 3)])
    def test_fields_above_the_cap_agree_with_polynomials(self, p, e):
        f = make_field(p, e)
        assert f.q > TABLE_CAP and f._arith_tables() is None
        rng = np.random.default_rng(p)
        a, b = rng.integers(0, f.q, (2, 50))
        for x, y, s, m in zip(a, b, f.add(a, b), f.mul(a, b)):
            prod = _poly_mod(_poly_mul(_poly(f, x), _poly(f, y), p), f.modulus, p)
            assert int(m) == f._poly_to_code(prod)
            px, py = _poly(f, x) + (0,) * e, _poly(f, y) + (0,) * e
            assert int(s) == f._poly_to_code([(u + v) % p for u, v in zip(px[:e], py[:e])])
        assert not np.any(f.add(a, f.neg(a)))
        assert np.array_equal(f.sub(a, b), f.add(a, f.neg(b)))

    def test_stacked_matmul_multiplies_slice_by_slice(self):
        for f in (make_field(5, 1), make_field(3, 2)):
            rng = np.random.default_rng(2)
            a = rng.integers(0, f.q, (4, 3, 5))
            b = rng.integers(0, f.q, (4, 5, 2))
            got = f.matmul(a, b)
            assert all(np.array_equal(got[i], f.matmul(a[i], b[i])) for i in range(4))

    @pytest.mark.parametrize("p", [2, 5, NEAR_BOUND[0]])
    def test_prime_field_matmul_reduces_its_factors(self, p):
        f = make_field(p, 1)
        rng = np.random.default_rng(p)
        a, b = rng.integers(0, p, (2, 6, 6))
        want = _python_int_matmul(f, a, b)
        assert np.array_equal(f.matmul(a - 3 * p, b), want)
        assert np.array_equal(f.matmul(a, b + p), want)
        assert np.array_equal(f.matmul(a, -b), _python_int_matmul(f, a, (-b) % p))


def J(n):
    """Single nilpotent Jordan block of size n (ones on the subdiagonal)."""
    return np.eye(n, k=-1, dtype=np.int64)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: rank(f, np.zeros(3, dtype=np.int64)),
        lambda f: nullspace(f, np.zeros((2, 2, 2), dtype=np.int64)),
        lambda f: solve_linear(f, np.zeros(3, dtype=np.int64), np.zeros((3, 1), dtype=np.int64)),
        lambda f: solve_linear(f, np.zeros((3, 2), dtype=np.int64), np.zeros(3, dtype=np.int64)),
    ],
    ids=["rank", "nullspace", "solve-a", "solve-b"],
)
def test_array_entry_points_refuse_non_matrices(call):
    with pytest.raises(ValueError, match="matrix array must be 2-dimensional"):
        call(make_field(3, 1))


def test_coo_from_dense_keeps_the_nonzeros_in_row_order():
    f = make_field(5, 1)
    a = np.array([[0, 3, 0], [1, 0, 4], [0, 0, 0]])
    m = CooMatrix.from_dense(f, a)
    assert m.field is f and m.rows == 3
    rows, cols, codes = m.triples
    assert rows.tolist() == [0, 1, 1] and cols.tolist() == [1, 0, 2] and codes.tolist() == [3, 1, 4]
    for bad in (np.zeros(4, dtype=np.int64), np.zeros((2, 3), dtype=np.int64)):
        with pytest.raises(ValueError, match="matrix must be square"):
            CooMatrix.from_dense(f, bad)


class TestRank:
    def test_zero_matrix(self):
        f = make_field(5, 1)
        assert rank(f, np.zeros((3, 3), dtype=np.int64)) == 0

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_identity(self, n):
        f = make_field(3, 1)
        assert rank(f, np.eye(n, dtype=np.int64)) == n

    def test_jordan_block_rank(self):
        f = make_field(5, 1)
        assert rank(f, J(5)) == 4

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_naive_reference(self, p):
        f = make_field(p, 1)
        rng = np.random.default_rng(p)
        for _ in range(12):
            m = rng.integers(0, p, (rng.integers(1, 9), rng.integers(1, 9)))
            assert rank(f, m) == naive_rank_mod_p(m.tolist(), p)

    def test_rank_plus_nullity(self):
        f = make_field(3, 2)
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.integers(0, f.q, (6, 8))
            assert rank(f, m) + nullspace(f, m).shape[1] == m.shape[1]

    def test_rank_of_product_bound(self):
        f = make_field(5, 1)
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.integers(0, 5, (5, 4))
            b = rng.integers(0, 5, (4, 6))
            assert rank(f, f.matmul(a, b)) <= min(rank(f, a), rank(f, b))


class TestSolveLinear:
    def test_identity_system(self):
        f = make_field(7, 1)
        b = np.array([[1], [2], [3]])
        res = solve_linear(f, np.eye(3, dtype=np.int64), b)
        assert res.consistent and np.array_equal(res.solution, b) and res.kernel.shape[1] == 0

    def test_zero_system_full_kernel(self):
        f = make_field(3, 1)
        res = solve_linear(f, np.zeros((2, 4), dtype=np.int64), np.zeros((2, 1), dtype=np.int64))
        assert res.consistent
        assert res.kernel.shape[1] == 4
        assert rank(f, res.kernel) == 4

    def test_jordan_block_misses_top_vector(self):
        # J_3 over GF(3): the image is spanned by e_2, e_3, so e_1 has no preimage
        f = make_field(3, 1)
        e1 = np.array([[1], [0], [0]])
        res = solve_linear(f, J(3), e1)
        assert not res.consistent and res.solution is None
        assert res.kernel.shape[1] == 1

    def test_solution_is_verified(self):
        f = make_field(5, 2)
        rng = np.random.default_rng(11)
        a = rng.integers(0, f.q, (5, 7))
        x = rng.integers(0, f.q, (7, 2))
        b = f.matmul(a, x)
        res = solve_linear(f, a, b)
        assert res.consistent
        assert np.array_equal(f.matmul(a, res.solution), b)
        # kernel columns really solve the homogeneous system
        if res.kernel.shape[1]:
            assert np.all(f.matmul(a, res.kernel) == 0)

    def test_kernel_basis_is_deterministic(self):
        f = make_field(3, 1)
        m = np.array([[1, 2, 0, 1], [0, 0, 1, 1]])
        k1 = nullspace(f, m)
        k2 = nullspace(f, m)
        assert np.array_equal(k1, k2)


def _matrix_of_rank(f, rows, cols, k, rng):
    """A rows x cols matrix over f of rank exactly k: a dense echelon matrix
    with k unit pivots, mixed by an invertible row operation and padded with
    combinations of its rows."""
    piv = np.sort(rng.choice(cols, size=k, replace=False))
    ech = np.zeros((k, cols), dtype=np.int64)
    for i, c in enumerate(piv):
        ech[i, c + 1 :] = rng.integers(0, f.q, cols - c - 1)
        ech[i, c] = 1
    lower = np.tril(rng.integers(0, f.q, (k, k)), -1) + np.eye(k, dtype=np.int64)
    mix = np.vstack([lower, rng.integers(0, f.q, (rows - k, k))])
    return f.matmul(mix, ech)[rng.permutation(rows)]


def _sympy_rref(p, arr):
    """Reduced row echelon form over GF(p) by sympy, as residues and pivots."""
    rows, cols = arr.shape
    dm = DomainMatrix.from_list([[int(x) for x in row] for row in arr], GF(p))
    reduced, piv = dm.rref()
    out = np.array([[int(x) % p for x in row] for row in reduced.to_list()], dtype=np.int64)
    return out.reshape(rows, cols), list(piv)


# primes for the sympy oracle, the last one the largest supported
ORACLE_PRIMES = [2, 3, 5, 7, NEAR_BOUND[0]]


class TestSympyOracle:
    """rank_array, rref_array, solve_linear and nullspace_array against
    sympy's DomainMatrix rref.

    The pivot counts cross the edges of the BACK_SUB_BLOCK-row blocks of
    the triangular solve.  The particular solution sets every free variable
    to zero and the kernel basis is 1 at one free column and 0 at the
    others, so both are read off sympy's reduced form of [a | b].
    """

    @pytest.mark.parametrize("k", [0, 1, BACK_SUB_BLOCK - 1, BACK_SUB_BLOCK, BACK_SUB_BLOCK + 1, 130])
    @settings(max_examples=5)
    @given(
        p=st.sampled_from(ORACLE_PRIMES),
        extra=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        consistent=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_solve_and_nullspace_match_sympy(self, k, p, extra, consistent, seed):
        f = make_field(p, 1)
        rng = np.random.default_rng(seed)
        rows, cols = k + extra[0], k + extra[1] + (k == 0)
        a = _matrix_of_rank(f, rows, cols, k, rng)
        if consistent:
            b = f.matmul(a, rng.integers(0, p, (cols, 2)))
        else:
            b = rng.integers(0, p, (rows, 2))
        reduced, piv = _sympy_rref(p, np.hstack([a, b]))
        a_piv = [c for c in piv if c < cols]
        assert len(a_piv) == k == rank_array(f, a)
        rows_a, piv_a = rref_array(f, a)
        assert piv_a == a_piv and np.array_equal(rows_a, reduced[:k, :cols])
        free = [c for c in range(cols) if c not in a_piv]
        kernel = np.zeros((cols, len(free)), dtype=np.int64)
        kernel[free, np.arange(len(free))] = 1
        kernel[a_piv] = (-reduced[: len(a_piv)][:, free]) % p
        res = solve_linear(f, a, b)
        assert np.array_equal(res.kernel, kernel)
        assert np.array_equal(nullspace_array(f, a), kernel)
        assert res.consistent == (len(piv) == len(a_piv))
        if res.consistent:
            sol = np.zeros((cols, 2), dtype=np.int64)
            sol[a_piv] = reduced[: len(a_piv), cols:]
            assert np.array_equal(res.solution, sol)
        else:
            assert not consistent and res.solution is None

    @pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (4, 3)])
    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_empty_and_zero_shapes(self, p, rows, cols):
        f = make_field(p, 1)
        a = np.zeros((rows, cols), dtype=np.int64)
        assert np.array_equal(nullspace_array(f, a), np.eye(cols, dtype=np.int64))
        b = np.ones((rows, 1), dtype=np.int64)
        res = solve_linear(f, a, b)
        assert np.array_equal(res.kernel, np.eye(cols, dtype=np.int64))
        assert res.consistent == (rows == 0)
        if rows and cols:
            # sympy agrees that [0 | 1] has its one pivot on the right-hand side
            assert _sympy_rref(p, np.hstack([a, b]))[1] == [cols]

    @settings(max_examples=12)
    @given(
        q=st.sampled_from([(2, 2), (3, 2), (2, 3), (5, 2)]),
        k=st.sampled_from([1, BACK_SUB_BLOCK - 1, BACK_SUB_BLOCK, BACK_SUB_BLOCK + 1, 130]),
        extra=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        consistent=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_extension_fields(self, q, k, extra, consistent, seed):
        f = make_field(*q)
        rng = np.random.default_rng(seed)
        rows, cols = k + extra[0], k + extra[1]
        a = _matrix_of_rank(f, rows, cols, k, rng)
        if consistent:
            b = f.matmul(a, rng.integers(0, f.q, (cols, 2)))
        else:
            b = rng.integers(0, f.q, (rows, 2))
        _, piv = rref_array(f, a)
        assert len(piv) == k
        free = [c for c in range(cols) if c not in piv]
        res = solve_linear(f, a, b)
        kernel = res.kernel
        assert np.array_equal(nullspace_array(f, a), kernel)
        assert kernel.shape == (cols, cols - k)
        assert not f.matmul(a, kernel).any()
        assert np.array_equal(kernel[free], np.eye(len(free), dtype=np.int64))
        solvable = len(rref_array(f, np.hstack([a, b]))[1]) == k
        assert res.consistent == solvable
        if solvable:
            assert np.array_equal(f.matmul(a, res.solution), b)
            assert not res.solution[free].any()
        else:
            assert not consistent


class TestSerializeCodes:
    @pytest.mark.parametrize("p,e", [(5, 1), (2, 3), (3, 2), (7, 2)])
    def test_matches_entrywise_serialization(self, p, e):
        f = make_field(p, e)
        codes = np.random.default_rng(p * e).integers(0, f.q, (4, 6))
        assert f.serialize_codes(codes) == [f.serialize_code(int(c)) for c in codes.ravel()]
        assert f.serialize_codes(np.zeros((0, 3), dtype=np.int64)) == []
