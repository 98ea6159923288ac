import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from cjt import exactalg, jordan
from cjt.constancy import evaluate, sweep_points
from cjt.exactalg import CooMatrix, Field, make_field, rank, solve_linear
from cjt.jordan import (
    Dominance,
    JordanType,
    dominance_compare,
    from_nilpotent,
    power_ranks,
    stable,
    tensor_type,
)
from cjt.syzygy import omega_k


def jt(p, blocks):
    return JordanType.from_blocks(p, blocks)


def block_diag_nilpotent(sizes):
    n = sum(sizes)
    a = np.zeros((n, n), dtype=np.int64)
    off = 0
    for s in sizes:
        for i in range(s - 1):
            a[off + i + 1, off + i] = 1
        off += s
    return a


def rebased(f, a, seed):
    """g a g^(-1) for a seeded random invertible g: the same type, dense."""
    n = len(a)
    rng = np.random.default_rng(seed)
    while True:
        g = rng.integers(0, f.q, (n, n))
        if rank(f, g) == n:
            ginv = solve_linear(f, g, np.eye(n, dtype=np.int64)).solution
            return f.matmul(f.matmul(g, a), ginv)


def nilpotent_type(f, a, p):
    """from_nilpotent of a dense matrix of codes."""
    return from_nilpotent(CooMatrix.from_dense(f, a), p)


def join_size(a):
    """Pairs that the COO product A @ A joins: every nonzero (i, k) of A
    meets the nonzeros of row k."""
    return int(np.count_nonzero(a, axis=0) @ np.count_nonzero(a, axis=1))


def count_rank_steps(monkeypatch):
    """Count power_ranks' rank steps by route: a ``_sparse_rank`` call on the
    sparse route, an ``_echelonize`` call on the dense image chain."""
    steps = {"sparse": 0, "dense": 0}

    def counted(route, fn):
        def step(*args):
            steps[route] += 1
            return fn(*args)

        return step

    monkeypatch.setattr(jordan, "_sparse_rank", counted("sparse", jordan._sparse_rank))
    monkeypatch.setattr(jordan, "_echelonize", counted("dense", jordan._echelonize))
    return steps


def parts_desc(t):
    out = []
    for size in range(t.p, 0, -1):
        out.extend([size] * t.count(size))
    return out


def dominates_by_partial_sums(t1, t2):
    """Reference dominance: prefix sums of the descending part lists."""
    a, b = parts_desc(t1), parts_desc(t2)
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    ca = cb = 0
    for x, y in zip(a, b):
        ca, cb = ca + x, cb + y
        if ca < cb:
            return False
    return True


class TestFromNilpotent:
    def test_zero_matrix(self):
        f = make_field(5, 1)
        assert nilpotent_type(f, np.zeros((4, 4), dtype=np.int64), 5) == jt(5, {1: 4})

    def test_full_block(self):
        f = make_field(5, 1)
        assert nilpotent_type(f, block_diag_nilpotent([5]), 5) == jt(5, {5: 1})

    def test_mixed_blocks_scrambled_by_conjugation(self):
        f = make_field(7, 1)
        a = block_diag_nilpotent([3, 3, 2, 2, 3])
        rng = np.random.default_rng(5)
        # conjugate by a random invertible matrix; the type is invariant
        while True:
            g = rng.integers(0, 7, (13, 13))
            if rank(f, g) == 13:
                break
        ginv = solve_linear(f, g, np.eye(13, dtype=np.int64)).solution
        conj = f.matmul(f.matmul(g, a), ginv)
        assert nilpotent_type(f, conj, 7) == jt(7, {3: 3, 2: 2})

    def test_rejects_non_nilpotent(self):
        f = make_field(3, 1)
        with pytest.raises(ValueError):
            nilpotent_type(f, np.eye(2, dtype=np.int64), 3)

    def test_rank_consistency_with_counts(self):
        f = make_field(5, 1)
        m = block_diag_nilpotent([4, 2, 1, 5])
        t = nilpotent_type(f, m, 5)
        power = np.eye(12, dtype=np.int64)
        for j in range(1, 6):
            power = f.matmul(power, m)
            assert rank(f, power) == t.power_rank(j)

    @pytest.mark.parametrize("sizes", [[3, 1], [5], [2, 2, 1], [1, 1]])
    def test_image_chain_eliminates_only_nonzero_images(self, monkeypatch, sizes):
        # the first zero power ends either route: one rank step per nonzero
        # power; a block-diagonal input takes the sparse route, its rebased
        # (dense) conjugate the image chain.  Eight copies of each block make
        # the conjugate's product join more than SPARSE_JOIN_PER_ROW pairs
        # per row
        f = make_field(5, 1)
        steps = count_rank_steps(monkeypatch)
        sizes = sizes * 8
        m = block_diag_nilpotent(sizes)
        want = [jt(5, sizes).power_rank(j) for j in range(6)]
        assert power_ranks(CooMatrix.from_dense(f, m), 5) == want
        assert steps == {"sparse": max(sizes) - 1, "dense": 0}
        steps.update(sparse=0, dense=0)
        dense = rebased(f, m, 1)
        assert power_ranks(CooMatrix.from_dense(f, dense), 5) == want
        assert steps == {"sparse": 0, "dense": max(sizes) - 1}
        assert join_size(dense) > exactalg.SPARSE_JOIN_PER_ROW * len(dense) or not dense.any()
        assert nilpotent_type(f, m, 5) == jt(5, sizes)
        assert nilpotent_type(f, dense, 5) == jt(5, sizes)

    def test_from_power_ranks_pads_with_zeros(self):
        t = jt(5, [4, 2, 1, 5])
        full = [t.power_rank(j) for j in range(6)]
        assert JordanType.from_power_ranks(5, full) == t
        assert JordanType.from_power_ranks(5, full[:5]) == t
        assert JordanType.from_power_ranks(3, [5, 2]) == jt(3, [2, 2, 1])
        with pytest.raises(ValueError):
            JordanType.from_power_ranks(3, [3, 2])  # a negative count
        with pytest.raises(AssertionError):
            JordanType.from_power_ranks(2, [3, 2, 1])  # A^2 != 0 loses dimension


def dense_route_ranks(f, a, cap):
    """power_ranks of a dense matrix with every product refused: the image
    chain."""
    with mock.patch.object(exactalg, "SPARSE_JOIN_PER_ROW", -1):
        return power_ranks(CooMatrix.from_dense(f, a), cap)


def hub(n, rows, cols, value=1):
    """Zero but for column 0 on ``rows`` and row 0 on ``cols``: 2n nonzeros at
    most, yet A^2 joins len(rows) len(cols) pairs."""
    a = np.zeros((n, n), dtype=np.int64)
    a[rows, 0] = value
    a[0, cols] = value
    return a


SPARSE_FIELDS = [make_field(2, 1), make_field(3, 1), make_field(3, 2), make_field(94906249, 1)]


@st.composite
def sparse_matrices(draw):
    """(field, matrix, cap) with at most three nonzeros per row but for
    hubs: scrambled nilpotent Jordan blocks, which peel completely; sums of
    two scaled permutation matrices, whose rows and columns hold two
    nonzeros each, so nothing peels; scattered entries with zero rows and
    columns; and hubs, whose squares join n^2 + n - 1 pairs or more, past
    the limit of 16n from n = 16 on."""
    f = draw(st.sampled_from(SPARSE_FIELDS))
    n = draw(st.integers(1, 30))
    cap = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["blocks", "no-peel", "scattered", "hub"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(size):
        return rng.integers(1, f.q, size)

    a = np.zeros((n, n), dtype=np.int64)
    if kind == "blocks":
        sizes = [0]
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, min(cap, n - sum(sizes)) + 1)))
        below = np.setdiff1d(np.arange(1, n), np.cumsum(sizes))
        a[below, below - 1] = values(below.size)
        perm = rng.permutation(n)
        a = a[perm][:, perm]
    elif kind == "no-peel":
        for _ in range(2):
            a[np.arange(n), rng.permutation(n)] = values(n)
    elif kind == "scattered":
        k = int(rng.integers(0, 3 * n + 1))
        a[rng.integers(0, n, k), rng.integers(0, n, k)] = values(k)
    else:
        a = hub(n, np.arange(n), np.arange(n), values(1)[0])
        k = int(rng.integers(0, n // 2 + 1))
        a[rng.integers(0, n, k), rng.integers(0, n, k)] = values(k)
    return f, a, cap


class TestSparseRoute:
    @settings(max_examples=150)
    @given(sparse_matrices())
    def test_sparse_route_matches_the_image_chain(self, drawn):
        # A is ranked on the sparse route exactly when A @ A joins at most
        # SPARSE_JOIN_PER_ROW pairs per row, and on the image chain otherwise
        f, m, cap = drawn
        with (
            mock.patch.object(jordan, "_sparse_rank", wraps=jordan._sparse_rank) as sparse,
            mock.patch.object(jordan, "_echelonize", wraps=jordan._echelonize) as dense,
        ):
            ranks = power_ranks(CooMatrix.from_dense(f, m), cap)
        if not m.any():
            assert not sparse.called and not dense.called
        elif join_size(m) <= exactalg.SPARSE_JOIN_PER_ROW * len(m):
            assert sparse.called
        else:
            assert not sparse.called and dense.called
        want = dense_route_ranks(f, m, cap)
        assert ranks == want
        if want[cap]:
            with pytest.raises(ValueError, match="not nilpotent"):
                nilpotent_type(f, m, cap)
        else:
            assert nilpotent_type(f, m, cap) == JordanType.from_power_ranks(cap, want)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("r", [2, 3])
    def test_heller_shifts_take_the_sparse_route(self, monkeypatch, p, r):
        # every module of criterion 06, at its first and last rational points;
        # at p = 5, r = 3 they include the dim-751 shifts of the benchmark
        f = make_field(p, 1)
        steps = count_rank_steps(monkeypatch)
        points = sweep_points(f, r, 1)
        for n in range(-4, 5):
            shift = omega_k(f, r, n)
            for q in (points[0], points[-1]):
                a = evaluate(shift, q)
                steps.update(sparse=0, dense=0)
                ranks = power_ranks(CooMatrix.from_dense(f, a), p)
                assert steps == {"sparse": sum(1 for x in ranks[1:] if x), "dense": 0}, (n, q.linear)
                assert ranks == dense_route_ranks(f, a, p), (n, q.linear)

    def test_fill_in_falls_back_to_the_image_chain(self, monkeypatch):
        # A^2 of a hub joins n^2 + n - 1 pairs, past the limit of 16n, so A
        # and every power after it are ranked by the image chain, and the
        # join size, read off the nonzero counts, refuses A^2 before any
        # product is formed
        f = make_field(5, 1)
        n = 40
        m = hub(n, np.arange(n), np.arange(1, n), 2)
        results = []
        product = jordan._sparse_product
        monkeypatch.setattr(jordan, "_sparse_product", lambda *a: results.append(product(*a)) or results[-1])
        steps = count_rank_steps(monkeypatch)
        ranks = power_ranks(CooMatrix.from_dense(f, m), 5)
        assert results == []
        assert steps["dense"] == 5 and steps["sparse"] == 0
        assert ranks == dense_route_ranks(f, m, 5)

    def test_join_at_its_limit_holds_no_more_than_a_dense_product(self, monkeypatch):
        # the first hub's A^2 joins 16 * 300 = 4,800 pairs, the limit of 16n,
        # and is made; the second's would join 17 * 300 = 5,100 and is
        # refused before any product.  No join made peaks higher than
        # Field.matmul on n x n factors with entries in GF(p)
        n = 300
        peaks = []
        product = jordan._sparse_product

        def measured(*args):
            tracemalloc.start()
            try:
                out = product(*args)
                peaks.append(tracemalloc.get_traced_memory()[1] if out is not None else None)
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(jordan, "_sparse_product", measured)
        for f in (make_field(5, 1), make_field(3, 2)):
            near, past = (hub(n, np.arange(1, stop), np.arange(1, n), f.p - 1) for stop in (17, 18))
            f.mul(near, near)  # code tables outside the measurement
            tracemalloc.start()
            f.matmul(near, near)
            dense_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            peaks.clear()
            power_ranks(CooMatrix.from_dense(f, near), 2)
            made = len(peaks)
            power_ranks(CooMatrix.from_dense(f, past), 2)
            assert made and len(peaks) == made
            assert max(x for x in peaks if x is not None) <= dense_peak

    def test_peeling_alternates_rows_and_columns(self, monkeypatch):
        # no column holds one nonzero, but rows 0 and 2 do: the row round
        # peels everything, and no core is left to eliminate
        f = make_field(3, 1)
        cores = []
        monkeypatch.setattr(exactalg, "_echelonize", lambda *a: cores.append(a) or [])
        rows, cols = np.array([0, 1, 1, 2]), np.array([0, 0, 1, 1])
        codes = np.array([1, 2, 1, 2])
        assert exactalg._sparse_rank(f, rows, cols, codes) == 2
        assert exactalg._sparse_rank(f, cols, rows, codes) == 2
        assert cores == []

    def test_non_nilpotent_input_is_ranked_sparse_to_the_last_power(self, monkeypatch):
        f = make_field(5, 1)
        steps = count_rank_steps(monkeypatch)
        m = np.roll(np.eye(6, dtype=np.int64), 1, axis=1) * 3
        assert power_ranks(CooMatrix.from_dense(f, m), 5) == [6] * 6
        assert steps == {"sparse": 5, "dense": 0}
        with pytest.raises(ValueError, match="not nilpotent"):
            nilpotent_type(f, m, 5)

    def test_large_extension_fields_build_no_log_tables(self):
        # GF(2^11) is above TABLE_CAP: a Jordan block keeps to Field.matmul
        f = Field(2, 11, make_field(2, 11).modulus)
        m = CooMatrix.from_dense(f, block_diag_nilpotent([2, 1]))
        assert power_ranks(m, 2) == [3, 1, 0]
        assert f._exp is None and f._log is None


def core_matrix(f, n, kind, rng):
    """An n x n matrix over f whose peeled core has more than
    BATCH_DIM_CUTOFF rows and columns (for n >= 40): sums of 2-4 scaled
    permutation matrices, which hardly peel; scattered entries, about three
    per row, confined to three quarters of the rows and columns so that the
    rest are zero; or a dense matrix with at most n zeros, whose first round
    would join more than SPARSE_JOIN_PER_ROW pairs per row."""

    def values(size):
        return rng.integers(1, f.q, size)

    a = np.zeros((n, n), dtype=np.int64)
    if kind == "permutations":
        for _ in range(int(rng.integers(2, 5))):
            a[np.arange(n), rng.permutation(n)] = values(n)
    elif kind == "scattered":
        k = 3 * n
        live_rows, live_cols = (rng.permutation(n)[: 3 * n // 4] for _ in range(2))
        a[rng.choice(live_rows, k), rng.choice(live_cols, k)] = values(k)
    else:
        a = values((n, n))
        k = int(rng.integers(0, n + 1))
        a[rng.integers(0, n, k), rng.integers(0, n, k)] = 0
    return a


def coo(a):
    """COO triples of a: rows, columns and codes of its nonzeros, in row
    order."""
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


def sparse_rank_rounds(f, a):
    """exactalg._sparse_rank of a, and the result of every Schur-complement
    round it formed (None for one refused by the join budget)."""
    results = []
    product = exactalg._sparse_product
    with mock.patch.object(exactalg, "_sparse_product", lambda *x: results.append(product(*x)) or results[-1]):
        r = exactalg._sparse_rank(f, *coo(a))
    return r, results


class TestSchurRounds:
    @settings(max_examples=60, deadline=None)
    @given(
        f=st.sampled_from(SPARSE_FIELDS),
        n=st.integers(40, 160),
        kind=st.sampled_from(["permutations", "scattered", "dense"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rounds_match_the_dense_rank(self, f, n, kind, seed):
        a = core_matrix(f, n, kind, np.random.default_rng(seed))
        r, rounds = sparse_rank_rounds(f, a)
        assert r == rank(f, a)
        if kind == "permutations":
            assert rounds and rounds[0] is not None
        if kind == "dense":
            assert rounds == [None]

    @pytest.mark.parametrize("p", [2, 3, 94906249])
    @pytest.mark.parametrize("kind", ["permutations", "scattered"])
    def test_rounds_match_sympy(self, p, kind):
        f = make_field(p, 1)
        for seed in range(2):
            a = core_matrix(f, 64, kind, np.random.default_rng([p, seed]))
            want = DomainMatrix.from_list(a.tolist(), GF(p)).rank()
            assert exactalg._sparse_rank(f, *coo(a)) == want

    @pytest.mark.parametrize("singular", [False, True])
    def test_complement_is_peeled_again(self, monkeypatch, singular):
        # scrambled 2 x 2 blocks [[a, b], [c, d]] with a, b, c nonzero: one
        # round pivots on one entry of every block peeling leaves, and the
        # complement holds at most one entry per block (none when the block
        # is singular), so peeling ends it with no second round and no core
        f = make_field(5, 1)
        n = 2 * (exactalg.BATCH_DIM_CUTOFF + 8)
        rng = np.random.default_rng(3)
        a = np.zeros((n, n), dtype=np.int64)
        top, bottom = np.arange(0, n, 2), np.arange(1, n, 2)
        for i, j in ((top, top), (top, bottom), (bottom, top)):
            a[i, j] = rng.integers(1, 5, n // 2)
        a[bottom, bottom] = f.mul(f.mul(a[bottom, top], a[top, bottom]), f.inv(a[top, top]))
        if not singular:
            a[bottom, bottom] = f.add(a[bottom, bottom], rng.integers(1, 5, n // 2))
        perm_rows, perm_cols = rng.permutation(n), rng.permutation(n)
        a = a[perm_rows][:, perm_cols]
        monkeypatch.setattr(exactalg, "_echelonize", lambda *x: pytest.fail("a core was left"))
        r, rounds = sparse_rank_rounds(f, a)
        assert len(rounds) == 1 and r == (n if not singular else n // 2)


class TestDominance:
    def test_equal(self):
        assert dominance_compare(jt(5, {3: 2}), jt(5, {3: 2})) == Dominance.EQUAL

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_two_projectives_beat_split(self, p):
        a = jt(p, {p: 2})
        b = jt(p, {p: 1, 1: p})
        assert dominance_compare(a, b) == Dominance.GREATER
        assert dominance_compare(b, a) == Dominance.LESS

    def test_generic_type_of_thirteen_dim_example(self):
        # 4[3]+1[1] dominates 3[3]+2[2]: same dim, ranks (8,4) vs (8,3)
        a = jt(7, {3: 4, 1: 1})
        b = jt(7, {3: 3, 2: 2})
        assert dominance_compare(a, b) == Dominance.GREATER

    def test_incomparable_pair(self):
        a = jt(5, {3: 1, 1: 3})
        b = jt(5, {2: 3})
        assert dominance_compare(a, b) == Dominance.INCOMPARABLE

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominance_compare(jt(5, {1: 1}), jt(5, {1: 2}))

    def test_cap_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominance_compare(jt(5, {1: 1}), jt(3, {1: 1}))

    def test_agrees_with_partial_sum_reference(self):
        rng = np.random.default_rng(0)
        p = 5
        for _ in range(300):
            n = int(rng.integers(1, 14))
            a = random_type(rng, p, n)
            b = random_type(rng, p, n)
            cmp = dominance_compare(a, b)
            ge, le = dominates_by_partial_sums(a, b), dominates_by_partial_sums(b, a)
            if ge and le:
                assert cmp == Dominance.EQUAL
            elif ge:
                assert cmp == Dominance.GREATER
            elif le:
                assert cmp == Dominance.LESS
            else:
                assert cmp == Dominance.INCOMPARABLE

    def test_partial_order_on_sampled_triples(self):
        rng = np.random.default_rng(1)
        p = 5
        for _ in range(200):
            n = int(rng.integers(2, 12))
            a, b, c = (random_type(rng, p, n) for _ in range(3))
            # antisymmetry
            if dominance_compare(a, b) == Dominance.GREATER:
                assert dominance_compare(b, a) == Dominance.LESS
            # transitivity
            if (
                dominance_compare(a, b) in (Dominance.GREATER, Dominance.EQUAL)
                and dominance_compare(b, c) in (Dominance.GREATER, Dominance.EQUAL)
            ):
                assert dominance_compare(a, c) in (Dominance.GREATER, Dominance.EQUAL)


def random_type(rng, p, n):
    counts = [0] * p
    left = n
    while left:
        s = int(rng.integers(1, min(p, left) + 1))
        counts[s - 1] += 1
        left -= s
    return JordanType(p, tuple(counts))


class TestStable:
    def test_drops_projective_blocks(self):
        assert stable(jt(5, {5: 3, 1: 1})) == jt(5, {1: 1})
        assert stable(jt(7, {7: 2, 1: 1})) == jt(7, {1: 1})

    def test_identity_on_stable_types(self):
        t = jt(5, {1: 4})
        assert stable(t) == t

    def test_idempotent(self):
        t = jt(5, {5: 2, 3: 1})
        assert stable(stable(t)) == stable(t)


class TestTensorType:
    def test_unit(self):
        a = jt(5, {3: 2, 1: 1})
        assert tensor_type(jt(5, {1: 1}), a) == a

    def test_two_by_two_at_p3(self):
        assert tensor_type(jt(3, {2: 1}), jt(3, {2: 1})) == jt(3, {3: 1, 1: 1})

    def test_two_by_two_low_range(self):
        assert tensor_type(jt(5, {2: 1}), jt(5, {2: 1})) == jt(5, {3: 1, 1: 1})

    def test_top_blocks_at_p5(self):
        assert tensor_type(jt(5, {4: 1}), jt(5, {4: 1})) == jt(5, {5: 3, 1: 1})

    def test_cap_mismatch(self):
        with pytest.raises(ValueError):
            tensor_type(jt(5, {1: 1}), jt(3, {1: 1}))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_dimension_multiplies(self, p):
        rng = np.random.default_rng(p)
        for _ in range(20):
            a = random_type(rng, p, int(rng.integers(1, 9)))
            b = random_type(rng, p, int(rng.integers(1, 9)))
            assert tensor_type(a, b).dim == a.dim * b.dim

    def test_commutative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = random_type(rng, 7, int(rng.integers(1, 10)))
            b = random_type(rng, 7, int(rng.integers(1, 10)))
            assert tensor_type(a, b) == tensor_type(b, a)


class TestPretty:
    def test_descending_notation(self):
        assert str(jt(5, {3: 3, 2: 2})) == "3[3] + 2[2]"
        assert str(jt(5, {5: 3, 1: 1})) == "3[5] + 1[1]"
        assert str(JordanType(5, (0, 0, 0, 0, 0))) == "0"
