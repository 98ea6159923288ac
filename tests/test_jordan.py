import numpy as np
import pytest

from cjt import jordan
from cjt.exactalg import Matrix, make_field, rank
from cjt.jordan import (
    Dominance,
    JordanType,
    dominance_compare,
    from_nilpotent,
    power_ranks,
    stable,
    tensor_type,
)


def jt(p, blocks):
    return JordanType.from_blocks(p, blocks)


def block_diag_nilpotent(field, sizes):
    n = sum(sizes)
    a = np.zeros((n, n), dtype=np.int64)
    off = 0
    for s in sizes:
        for i in range(s - 1):
            a[off + i + 1, off + i] = 1
        off += s
    return Matrix(field, a)


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
        assert from_nilpotent(Matrix.zeros(f, 4, 4), 5) == jt(5, {1: 4})

    def test_full_block(self):
        f = make_field(5, 1)
        assert from_nilpotent(block_diag_nilpotent(f, [5]), 5) == jt(5, {5: 1})

    def test_mixed_blocks_scrambled_by_conjugation(self):
        f = make_field(7, 1)
        a = block_diag_nilpotent(f, [3, 3, 2, 2, 3])
        rng = np.random.default_rng(5)
        # conjugate by a random invertible matrix; the type is invariant
        while True:
            g = Matrix(f, rng.integers(0, 7, (13, 13)))
            if rank(g) == 13:
                break
        from cjt.exactalg import solve_linear

        ginv = solve_linear(g, Matrix.identity(f, 13)).solution
        conj = g @ a @ ginv
        assert from_nilpotent(conj, 7) == jt(7, {3: 3, 2: 2})

    def test_rejects_non_nilpotent(self):
        f = make_field(3, 1)
        with pytest.raises(ValueError):
            from_nilpotent(Matrix.identity(f, 2), 3)

    def test_rank_consistency_with_counts(self):
        f = make_field(5, 1)
        m = block_diag_nilpotent(f, [4, 2, 1, 5])
        t = from_nilpotent(m, 5)
        power = Matrix.identity(f, 12)
        for j in range(1, 6):
            power = power @ m
            assert rank(power) == t.power_rank(j)

    @pytest.mark.parametrize("sizes", [[3, 1], [5], [2, 2, 1], [1, 1]])
    def test_image_chain_eliminates_only_nonzero_images(self, monkeypatch, sizes):
        # the first zero power ends the chain: one elimination per nonzero power
        f = make_field(5, 1)
        calls = []
        original = jordan._echelonize
        monkeypatch.setattr(jordan, "_echelonize", lambda *a: calls.append(1) or original(*a))
        m = block_diag_nilpotent(f, sizes)
        ranks = power_ranks(m, 5)
        assert ranks == [jt(5, sizes).power_rank(j) for j in range(6)]
        assert len(calls) == max(sizes) - 1
        assert from_nilpotent(m, 5) == jt(5, sizes)

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
