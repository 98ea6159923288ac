from itertools import combinations, product

import numpy as np
import pytest

from cjt import polymat
from cjt.exactalg import make_field
from cjt.polymat import (
    CommonZeroNotFound,
    CommonZeroWitness,
    HomPoly,
    PolyMatrix,
    bivariate_minor_gcd,
    common_zero_search,
    generic_rank,
    projective_points,
)


def var(p, nvars, i):
    return HomPoly.variable(p, nvars, i)


def brute_minor_gcd_terms(m, k):
    """Oracle: expand every k x k minor by permutation sum, return the set
    of minors as term dicts (no gcd; used to cross-check zero loci)."""
    from itertools import permutations

    minors = []
    for rsel in combinations(range(m.rows), k):
        for csel in combinations(range(m.cols), k):
            acc = {}
            for perm in permutations(range(k)):
                sign = 1
                seen = list(perm)
                # parity via inversion count
                inv = sum(
                    1 for a in range(k) for b in range(a + 1, k) if seen[a] > seen[b]
                )
                sign = -1 if inv % 2 else 1
                term = {(0,) * m.nvars: sign % m.p}
                for i in range(k):
                    q = m.entries[rsel[i]][csel[perm[i]]]
                    new = {}
                    for e1, c1 in term.items():
                        for e2, c2 in q.terms.items():
                            e = tuple(x + y for x, y in zip(e1, e2))
                            new[e] = (new.get(e, 0) + c1 * c2) % m.p
                    term = new
                for e, c in term.items():
                    acc[e] = (acc.get(e, 0) + c) % m.p
            acc = {e: c for e, c in acc.items() if c}
            minors.append(acc)
    return minors


def test_adding_zero_returns_the_other_summand():
    p = 5
    x, z = var(p, 2, 0), HomPoly.zero(p, 2)
    assert z.add(x) is x and x.add(z) is x
    assert z.add(z).is_zero


def test_hompoly_repr_lists_terms_by_descending_exponents():
    x, y = var(3, 2, 0), var(3, 2, 1)
    assert repr(x.mul(x).add(HomPoly(3, 2, {(1, 1): 2}))) == "1*x1^2 + 2*x1*x2"
    assert repr(x.mul(y).mul(y)) == "1*x1*x2^2"
    assert repr(HomPoly.zero(3, 2)) == "0"


def test_hompoly_is_not_hashable():
    # HomPoly defines __eq__ and no __hash__, so Python sets __hash__ = None
    assert HomPoly.__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(var(3, 2, 0))


class TestGenericRank:
    def test_symmetric_pencil_full_rank(self):
        p = 3
        lam, mu = var(p, 2, 0), var(p, 2, 1)
        m = PolyMatrix(p, 2, [[lam, mu], [mu, lam]])
        assert generic_rank(m) == 2

    def test_zero_matrix(self):
        assert generic_rank(PolyMatrix.zeros(5, 2, 3, 3)) == 0

    def test_nonzero_column(self):
        p = 5
        m = PolyMatrix(p, 2, [[var(p, 2, 0)], [var(p, 2, 1)]])
        assert generic_rank(m) == 1

    def test_rank_deficient_product_structure(self):
        p = 3
        lam, mu = var(p, 2, 0), var(p, 2, 1)
        # rank-1 matrix: outer product of (lam, mu) with itself
        m = PolyMatrix(
            p, 2, [[lam.mul(lam), lam.mul(mu)], [lam.mul(mu), mu.mul(mu)]]
        )
        assert generic_rank(m) == 1

    def test_three_variables_dict_path(self):
        p = 5
        x1, x2, x3 = (var(p, 3, i) for i in range(3))
        m = PolyMatrix(p, 3, [[x1, x2], [x2, x3], [x3, x1]])
        assert generic_rank(m) == 2

    def test_matches_max_evaluated_rank(self):
        # the generic rank bounds and is attained by point evaluations
        p = 3
        rng = np.random.default_rng(0)
        for _ in range(10):
            entries = []
            for i in range(3):
                row = []
                for j in range(3):
                    terms = {}
                    for e in [(1, 0), (0, 1)]:
                        c = int(rng.integers(0, p))
                        if c:
                            terms[e] = c
                    row.append(HomPoly(p, 2, terms))
                entries.append(row)
            m = PolyMatrix(p, 2, entries)
            g = generic_rank(m)
            best = 0
            for e in (1, 2, 3):
                field = make_field(p, e)
                for pt in projective_points(field, 2):
                    val = m.evaluate(field, pt)
                    from cjt.exactalg import rank_array

                    rk = rank_array(field, val)
                    assert rk <= g
                    best = max(best, rk)
            assert best == g


class TestBivariateMinorGcd:
    def test_diagonal_product(self):
        p = 5
        lam, mu = var(p, 2, 0), var(p, 2, 1)
        m = PolyMatrix(p, 2, [[lam, HomPoly.zero(p, 2)], [HomPoly.zero(p, 2), mu]])
        g = bivariate_minor_gcd(m, 2)
        assert g.terms == {(1, 1): 1}

    def test_symmetric_pencil_determinant(self):
        p = 3
        lam, mu = var(p, 2, 0), var(p, 2, 1)
        m = PolyMatrix(p, 2, [[lam, mu], [mu, lam]])
        g = bivariate_minor_gcd(m, 2)
        # determinant lam^2 - mu^2, monic in the first variable
        assert g.terms == {(2, 0): 1, (0, 2): p - 1}

    def test_coprime_minors_give_constant(self):
        p = 3
        lam, mu = var(p, 2, 0), var(p, 2, 1)
        sq = lam.mul(lam)
        musq = mu.mul(mu)
        # 2x1 column matrix with 1x1 minors lam^2 and mu^2
        m = PolyMatrix(p, 2, [[sq], [musq]])
        g = bivariate_minor_gcd(m, 1)
        assert g.degree == 0

    def test_wrong_variable_count_rejected(self):
        p = 3
        m = PolyMatrix(p, 3, [[var(p, 3, 0)]])
        with pytest.raises(ValueError):
            bivariate_minor_gcd(m, 1)

    def test_gcd_zero_locus_matches_brute_force(self):
        # degree >= 1 iff the rational sweep finds a common zero of all minors
        p = 3
        rng = np.random.default_rng(4)
        for _ in range(12):
            entries = []
            for i in range(3):
                row = []
                for j in range(2):
                    terms = {}
                    for e in [(1, 0), (0, 1)]:
                        c = int(rng.integers(0, p))
                        if c:
                            terms[e] = c
                    row.append(HomPoly(p, 2, terms))
                entries.append(row)
            m = PolyMatrix(p, 2, entries)
            g = bivariate_minor_gcd(m, 2)
            if g.is_zero:
                continue
            # each irreducible factor of degree d vanishes over GF(p^d);
            # check against a sweep through e <= 2
            minors = brute_minor_gcd_terms(m, 2)
            found = False
            for e in (1, 2):
                field = make_field(p, e)
                for pt in projective_points(field, 2):
                    if all(HomPoly(p, 2, mn).eval(field, pt) == 0 for mn in minors):
                        found = True
                        break
                if found:
                    break
            assert found == (g.degree >= 1)


class TestCommonZeroSearch:
    def test_cyclic_quadric_witness(self):
        p = 5
        x1, x2, x3 = (var(p, 3, i) for i in range(3))
        m = PolyMatrix(p, 3, [[x1, x2], [x2, x3], [x3, x1]])
        res = common_zero_search(m, 2, max_e=4)
        assert isinstance(res, CommonZeroWitness)
        assert res.extension == 1 and res.coords == (1, 1, 1)

    def test_coordinate_degenerate_witness(self):
        p = 3
        z = HomPoly.zero(p, 3)
        m = PolyMatrix(p, 3, [[var(p, 3, 0), z], [z, var(p, 3, 1)], [z, z]])
        res = common_zero_search(m, 2, max_e=2)
        assert isinstance(res, CommonZeroWitness)
        assert res.coords == (0, 0, 1)

    def test_single_square_entry(self):
        p = 2
        sq = var(p, 2, 0).mul(var(p, 2, 0))
        m = PolyMatrix(p, 2, [[sq]])
        res = common_zero_search(m, 1, max_e=1)
        assert isinstance(res, CommonZeroWitness)
        assert res.coords == (0, 1)

    def test_not_found_report(self):
        p = 3
        lam, mu = var(p, 2, 0), var(p, 2, 1)
        # identity-like: minors never vanish simultaneously on P^1
        m = PolyMatrix(p, 2, [[lam, HomPoly.zero(p, 2)], [HomPoly.zero(p, 2), lam]])
        res = common_zero_search(m, 1, max_e=2)
        # the 1x1 minors are {lam, 0, 0, lam}; zero locus of lam is [0:1]
        assert isinstance(res, CommonZeroWitness)
        # a genuinely empty locus: both coordinates as 1x1 minors
        m2 = PolyMatrix(p, 2, [[lam], [mu]])
        res2 = common_zero_search(m2, 1, max_e=2)
        assert isinstance(res2, CommonZeroNotFound)
        assert res2.extensions_tested == [1, 2]

    def test_mixed_degree_profile_rejected(self):
        # minors of mixed degree are not homogeneous: no projective zero locus
        p = 3
        x, y = var(p, 2, 0), var(p, 2, 1)
        m = PolyMatrix(p, 2, [[x, y.mul(y)], [y.mul(y), x]])
        with pytest.raises(ValueError, match="uniform"):
            common_zero_search(m, 2, max_e=1)

    def test_max_e_validation(self):
        p = 3
        m = PolyMatrix(p, 2, [[var(p, 2, 0)]])
        with pytest.raises(ValueError):
            common_zero_search(m, 1, max_e=0)

    def test_irreducible_quadratic_factor_found_at_extension_two(self):
        # gcd of the minors is an irreducible quadratic, so the first zero
        # shows up exactly at extension degree two
        p = 5
        q = HomPoly(p, 2, {(2, 0): 1, (0, 2): 2})  # x1^2 + 2 x2^2
        m = PolyMatrix(p, 2, [[q], [q]])
        g = bivariate_minor_gcd(m, 1)
        assert g.degree == 2
        res = common_zero_search(m, 1, max_e=3)
        assert isinstance(res, CommonZeroWitness)
        assert res.extension == 2

    def test_three_by_three_minors_exhaust_every_level(self, monkeypatch):
        # a constant identity has rank 3 everywhere: minors of size 3 skip
        # the sieve, so every point of both levels is ranked, and none hits
        p = 3
        one, z = HomPoly(p, 2, {(0, 0): 1}), HomPoly.zero(p, 2)
        m = PolyMatrix(p, 2, [[one if i == j else z for j in range(3)] for i in range(3)])
        ranked = []
        stacked = polymat._stacked_ranks

        def counted(m, field, blocks):
            for points, ranks in stacked(m, field, blocks):
                ranked.append(len(points))
                yield points, ranks

        monkeypatch.setattr(polymat, "_stacked_ranks", counted)
        res = common_zero_search(m, 3, max_e=2)
        assert isinstance(res, CommonZeroNotFound)
        assert res.extensions_tested == [1, 2]
        # P^1 has 4 points over GF(3), and the 6 over GF(9) alone make 3
        # Frobenius orbits
        assert sum(ranked) == 4 + 3


class TestProjectivePoints:
    def test_point_count_prime_field(self):
        field = make_field(5, 1)
        pts = list(projective_points(field, 3))
        assert len(pts) == 31  # 25 + 5 + 1
        assert len(set(pts)) == 31

    def test_point_count_extension(self):
        field = make_field(3, 2)
        pts = list(projective_points(field, 2))
        assert len(pts) == 10  # q + 1

    def test_sweep_order_starts_at_last_coordinate(self):
        field = make_field(3, 1)
        pts = list(projective_points(field, 3))
        assert pts[0] == (0, 0, 1)
        assert pts[1] == (0, 1, 0)

    def test_first_nonzero_coordinate_is_one(self):
        field = make_field(2, 2)
        for pt in projective_points(field, 3):
            first = next(c for c in pt if c)
            assert first == 1


class TestSemicontinuityProperty:
    def test_generic_rank_dominates_specializations(self):
        # desk-scale semicontinuity check for pencils of commuting nilpotents
        p = 3
        from cjt.exactalg import rank_array

        rng = np.random.default_rng(8)
        x = np.zeros((4, 4), dtype=np.int64)
        x[1, 0] = x[2, 1] = 1
        y = np.zeros((4, 4), dtype=np.int64)
        y[3, 0] = 1
        entries = [
            [
                HomPoly(
                    p,
                    2,
                    {
                        (1, 0): int(x[i, j]),
                        (0, 1): int(y[i, j]),
                    },
                )
                for j in range(4)
            ]
            for i in range(4)
        ]
        m = PolyMatrix(p, 2, entries)
        g = generic_rank(m)
        for e in (1, 2):
            field = make_field(p, e)
            for pt in projective_points(field, 2):
                assert rank_array(field, m.evaluate(field, pt)) <= g
