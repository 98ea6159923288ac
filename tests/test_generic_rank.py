"""Generic rank by certified point evaluation, and the stacked rank kernel.

``polymat.generic_rank`` is checked against fraction-free elimination
(``bareiss_oracle``) on seeded random matrices and on matrices whose rank
drops at every point of a small field; ``exactalg.stack_ranks`` against
per-slice ``rank_array``.
"""

import numpy as np
from bareiss_oracle import bareiss_rank, poly_matmul
from hypothesis import given, settings
from hypothesis import strategies as st

from cjt import polymat
from cjt.constancy import generic_type
from cjt.exactalg import BATCH_DIM_CUTOFF, make_field, rank_array, stack_ranks
from cjt.jordan import tensor_type
from cjt.modrep import tensor
from cjt.polymat import HomPoly, PolyMatrix, generic_rank, projective_points
from cjt.zoo import ke_mod_i2, w_module

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _exponents(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    return [(a,) + rest for a in range(degree + 1) for rest in _exponents(nvars - 1, degree - a)]


def _random_poly(rng, p, nvars, degree, density=0.5):
    terms = {e: int(rng.integers(1, p)) for e in _exponents(nvars, degree) if rng.random() < density}
    return HomPoly(p, nvars, terms)


def _random_matrix(rng, p, nvars, rows, cols, profile, max_degree):
    """Entries of degree row_deg[i] + col_deg[j] ("sum"), row_deg[i]
    ("row"), col_deg[j] ("col"), or independent degrees ("mixed")."""
    row_deg = rng.integers(0, max_degree + 1, rows)
    col_deg = rng.integers(0, max_degree + 1, cols)
    entries = []
    for i in range(rows):
        row = []
        for j in range(cols):
            if profile == "row":
                d = int(row_deg[i])
            elif profile == "col":
                d = int(col_deg[j])
            elif profile == "sum":
                d = min(int(row_deg[i] + col_deg[j]), max_degree)
            else:
                d = int(rng.integers(0, max_degree + 1))
            row.append(_random_poly(rng, p, nvars, d) if rng.random() < 0.8 else HomPoly.zero(p, nvars))
        entries.append(row)
    return PolyMatrix(p, nvars, entries)


def _low_rank(rng, p, nvars, rows, cols, inner, max_degree):
    """Product of a row-uniform rows x inner and a degree-one-per-column
    inner x cols matrix: rank at most inner, entries homogeneous."""
    a = _random_matrix(rng, p, nvars, rows, inner, "row", max_degree - 1)
    b = _random_matrix(rng, p, nvars, inner, cols, "col", 1)
    return poly_matmul(a, b)


@SEEDED
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    nvars=st.integers(1, 3),
    rows=st.integers(0, 5),
    cols=st.integers(0, 5),
    profile=st.sampled_from(["row", "col", "sum", "mixed", "low"]),
    seed=st.integers(0, 10_000),
)
def test_generic_rank_matches_bareiss(p, nvars, rows, cols, profile, seed):
    rng = np.random.default_rng(seed)
    max_degree = 3 if nvars < 3 else 2
    if profile == "low" and rows and cols:
        m = _low_rank(rng, p, nvars, rows, cols, int(rng.integers(1, 4)), max_degree)
    else:
        if rows == 0:
            m = PolyMatrix(p, nvars, [])
        else:
            m = _random_matrix(rng, p, nvars, rows, cols, profile if profile != "low" else "row", max_degree)
    assert generic_rank(m) == bareiss_rank(m)


def test_constant_matrix_without_variables():
    p = 5
    c = [[HomPoly(p, 0, {(): v}) for v in row] for row in ((1, 2, 3), (2, 4, 2))]
    m = PolyMatrix(p, 0, c)
    assert generic_rank(m) == bareiss_rank(m) == 2


def _max_rank_at_rational_points(m, e):
    field = make_field(m.p, e)
    return max(rank_array(field, m.evaluate(field, pt)) for pt in projective_points(field, m.nvars))


def _frobenius_form(p, nvars, q):
    """x1^q x2 - x1 x2^q: vanishes at every point of P^(nvars-1)(GF(q))."""
    e1 = (q, 1) + (0,) * (nvars - 2)
    e2 = (1, q) + (0,) * (nvars - 2)
    return HomPoly(p, nvars, {e1: 1, e2: p - 1})


class TestRankDropsEverywhere:
    def test_frobenius_form_one_by_one(self):
        for p in (2, 3, 5, 7):
            m = PolyMatrix(p, 2, [[_frobenius_form(p, 2, p)]])
            assert _max_rank_at_rational_points(m, 1) == 0
            assert generic_rank(m) == bareiss_rank(m) == 1

    def test_drop_at_every_point_of_a_quadratic_extension(self):
        for p in (2, 3):
            f = _frobenius_form(p, 2, p * p)
            m = PolyMatrix(p, 2, [[f]])
            assert _max_rank_at_rational_points(m, 2) == 0
            assert generic_rank(m) == 1

    def test_three_variables_and_a_full_rank_block(self):
        p = 3
        f = _frobenius_form(p, 3, p)
        x = [HomPoly.variable(p, 3, i) for i in range(3)]
        z = HomPoly.zero(p, 3)
        sq = x[2].mul(x[2])
        # a rank-2 block next to an entry that vanishes at every rational
        # point; the generic rank is 3, every rational rank at most 2
        m = PolyMatrix(p, 3, [[x[0].mul(sq), x[1].mul(sq), z], [x[1].mul(sq), x[0].mul(sq), z], [z, z, f]])
        assert _max_rank_at_rational_points(m, 1) == 2
        assert generic_rank(m) == bareiss_rank(m) == 3

    def test_non_uniform_profile(self):
        # rows and columns mix degrees 1 and p, so the matrix is homogenized;
        # its determinant x^p y^p - x y vanishes at every rational point
        p = 5
        x, y = (HomPoly.variable(p, 2, i) for i in range(2))
        xp, yp = HomPoly(p, 2, {(p, 0): 1}), HomPoly(p, 2, {(0, p): 1})
        m = PolyMatrix(p, 2, [[xp, y], [x, yp]])
        assert _max_rank_at_rational_points(m, 1) == 1
        assert generic_rank(m) == bareiss_rank(m) == 2
        one = HomPoly(p, 2, {(0, 0): 1})
        rank_one = PolyMatrix(p, 2, [[one, x], [yp, yp.mul(x)]])
        assert generic_rank(rank_one) == bareiss_rank(rank_one) == 1

    def test_mixed_minor_vanishing_at_every_normalized_point(self):
        # det = x^2 y - x y = x y (x - 1) vanishes at every normalized point
        # [1 : t] and [0 : 1], over every field; only the homogenized matrix
        # shows rank 2
        for p in (2, 3, 5):
            x, y = (HomPoly.variable(p, 2, i) for i in range(2))
            m = PolyMatrix(p, 2, [[x.mul(x), x], [y, y]])
            assert _max_rank_at_rational_points(m, 2) == 1
            assert generic_rank(m) == bareiss_rank(m) == 2


def _rank_and_levels(m):
    """generic_rank(m) and the extension levels it swept, in order."""
    levels = []
    make_field_before = polymat.make_field

    def recording(p, e):
        levels.append(e)
        return make_field_before(p, e)

    polymat.make_field = recording
    try:
        return generic_rank(m), levels
    finally:
        polymat.make_field = make_field_before


@SEEDED
@given(
    # (p, D, rho, e) with p^e = (rho + 1) D
    case=st.sampled_from([(2, 1, 1, 1), (3, 1, 2, 1), (5, 1, 4, 1), (7, 1, 6, 1), (2, 2, 1, 2), (2, 1, 3, 2), (3, 3, 2, 2)]),
    seed=st.integers(0, 10_000),
)
def test_sweep_stops_where_p_to_the_e_equals_the_minor_degree(case, seed):
    # Serre's bound: a nonzero (rho + 1)-minor of degree (rho + 1) D = q
    # cannot vanish at every point of P^1(GF(q)), so the levels d | e
    # certify rank rho and level e + 1 is never swept
    p, degree, rho, e = case
    rng = np.random.default_rng(seed)
    forms = [[_random_poly(rng, p, 2, degree, density=0.7) for _ in range(rho)] for _ in range(rho + 1)]
    for t in range(rho):
        forms[t] = [HomPoly.zero(p, 2)] * rho
        forms[t][t] = HomPoly(p, 2, {(degree, 0): int(rng.integers(1, p)), (0, degree): int(rng.integers(0, p))})
    # rows t < rho of A are x^D-diagonal, so A [I | c] has rank exactly rho
    a = PolyMatrix(p, 2, forms)
    b = [[HomPoly(p, 2, {(0, 0): int(t == j or (j == rho and rng.integers(0, p)))}) for j in range(rho + 1)]
         for t in range(rho)]
    m = poly_matmul(a, PolyMatrix(p, 2, b))
    rank, levels = _rank_and_levels(m)
    assert rank == bareiss_rank(m) == rho
    assert max(levels) == e and all(e % d == 0 for d in levels)


@SEEDED
@given(
    # e = 3 and p = 37 (GF(37^2) lies above TABLE_CAP) run the update through
    # the digit loops and discrete logs as well as the prime-field and table routes
    e=st.integers(1, 3),
    p=st.sampled_from([2, 3, 5, 7, 37]),
    count=st.integers(0, 12),
    rows=st.sampled_from([0, 1, 2, 5, 9, BATCH_DIM_CUTOFF, BATCH_DIM_CUTOFF + 3]),
    cols=st.sampled_from([0, 1, 3, 8, BATCH_DIM_CUTOFF, BATCH_DIM_CUTOFF + 1]),
    inner=st.integers(0, 6),
    seed=st.integers(0, 10_000),
)
def test_stack_ranks_match_rank_array(e, p, count, rows, cols, inner, seed):
    field = make_field(p, e)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, field.q, (count, rows, inner))
    b = rng.integers(0, field.q, (count, inner, cols))
    stack = field.matmul(a, b) if inner else np.zeros((count, rows, cols), dtype=np.int64)
    # sparsify some slices so that pivots land on varied rows
    stack = np.where(rng.random(stack.shape) < 0.3, 0, stack)
    got = stack_ranks(field, stack)
    assert got.tolist() == [rank_array(field, s) for s in stack]


def test_generic_type_of_tensor_with_ke_above_the_cutoff():
    for p in (5, 7):
        f = make_field(p, 1)
        w, ke = w_module(f), ke_mod_i2(f, 2)
        prod = tensor(w, ke)
        assert prod.dim == 39 > BATCH_DIM_CUTOFF
        assert generic_type(prod) == tensor_type(generic_type(w), generic_type(ke))
