"""Determinantal divisors on coefficient tensors, and matmul-built pencil powers.

``polymat._determinantal_divisor`` (Smith reduction of a (rows, cols,
degree + 1) coefficient tensor over GF(p)[u]) and ``bivariate_minor_gcd``
(chart 0 plus the rank test at [1:0]) are checked against full minor scans
(``minor_scan_oracle``); the coefficient stacks of the pencil powers in
``constancy._pencil_powers`` against dict products of the pencil
(``bareiss_oracle.poly_matmul``).
"""

import numpy as np
from bareiss_oracle import poly_matmul
from hypothesis import given, settings
from hypothesis import strategies as st
from minor_scan_oracle import bivariate_minor_scan, minor_scan_gcd

from cjt.constancy import _pencil_powers, pencil
from cjt.exactalg import make_field
from cjt.polymat import HomPoly, PolyMatrix, _determinantal_divisor, bivariate_minor_gcd
from cjt.zoo import random_module, w_module

SEEDED = settings(max_examples=150)


def _tensor(rng, p, rows, cols, degree, kind):
    """A (rows, cols, degree + 1) coefficient tensor: dense random entries,
    a low-rank product, or a permuted diagonal of random polynomials; some
    rows and columns are then zeroed."""
    if kind == "diagonal":
        t = np.zeros((rows, cols, degree + 1), dtype=np.int64)
        for i in range(min(rows, cols)):
            n = int(rng.integers(1, degree + 2))
            t[i, i, :n] = rng.integers(0, p, n)
        t = t[rng.permutation(rows)][:, rng.permutation(cols)]
    elif kind == "low":
        inner = int(rng.integers(1, max(2, min(rows, cols))))
        a = rng.integers(0, p, (rows, inner, degree))
        b = rng.integers(0, p, (inner, cols, 2))
        t = np.zeros((rows, cols, degree + 1), dtype=np.int64)
        for i in range(rows):
            for j in range(cols):
                for s in range(inner):
                    t[i, j] += np.convolve(a[i, s], b[s, j])
        t %= p
    else:
        t = rng.integers(0, p, (rows, cols, degree + 1))
        t[rng.random((rows, cols)) < 0.3] = 0
    if rng.random() < 0.3:
        t[int(rng.integers(0, rows))] = 0
    if rng.random() < 0.3:
        t[:, int(rng.integers(0, cols))] = 0
    return t


@SEEDED
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    degree=st.integers(1, 3),
    kind=st.sampled_from(["dense", "low", "diagonal"]),
    seed=st.integers(0, 10_000),
)
def test_kernel_matches_minor_scan(p, rows, cols, degree, kind, seed):
    t = _tensor(np.random.default_rng(seed), p, rows, cols, degree, kind)
    grid = t.tolist()
    for k in range(1, min(rows, cols) + 1):
        got = _determinantal_divisor(t, k, p)
        assert tuple(got.tolist()) == minor_scan_gcd(grid, k, p), k


def test_k_below_the_rank_needs_the_invariant_factors():
    # diag(u, u + 1): the 1-minors are coprime although neither diagonal
    # entry is a unit
    p = 5
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0] = [0, 1]
    t[1, 1] = [1, 1]
    assert _determinantal_divisor(t, 1, p).tolist() == [1]
    assert _determinantal_divisor(t, 2, p).tolist() == [0, 1, 1]
    assert _determinantal_divisor(t[:, :1], 2, p).size == 0


def test_input_tensor_is_left_alone():
    t = np.array([[[1, 2], [3, 1]], [[0, 1], [4, 4]]], dtype=np.int64)
    before = t.copy()
    _determinantal_divisor(t, 2, 5)
    assert np.array_equal(t, before)


def _form(rng, p, degree):
    return HomPoly(p, 2, {(a, degree - a): int(rng.integers(0, p)) for a in range(degree + 1)})


@SEEDED
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    profile=st.sampled_from(["row", "col"]),
    zero_at_10=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_bivariate_minor_gcd_matches_two_chart_scan(p, rows, cols, profile, zero_at_10, seed):
    rng = np.random.default_rng(seed)
    degs = rng.integers(0, 3, rows if profile == "row" else cols)
    entries = [[_form(rng, p, int(degs[i if profile == "row" else j])) for j in range(cols)] for i in range(rows)]
    if zero_at_10:
        # x2 times a row (or column): every minor through it vanishes at [1:0]
        x2 = HomPoly.variable(p, 2, 1)
        if profile == "row":
            i = int(rng.integers(0, rows))
            entries[i] = [q.mul(x2) for q in entries[i]]
        else:
            j = int(rng.integers(0, cols))
            for row in entries:
                row[j] = row[j].mul(x2)
    m = PolyMatrix(p, 2, entries)
    for k in range(1, min(rows, cols) + 1):
        assert bivariate_minor_gcd(m, k) == bivariate_minor_scan(m, k), k


def test_power_of_x2_comes_from_chart_one():
    # det = x1 x2^2 (x1 + x2): chart 0 sees x1 (x1 + 1) and misses x2^2
    p = 3
    x1, x2 = HomPoly.variable(p, 2, 0), HomPoly.variable(p, 2, 1)
    m = PolyMatrix(p, 2, [[x1.mul(x2), HomPoly.zero(p, 2)], [HomPoly.zero(p, 2), x2.mul(x1.add(x2))]])
    g = bivariate_minor_gcd(m, 2)
    assert g.terms == {(2, 2): 1, (1, 3): 1}
    assert g == bivariate_minor_scan(m, 2)


@SEEDED
@given(
    p=st.sampled_from([2, 3, 5]),
    r=st.integers(1, 3),
    dim=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)
def test_pencil_powers_match_dict_products(p, r, dim, seed):
    m = random_module(make_field(p, 1), r, dim, seed=seed)
    pen = pencil(m)
    units = [tuple(int(i == k) for i in range(r)) for k in range(r)]
    assert pen.entries == [
        [HomPoly(p, r, {e: int(g[i, j]) for e, g in zip(units, m.gens)}) for j in range(dim)] for i in range(dim)
    ]
    want = pen
    for j, power in enumerate(_pencil_powers(m), start=1):
        if j > 1:
            want = poly_matmul(want, pen)
        assert power.entries == want.entries


def test_pencil_powers_of_the_w_module():
    for p in (5, 7):
        m = w_module(make_field(p, 1))
        pen = pencil(m)
        want = pen
        powers = list(_pencil_powers(m))
        for power in powers[1:]:
            want = poly_matmul(want, pen)
            assert power.entries == want.entries
        assert len(powers) >= 2
