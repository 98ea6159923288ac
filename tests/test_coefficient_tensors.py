"""PolyMatrix as coefficient tensors: evaluation against per-entry HomPoly
arithmetic, the HomPoly grid and JSON at the edges, exponent checks, and
a guard that the pencil path builds no HomPoly grids."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cjt.constancy import _pencil_powers, check_constant, pencil
from cjt.exactalg import make_field
from cjt.polymat import HomPoly, PolyMatrix
from cjt.serialize import polymatrix_from_json, polymatrix_to_json
from cjt.zoo import random_module, w_module

FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (5, 3), (7, 2)]


def _random_entry(rng, p, nvars, max_degree):
    """A random homogeneous polynomial, zero one time in three."""
    if nvars == 0:
        return HomPoly(p, 0, {(): int(rng.integers(0, p))})
    if rng.random() < 1 / 3:
        return HomPoly.zero(p, nvars)
    degree = int(rng.integers(0, max_degree + 1))
    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        cut = np.sort(rng.integers(0, degree + 1, nvars - 1))
        exps = np.diff(np.concatenate([[0], cut, [degree]]))
        terms[tuple(int(x) for x in exps)] = int(rng.integers(1, p))
    return HomPoly(p, nvars, terms)


def _entrywise(m, field, coords):
    return np.array([[q.eval(field, coords) for q in row] for row in m.entries], dtype=np.int64).reshape(
        m.rows, m.cols
    )


class TestEvaluate:
    @settings(max_examples=150)
    @given(
        pe=st.sampled_from(FIELDS),
        nvars=st.integers(0, 3),
        shape=st.tuples(st.integers(0, 3), st.integers(1, 3)),
        max_degree=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tensor_path_matches_entry_eval(self, pe, nvars, shape, max_degree, seed):
        field = make_field(*pe)
        p = field.p
        rng = np.random.default_rng(seed)
        rows, cols = shape
        grid = [[_random_entry(rng, p, nvars, max_degree) for _ in range(cols)] for _ in range(rows)]
        m = PolyMatrix(p, nvars, grid)
        for _ in range(3):
            coords = [int(c) for c in rng.integers(0, field.q, nvars)]
            got = m.evaluate(field, coords)
            assert got.shape == (m.rows, m.cols)
            assert np.array_equal(got, _entrywise(m, field, coords))

    @settings(max_examples=60)
    @given(
        pe=st.sampled_from(FIELDS),
        nvars=st.integers(1, 3),
        degree=st.integers(0, 3),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_coefficient_stacks_match_entry_eval(self, pe, nvars, degree, shape, seed):
        field = make_field(*pe)
        rng = np.random.default_rng(seed)
        exps = sorted({tuple(int(x) for x in np.diff(np.concatenate([[0], np.sort(c), [degree]])))
                       for c in rng.integers(0, degree + 1, (4, nvars - 1))})
        stack = rng.integers(0, 3 * field.p, (len(exps),) + shape)
        m = PolyMatrix.from_coefficients(field.p, exps, stack)
        coords = [int(c) for c in rng.integers(0, field.q, nvars)]
        assert np.array_equal(m.evaluate(field, coords), _entrywise(m, field, coords))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3)])
    @pytest.mark.parametrize("nvars", [0, 2])
    def test_zero_and_empty_matrices(self, shape, nvars):
        field = make_field(3, 2)
        m = PolyMatrix.zeros(3, nvars, *shape)
        assert (m.rows, m.cols) == shape
        assert m.entries == [[HomPoly.zero(3, nvars)] * shape[1] for _ in range(shape[0])]
        got = m.evaluate(field, [5] * nvars)
        assert got.shape == shape and not got.any()


def _pencil_grid(m):
    units = [tuple(int(i == k) for i in range(m.r)) for k in range(m.r)]
    return [
        [HomPoly(m.p, m.r, {e: int(g[i, j]) for e, g in zip(units, m.gens)}) for j in range(m.dim)]
        for i in range(m.dim)
    ]


@settings(max_examples=40)
@given(p=st.sampled_from([2, 3, 5]), r=st.integers(1, 3), dim=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_pencil_and_hompoly_grid_serialize_alike(p, r, dim, seed):
    m = random_module(make_field(p, 1), r, dim, seed=seed)
    pen = pencil(m)
    built = PolyMatrix(p, r, _pencil_grid(m))
    assert pen.entries == built.entries
    text = json.dumps(polymatrix_to_json(pen))
    assert text == json.dumps(polymatrix_to_json(built))
    back = polymatrix_from_json(json.loads(text))
    assert back.entries == pen.entries
    assert json.dumps(polymatrix_to_json(back)) == text


@pytest.mark.parametrize(
    "exps",
    [
        [(1, 0), (1, 1)],  # degrees 1 and 2
        [(2, -1), (0, 1)],  # a negative exponent at degree 1
    ],
)
def test_from_coefficients_rejects_bad_exponents(exps):
    with pytest.raises(ValueError):
        PolyMatrix.from_coefficients(5, exps, np.ones((2, 2, 2), dtype=np.int64))


def test_pencil_path_builds_hompolys_only_for_minor_gcds(monkeypatch):
    m = w_module(make_field(5, 1))
    calls = {"init": 0}
    init = HomPoly.__init__

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(HomPoly, "__init__", counted_init)
    assert len(list(_pencil_powers(m))) >= 2
    assert calls["init"] == 0
    rep = check_constant(m, exact=True)
    assert rep.verdict == "CONSTANT_EXACT"
    assert calls["init"] == 0
