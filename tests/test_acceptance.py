"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Everything here is exact equality; there are no tolerances.
"""

import numpy as np
import pytest

from cjt.carlson import endotrivial_check, kernel_of_hom_matrix, l_xi
from cjt.constancy import (
    check_constant,
    gamma_locus,
    generic_type,
    is_isomorphic,
    jordan_at,
    level_types,
    pi_support,
    sweep_points,
)
from cjt.exactalg import CooMatrix, make_field
from cjt.jordan import (
    Dominance,
    JordanType,
    dominance_compare,
    from_nilpotent,
    stable,
    tensor_type,
)
from cjt.modrep import (
    Convention,
    ModuleHom,
    ModuleRep,
    build_extension,
    direct_sum,
    factors_through_projective,
    hom,
    hom_space,
    jordan_block_module,
    tensor,
    trivial_module,
)
from cjt.polymat import CommonZeroWitness, HomPoly, PolyMatrix, common_zero_search
from cjt.syzygy import factor_generator, omega_dim_formula, omega_k
from cjt.zoo import ke_mod_i2, random_module, truncated_module, v_module, w_module


def jt(p, blocks):
    return JordanType.from_blocks(p, blocks)


def done(n, message):
    print(f"ACCEPTANCE {n:02d}: PASS - {message}")


def test_criterion_01_tensor_block_oracle():
    # closed tensor formula equals the measured type of the explicit
    # tensor module, under both coproduct conventions
    checked = 0
    for p in (2, 3, 5, 7):
        f = make_field(p, 1)
        for conv in (Convention.PRIMITIVE, Convention.GROUP):
            blocks = {i: jordan_block_module(f, i, conv) for i in range(1, p + 1)}
            for i in range(1, p + 1):
                for j in range(1, p + 1):
                    expected = tensor_type(jt(p, {i: 1}), jt(p, {j: 1}))
                    measured = from_nilpotent(CooMatrix.from_dense(f, tensor(blocks[i], blocks[j]).gens[0]), p)
                    assert measured == expected, (p, conv, i, j)
                    checked += 1
    done(1, f"tensor formula matches explicit modules ({checked} pairs, both conventions)")


def test_criterion_02_cyclic_quotients():
    for p in (3, 5):
        f = make_field(p, 1)
        for r in (2, 3, 4):
            m = ke_mod_i2(f, r)
            want = jt(p, {2: 1, 1: r - 1})
            if r == 2:
                rep = check_constant(m, exact=True)
                assert rep.verdict == "CONSTANT_EXACT", (p, r)
            else:
                rep = check_constant(m, max_e=2)
                assert rep.verdict == "CONSTANT_ON_TESTED", (p, r)
            assert rep.type == want, (p, r)
    done(2, "cyclic quotients have constant type 1[2] + (r-1)[1], r in {2,3,4}, p in {3,5}")


def test_criterion_03_thirteen_dim_dichotomy():
    f5 = make_field(5, 1)
    rep5 = check_constant(w_module(f5), exact=True)
    assert rep5.verdict == "CONSTANT_EXACT"
    assert rep5.type == jt(5, {3: 3, 2: 2})

    f7 = make_field(7, 1)
    rep7 = check_constant(w_module(f7), exact=True)
    assert rep7.verdict == "NOT_CONSTANT"
    assert rep7.type == jt(7, {3: 4, 1: 1})
    wit = {tuple(q.linear): t for q, t in rep7.witnesses}
    assert wit == {
        (1, 0): jt(7, {3: 3, 2: 2}),
        (0, 1): jt(7, {3: 3, 2: 2}),
    }

    for p in (5, 7):
        f = make_field(p, 1)
        rep = check_constant(truncated_module(f, 2, p - 2, p + 1), exact=True)
        assert rep.verdict == "CONSTANT_EXACT", p
        assert rep.type == jt(p, {3: p - 2, 2: 2}), p
    done(3, "13-dim module: constant 3[3]+2[2] at p=5, nonconstant at p=7 with axis witnesses")


def test_criterion_04_shifted_strings():
    for p in (3, 5):
        f = make_field(p, 1)
        for n in range(1, 7):
            rep = check_constant(v_module(f, n), exact=True)
            assert rep.verdict == "CONSTANT_EXACT", (p, n)
            assert rep.type == jt(p, {2: n, 1: 1}), (p, n)
    done(4, "string modules have constant type n[2] + 1[1] for n <= 6, p in {3,5}")


def test_criterion_05_shift_dimensions():
    for p in (2, 3, 5):
        f = make_field(p, 1)
        for r in (2, 3):
            assert omega_k(f, r, 0).dim == 1
            for n in range(1, 7):
                assert omega_k(f, r, n).dim == omega_dim_formula(p, r, n), (p, r, n)
            for n in range(1, 4):
                assert omega_k(f, r, -n).dim == omega_k(f, r, n).dim, (p, r, n)
    done(5, "shift dimensions match the closed formula (r in {2,3}, p in {2,3,5}, n <= 6)")


def test_criterion_06_shift_stable_types():
    for p in (3, 5):
        f = make_field(p, 1)
        for r in (2, 3):
            for n in range(-4, 5):
                m = omega_k(f, r, n)
                want = jt(p, {1: 1}) if n % 2 == 0 else jt(p, {p - 1: 1})
                for q in sweep_points(f, r, 1):
                    assert stable(jordan_at(m, q)) == want, (p, r, n, q.linear)
    done(6, "stable type of shifts is 1[1] (even) / 1[p-1] (odd) at all rational points")


def test_criterion_07_endotriviality():
    f3 = make_field(3, 1)
    for n in range(-3, 4):
        verdict, _ = endotrivial_check(omega_k(f3, 2, n))
        assert verdict, n
    f5 = make_field(5, 1)
    for m in (ke_mod_i2(f5, 2), v_module(f5, 2), w_module(f5)):
        verdict, _ = endotrivial_check(m)
        assert not verdict
    done(7, "endotriviality: true for shifts |n| <= 3, false for the non-endotrivial fixtures")


def test_criterion_08_rank_two_kernel_is_fourth_shift():
    f = make_field(3, 1)
    classes = [factor_generator(f, 2, 0, 2), factor_generator(f, 2, 1, 2)]
    L = l_xi(classes, max_e=2).kernel
    assert L.dim == 19
    res = is_isomorphic(L, omega_k(f, 2, 4), seed=0)
    assert res.isomorphic
    assert not res.inconclusive
    done(8, "two degree-2 classes: kernel has dim 19 and is the fourth shift (seed 0)")


def test_criterion_09_rank_three_kernel():
    f = make_field(3, 1)
    classes = [factor_generator(f, 3, i, 2) for i in range(3)]
    L = l_xi(classes, max_e=1).kernel
    assert L.dim == 164 == 6 * 27 + 2
    want = jt(3, {1: 2})
    for e in (1, 2):
        for q in sweep_points(f, 3, e):
            assert stable(jordan_at(L, q)) == want, (e, q.linear)
    done(9, "three degree-2 classes: dim 164 and stable type 2[1] on both sweep levels")


def test_criterion_10_degree_one_kernel_shape():
    f = make_field(5, 1)
    classes = [factor_generator(f, 2, 0, 1), factor_generator(f, 2, 1, 1)]
    sources = [c.carrier.source for c in classes]
    res = kernel_of_hom_matrix(
        [[c.carrier for c in classes]], sources, [classes[0].carrier.target]
    )
    assert res.report.holds_everywhere
    L = res.kernel
    assert L.dim == 47
    for q in sweep_points(f, 2, 1):
        assert stable(jordan_at(L, q)) == jt(5, {4: 1, 3: 1}), q.linear
    done(10, "degree-1 kernel: dim 47 with stable type 1[4] + 1[3] at all rational points")


def _random_type(rng, p, n):
    counts = [0] * p
    left = n
    while left:
        s = int(rng.integers(1, min(p, left) + 1))
        counts[s - 1] += 1
        left -= s
    return JordanType(p, tuple(counts))


def _raise_once(rng, t):
    """One dominance-raising move: move a box from a smaller block onto a
    weakly larger one; returns None if no move is available."""
    p = t.p
    counts = list(t.counts)
    moves = []
    for i in range(1, p + 1):
        for j in range(i, p):
            need_j = 2 if i == j else 1
            if counts[i - 1] >= 1 and counts[j - 1] >= need_j:
                moves.append((i, j))
    if not moves:
        return None
    i, j = moves[int(rng.integers(0, len(moves)))]
    counts[i - 1] -= 1
    counts[j - 1] -= 1
    if i >= 2:
        counts[i - 2] += 1
    counts[j] += 1
    return JordanType(t.p, tuple(counts))


def test_criterion_11_tensor_dominance_preservation():
    rng = np.random.default_rng(0)
    primes = (3, 5, 7)
    strict_seen = 0
    for trial in range(300):
        p = primes[trial % 3]
        n = int(rng.integers(2, 11))
        b = _random_type(rng, p, n)
        a = b
        for _ in range(int(rng.integers(0, 4))):
            nxt = _raise_once(rng, a)
            if nxt is None:
                break
            a = nxt
        c = _random_type(rng, p, int(rng.integers(1, 9)))
        cmp_ab = dominance_compare(a, b)
        assert cmp_ab in (Dominance.GREATER, Dominance.EQUAL)
        ac, bc = tensor_type(a, c), tensor_type(b, c)
        cmp_t = dominance_compare(ac, bc)
        assert cmp_t in (Dominance.GREATER, Dominance.EQUAL), (a, b, c)
        if cmp_ab == Dominance.GREATER and any(c.counts[i] for i in range(p - 1)):
            assert cmp_t == Dominance.GREATER, (a, b, c)
            strict_seen += 1
    assert strict_seen > 50
    done(11, f"300 seeded triples preserve dominance under tensoring ({strict_seen} strict)")


def _zoo_suite(p):
    f = make_field(p, 1)
    mods = [
        ke_mod_i2(f, 2),
        ke_mod_i2(f, 3),
        ke_mod_i2(f, 4),
        truncated_module(f, 2, 0, 2),
        truncated_module(f, 2, 1, 3),
        truncated_module(f, 3, 1, 3),
        v_module(f, 2),
        v_module(f, 4),
        w_module(f),
        jordan_block_module(f, min(2, p)),
        random_module(f, 2, 6, seed=3),
        random_module(f, 3, 5, seed=4),
    ]
    return f, mods


def test_criterion_12_semicontinuity_over_zoo():
    checked = 0
    for p in (3, 5, 7):
        f, mods = _zoo_suite(p)
        for m in mods:
            gen = generic_type(m)
            for e in (1, 2):
                for q, t in level_types(m, e):
                    assert dominance_compare(gen, t) in (
                        Dominance.GREATER,
                        Dominance.EQUAL,
                    ), (p, m, q.linear)
                    checked += 1
    done(12, f"generic type dominates every rational specialization ({checked} point checks)")


def _half_supported(field):
    p = field.p
    a = np.zeros((p, p), dtype=np.int64)
    b = np.zeros((p, p), dtype=np.int64)
    for i in range(p - 1):
        b[i + 1, i] = 1
    return ModuleRep(field, [a, b])


def _point_set(points):
    return {(q.extension, q.linear) for q in points}


def test_criterion_13_closure_and_locus_identities():
    p = 3
    f = make_field(p, 1)
    constants = {
        "cyclic": ke_mod_i2(f, 2),
        "string": v_module(f, 2),
        "window": truncated_module(f, 2, 1, 3),
        "shift": omega_k(f, 2, 1),
    }
    # every listed module is constant on the tested points, with known type
    types = {}
    for name, m in constants.items():
        rep = check_constant(m, max_e=2)
        assert rep.verdict == "CONSTANT_ON_TESTED", name
        types[name] = rep.type

    # direct summand closure: the sum is constant, and so is each summand,
    # with types adding
    for a in ("cyclic", "string"):
        for b in ("window", "shift"):
            s = direct_sum([constants[a], constants[b]])
            rep = check_constant(s, max_e=2)
            assert rep.verdict == "CONSTANT_ON_TESTED"
            assert rep.type == types[a] + types[b]

    # tensor and hom closure with the predicted type
    pairs = [("cyclic", "string"), ("cyclic", "window"), ("string", "shift")]
    for a, b in pairs:
        prod = tensor(constants[a], constants[b])
        rep = check_constant(prod, max_e=2)
        assert rep.verdict == "CONSTANT_ON_TESTED", (a, b)
        assert rep.type == tensor_type(types[a], types[b]), (a, b)
        h = hom(constants[a], constants[b])
        rep_h = check_constant(h, max_e=2)
        assert rep_h.verdict == "CONSTANT_ON_TESTED", (a, b)
        assert rep_h.type == tensor_type(types[a], types[b]), (a, b)

    # non-maximal locus of a tensor product over an irreducible point space
    half = _half_supported(f)
    gamma_pairs = [
        (half, constants["cyclic"]),
        (half, half),
        (half, constants["string"]),
    ]
    f7 = make_field(7, 1)
    gamma_pairs.append((w_module(f7), ke_mod_i2(f7, 2)))
    for m, n in gamma_pairs:
        for e in (1, 2):
            prod = tensor(m, n)
            left = _point_set(gamma_locus(prod, e).points)
            gm = _point_set(gamma_locus(m, e).points)
            gn = _point_set(gamma_locus(n, e).points)
            sm = _point_set(pi_support(m, e))
            sn = _point_set(pi_support(n, e))
            assert left == (gm | gn) & (sm & sn), (m, n, e)
    done(13, "summand, tensor and hom closure hold; tensor locus identity verified")


def test_criterion_14_minor_zero_search():
    p = 5
    x1, x2, x3 = (HomPoly.variable(p, 3, i) for i in range(3))
    fixed = PolyMatrix(p, 3, [[x1, x2], [x2, x3], [x3, x1]])
    res = common_zero_search(fixed, 2, max_e=8)
    assert isinstance(res, CommonZeroWitness)
    assert res.extension == 1 and res.coords == (1, 1, 1)

    rng = np.random.default_rng(2)
    monos = {1: [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
             2: [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]}
    max_seen = 0
    for trial in range(50):
        degs = [int(rng.integers(1, 3)) for _ in range(2)]
        entries = []
        for i in range(3):
            row = []
            for j in range(2):
                while True:
                    terms = {
                        e: int(rng.integers(0, p)) for e in monos[degs[j]]
                    }
                    terms = {e: c for e, c in terms.items() if c}
                    if terms:
                        break
                row.append(HomPoly(p, 3, terms))
            entries.append(row)
        res = common_zero_search(PolyMatrix(p, 3, entries), 2, max_e=8)
        assert isinstance(res, CommonZeroWitness), trial
        max_seen = max(max_seen, res.extension)
    done(14, f"50 seeded minor systems all have zeros (deepest extension used: {max_seen})")


def test_criterion_15_extension_with_vanishing_class():
    f = make_field(3, 1)
    k = trivial_module(f, 2, 1)
    omega1 = omega_k(f, 2, 1)
    from stable_rank_oracle import restrict_to_point

    candidates = hom_space(omega1, omega1)
    witness = None
    for h in candidates:
        if h.is_zero():
            continue
        ok = True
        for q in sweep_points(f, 2, 1):
            restricted = ModuleHom(
                restrict_to_point(omega1, q), restrict_to_point(omega1, q), h.matrix
            )
            if not factors_through_projective(restricted):
                ok = False
                break
        if ok:
            witness = h
            break
    assert witness is not None, "no nonzero stably-vanishing class found"
    ext = build_extension(witness, k)
    assert ext.middle.dim == omega1.dim + 1
    one_block = jt(3, {1: 1})
    for e in (1, 2):
        for q in sweep_points(f, 2, e):
            assert jordan_at(ext.middle, q) == jordan_at(omega1, q) + one_block, (e, q.linear)
    done(15, "extension with pointwise-vanishing class adds types pointwise on both levels")
