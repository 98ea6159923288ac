"""Restriction points, generic Jordan type, constancy and isomorphism tests.

A linear restriction point is a nonzero vector of coefficients over some
GF(p^e): the module generators combine into a single nilpotent matrix
whose Jordan type is the local invariant.  Constancy of that invariant is
decided exactly for two generators (via minor gcds of the symbolic pencil
powers) and tested by point sweeps otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import chain, product

import numpy as np

from cjt import exactalg
from cjt.exactalg import CooMatrix, Field, make_field, rank_array
from cjt.jordan import Dominance, JordanType, dominance_compare, from_nilpotent, jordan_types
from cjt.modrep import ModuleHom, ModuleRep, _generator_entries, _MemoCache, _module_memo, _monomial, hom_space
from cjt.polymat import PolyMatrix, _admit_depth, _chart_divisor, _orbit_blocks, generic_rank

__all__ = [
    "PiPoint",
    "CjtReport",
    "GammaLocus",
    "point_field",
    "evaluate",
    "jordan_at",
    "pencil",
    "generic_type",
    "check_constant",
    "gamma_locus",
    "pi_support",
    "sweep_points",
    "level_types",
    "IsoResult",
    "is_isomorphic",
]


@dataclass(frozen=True)
class PiPoint:
    """A restriction point: linear coefficients over an extension field,
    plus an optional higher-order tail of (exponent vector, coefficient)
    terms with total degree >= 2 and each exponent below p.  Coordinates
    and tail coefficients are read by ``Field.code_of``."""

    field: Field
    linear: tuple[int, ...]
    tail: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self):
        f = self.field
        object.__setattr__(self, "linear", tuple(map(f.code_of, self.linear)))
        if not any(self.linear):
            raise ValueError("the linear part of a restriction point must be nonzero")
        tail = []
        for exps, coef in self.tail:
            exps = tuple(int(x) for x in exps)
            if len(exps) != len(self.linear):
                raise ValueError("tail exponent length must match the number of generators")
            if sum(exps) < 2:
                raise ValueError("tail terms must have total degree >= 2")
            if any(x >= f.p or x < 0 for x in exps):
                raise ValueError(f"tail exponents must lie in [0, {f.p})")
            tail.append((exps, f.code_of(coef)))
        object.__setattr__(self, "tail", tuple(tail))

    @property
    def extension(self) -> int:
        return self.field.e

    def serialize(self):
        out = {
            "e": self.field.e,
            "coords": self.field.serialize_codes(self.linear),
        }
        if self.tail:
            out["tail"] = [
                {"exps": list(exps), "coef": self.field.serialize_code(c)}
                for exps, c in self.tail
            ]
        return out

    def __str__(self) -> str:
        inner = ":".join(str(self.field.serialize_code(c)) for c in self.linear)
        return f"[{inner}]" + (f"+tail({len(self.tail)})" if self.tail else "")


def point_field(m: ModuleRep, q: PiPoint) -> Field:
    """The field a point's matrix on m lives in: the larger of the two.
    Raises if the point does not fit m."""
    if len(q.linear) != m.r:
        raise ValueError(f"point has {len(q.linear)} coefficients, module has r={m.r}")
    if q.field.p != m.field.p:
        raise ValueError("characteristic mismatch between module and point")
    if q.field == m.field or m.field.is_prime_field:
        # prime-field entries are constant codes in any extension
        return q.field
    if q.field.is_prime_field:
        # and so are the coordinates of a point over the prime field
        return m.field
    raise ValueError(
        "modules over a proper extension only accept points over the same "
        "field or the prime field"
    )


def evaluate(m: ModuleRep, q: PiPoint) -> np.ndarray:
    """Matrix of the point on the module, as an array of codes: the sum of
    scaled generators plus tail monomials in the commuting generator
    actions.

    The codes are over ``point_field(m, q)``: the point's field,
    except for a point over the prime field on a module over a proper
    extension, whose matrix is over the module's field."""
    f = point_field(m, q)
    out = np.zeros((m.dim, m.dim), dtype=np.int64)
    for c, a in zip(q.linear, m.gens):
        if c:
            out = f.add(out, f.mul(np.int64(c), a))
    for exps, coef in q.tail:
        if coef:
            out = f.add(out, f.mul(np.int64(coef), _monomial(f, m.gens, exps)))
    return out


def jordan_at(m: ModuleRep, q: PiPoint) -> JordanType:
    """Jordan type of the point's matrix on m, the matrix of ``evaluate``,
    built as COO triples and never as an n x n array.

    Each generator's nonzeros, scaled by its coefficient with one
    ``Field.mul``, and each tail monomial's, taken from its dense product,
    are summed by position; ``power_ranks`` ranks the powers of the sum
    sparsely while they stay sparse, as they do on Heller shifts, whose
    generators hold under one nonzero per row.  The generators' nonzeros
    are kept only on modules whose generators are frozen (every
    Heller-tower level) and found anew on any other module, so a write
    into a generator between two calls gives the new type.
    """
    f = point_field(m, q)
    keys, codes = [], []
    for i, c in enumerate(q.linear):
        if c:
            positions, gen = _generator_entries(m, i)
            keys.append(positions)
            codes.append(f.mul(np.int64(c), gen))
    for exps, coef in q.tail:
        if coef:
            mono = _monomial(f, m.gens, exps).ravel()
            positions = np.flatnonzero(mono != 0)
            keys.append(positions)
            codes.append(f.mul(np.int64(coef), mono[positions]))
    return from_nilpotent(CooMatrix.summed(f, m.dim, np.concatenate(keys), np.concatenate(codes)), m.p)


# ---------------------------------------------------------------------------
# point sweeps
# ---------------------------------------------------------------------------

def _admit_sweep(m_field: Field, r: int, max_e: int) -> None:
    """Refuse a sweep of levels 1..max_e in r coordinates before any level
    is built: ``polymat._admit_depth``, and above level 1 a module over the
    prime field."""
    _admit_depth(m_field.p, r, max_e)
    if max_e >= 2 and not m_field.is_prime_field:
        raise ValueError(
            f"a level-{max_e} sweep keeps one point per Frobenius orbit, which stands "
            "for its orbit only on modules over the prime field; this module is "
            f"over GF({m_field.p}^{m_field.e}), so sweep it at level 1 only"
        )


def sweep_points(m_field: Field, r: int, e: int) -> list[PiPoint]:
    """Normalized linear points over GF(p^e) in sweep order.

    Points whose coordinates all lie in a proper subfield are skipped (they
    already appeared at a lower level), and only the first representative
    of each Frobenius orbit is kept; conjugate points have equal Jordan
    types on any module defined over the prime field.  On a module over a
    proper extension they need not, so its sweeps stop at level 1.
    """
    _admit_sweep(m_field, r, e)
    field = make_field(m_field.p, e)
    return [
        PiPoint(field, tuple(coords))
        for block in _orbit_blocks(field, r)
        for coords in block.tolist()
    ]


# The budget of _level_cache, in the bytes its entries weigh (see
# _level_weight).  A session keeps every level it types up to it: the 17
# modules of the zoo-sweep benchmark type 34 levels, 3,116 points, which
# weigh 0.79 MiB (tracemalloc frees 0.65 MiB when they are cleared).  The
# cache holds at most this much, or its newest entry alone if that is
# larger: a level-1 entry of the dim-751 Omega^4 k at p = 5, r = 3 holds 31
# points but 13.5 MB of key, so at most two such levels are kept.
LEVEL_CACHE_BYTES = 32 << 20
# The typed levels of level_types, least recently used first.
_level_cache: _MemoCache[tuple, tuple[tuple[PiPoint, JordanType], ...]] = _MemoCache()


def _level_weight(key: tuple, typed: tuple[tuple[PiPoint, JordanType], ...]) -> int:
    """Bytes a typed level holds in ``_level_cache``: its key's generator
    bytes, 1 KiB for the entry and 232 B per typed point.  tracemalloc
    measured 860-1,050 B per entry and 184-232 B per point (Python 3.11;
    p = 3, 5, 7, r = 2-4, dims 4 and 12, 3 to 1,197 points)."""
    return sum(map(len, key[3])) + 1024 + 232 * len(typed)


def level_types(m: ModuleRep, e: int) -> list[tuple[PiPoint, JordanType]]:
    """Jordan type at every sweep point of extension level e, in sweep order.

    A module of dim at most ``exactalg.BATCH_DIM_CUTOFF`` has each point's
    matrix built by ``evaluate``, over the field it lives in, and typed in
    stacks of at most ``exactalg.STACK_CELLS`` entries by the batched
    kernel ``jordan_types``.  A larger module has each point typed by
    ``jordan_at``, whose matrices stay COO triples.

    The typed level is kept in ``_level_cache``, keyed like a Heller tower
    (field, convention, dim and generator bytes of m) plus e, so the
    sweeps of check_constant, gamma_locus, pi_support and is_isomorphic
    type a module at a level once while the cache holds it: up to
    ``LEVEL_CACHE_BYTES`` by ``_level_weight``, least recently used first
    out.  Each call returns a new list; its points and types are frozen.
    """

    def build():
        points = sweep_points(m.field, m.r, e)
        if m.dim > exactalg.BATCH_DIM_CUTOFF:
            return tuple((q, jordan_at(m, q)) for q in points)
        per_stack = max(1, exactalg.STACK_CELLS // max(1, m.dim * m.dim))
        types: list[JordanType] = []
        for i in range(0, len(points), per_stack):
            chunk = points[i : i + per_stack]
            stack = np.stack([evaluate(m, q) for q in chunk])
            types += jordan_types(point_field(m, chunk[0]), stack, m.p)
        return tuple(zip(points, types))

    return list(_module_memo(_level_cache, m, (e,), build, LEVEL_CACHE_BYTES, _level_weight))


# ---------------------------------------------------------------------------
# generic type from the symbolic pencil
# ---------------------------------------------------------------------------

def pencil(m: ModuleRep) -> PolyMatrix:
    """The symbolic linear combination of generators as a PolyMatrix."""
    if not m.field.is_prime_field:
        raise ValueError("pencils are formed over the prime field")
    return PolyMatrix.from_coefficients(m.p, _unit_exponents(m.r), np.stack(m.gens))


def _unit_exponents(r: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == k) for i in range(r)) for k in range(r)]


def _pencil_powers(m: ModuleRep):
    """The powers P^j of the pencil P for j = 1, 2, ..., p - 1, stopping
    after the first zero power: the later powers vanish too.

    P^j is kept as coefficient matrices C_j[a], one per monomial x^a of
    degree j, and P^j = P^(j-1) P gives C_j[a] = sum_k C_(j-1)[a - e_k] A_k:
    one stacked matmul per generator A_k.
    """
    power = pencil(m)
    exps, stack = _unit_exponents(m.r), power.coef
    for j in range(1, m.p):
        if j > 1:
            index: dict[tuple[int, ...], int] = {}
            targets = [
                [index.setdefault(a[:k] + (a[k] + 1,) + a[k + 1 :], len(index)) for a in exps]
                for k in range(m.r)
            ]
            grown = np.zeros((len(index),) + stack.shape[1:], dtype=np.int64)
            for k, gen in enumerate(m.gens):
                grown[targets[k]] += m.field.matmul(stack, gen)
            exps, stack = list(index), grown % m.p
            power = PolyMatrix.from_coefficients(m.p, exps, stack)
        yield power
        if not stack.any():
            return


def generic_type(m: ModuleRep) -> JordanType:
    """Jordan type at the generic point of the pencil, over the rational
    function field; dominates every rational specialization."""
    return JordanType.from_power_ranks(m.p, [m.dim] + [generic_rank(power) for power in _pencil_powers(m)])


# ---------------------------------------------------------------------------
# the constancy checker
# ---------------------------------------------------------------------------

@dataclass
class CjtReport:
    verdict: str  # CONSTANT_EXACT | CONSTANT_ON_TESTED | NOT_CONSTANT
    type: JordanType
    witnesses: list[tuple[PiPoint, JordanType]]
    method: str  # RANK2_GCD | SWEEP
    extensions: list[int]

    def serialize(self):
        return {
            "verdict": self.verdict,
            "type": str(self.type),
            "counts": list(self.type.counts),
            "p": self.type.p,
            "witnesses": [
                {"point": q.serialize(), "type": str(t)} for q, t in self.witnesses
            ],
            "method": self.method,
            "extensions": self.extensions,
        }


@dataclass
class GammaLocus:
    """Points of one level below the generic type, with their types, and
    the support: the points where the module is not projective."""

    points: list[PiPoint]
    generic: JordanType
    observed: dict[PiPoint, JordanType] = dc_field(default_factory=dict)
    support: list[PiPoint] = dc_field(default_factory=list)


def _dominance_max(types: list[JordanType]) -> JordanType:
    """A dominance-maximal element; ties broken by descending count vectors."""
    best = types[0]
    for t in types[1:]:
        cmp = dominance_compare(t, best)
        if cmp == Dominance.GREATER:
            best = t
        elif cmp == Dominance.INCOMPARABLE:
            if tuple(reversed(t.counts)) > tuple(reversed(best.counts)):
                best = t
    return best


def check_constant(m: ModuleRep, max_e: int = 2, exact: bool = False) -> CjtReport:
    """Decide or test whether the Jordan type is the same at every linear
    restriction point.

    With ``exact`` and two generators over the prime field, the decision is
    over the algebraic closure: the type is constant iff for each power j
    the gcd of the maximal minors of the pencil power is constant.
    Otherwise all normalized points over GF(p^e), e = 1..max_e, are swept;
    a deviation is reported with witnesses after its extension level
    completes.  A max_e whose level cannot be swept is refused up front.
    """
    _admit_sweep(m.field, m.r, max_e)
    if m.r == 1:
        q = PiPoint(m.field, (1,))
        return CjtReport("CONSTANT_EXACT", jordan_at(m, q), [], "SWEEP", [1])
    witness_bound = None
    if exact and m.r == 2 and m.field.is_prime_field and m.dim > 0:
        # one Smith reduction per power gives its rank and its minor gcd
        ranks = []
        for power in _pencil_powers(m):
            rho, g0, b = _chart_divisor(power)
            ranks.append(rho)
            if g0.size > 1 or b:
                # the form x2^b G vanishes at [1:0] if b > 0, else at the
                # roots of g0, which lie over GF(p^deg g0) or a subfield
                bound = 1 if b else g0.size - 1
                witness_bound = bound if witness_bound is None else min(witness_bound, bound)
        if witness_bound is None:
            jt = JordanType.from_power_ranks(m.p, [m.dim] + ranks)
            return CjtReport("CONSTANT_EXACT", jt, [], "RANK2_GCD", [])

    observed: dict[JordanType, PiPoint] = {}
    per_point: list[tuple[PiPoint, JordanType]] = []
    extensions = []
    # a point has a nongeneric type exactly where some power's form vanishes,
    # and a level-e point lies over no smaller field than GF(p^e): the sweep
    # stops at the least level of such a zero, which the bound is at least
    limit = max_e if witness_bound is None else max(max_e, witness_bound)
    for e in range(1, limit + 1):
        extensions.append(e)
        for q, t in level_types(m, e):
            per_point.append((q, t))
            observed.setdefault(t, q)
        if len(observed) > 1:
            break
    types = [t for _, t in per_point]
    method = "SWEEP" if witness_bound is None else "RANK2_GCD"
    if len(observed) == 1:
        if witness_bound is not None:
            raise AssertionError(
                "exact path certified nonconstancy but the sweep found no witness"
            )
        return CjtReport("CONSTANT_ON_TESTED", types[0], [], method, extensions)
    top = _dominance_max(types)
    witnesses = [(q, t) for q, t in per_point if t != top]
    return CjtReport("NOT_CONSTANT", top, witnesses, method, extensions)


def gamma_locus(m: ModuleRep, e: int) -> GammaLocus:
    """Rational points of the given extension whose type is below generic,
    and the support at that level, from one sweep.

    The sweep is ``level_types(m, e)``, so a level that check_constant
    typed before, or pi_support after, is typed once."""
    gen = generic_type(m)
    typed = level_types(m, e)
    points = []
    observed = {}
    for q, t in typed:
        if t != gen:
            cmp = dominance_compare(gen, t)
            if cmp == Dominance.LESS:
                raise AssertionError(
                    "a specialization dominates the generic type; semicontinuity violated"
                )
            points.append(q)
            observed[q] = t
    return GammaLocus(points, gen, observed, _support(typed))


def pi_support(m: ModuleRep, e: int) -> list[PiPoint]:
    """Points of level e where the restricted module is not projective.

    Read from ``level_types(m, e)``: after gamma_locus(m, e) or
    check_constant(m, e) on the same module this types no point again."""
    return _support(level_types(m, e))


def _support(typed: list[tuple[PiPoint, JordanType]]) -> list[PiPoint]:
    """Points whose type has a block smaller than p."""
    return [q for q, t in typed if any(t.counts[:-1])]


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

@dataclass
class IsoResult:
    isomorphic: bool
    inconclusive: bool = False
    witness: ModuleHom | None = None

    def __bool__(self) -> bool:
        return self.isomorphic


def is_isomorphic(m: ModuleRep, n: ModuleRep, seed: int = 0) -> IsoResult:
    """Las Vegas isomorphism test.

    Modules of different categories (field, r or convention) are refused.
    Fast false on dimension mismatch or on Jordan types that differ at some
    point of the level-1 sweep (from ``level_types``, so a module swept
    there before is not typed again); then searches hom_space(m, n) for an
    invertible element: basis elements, seeded random combinations (200
    draws), then exhaustive combinations when the field has at most 9
    elements and the hom space has dimension at most 4.  A miss is reported
    as inconclusive.
    """
    if not m.same_category(n):
        raise ValueError("modules live in different categories")
    if m.dim != n.dim:
        return IsoResult(False)
    if m.dim == 0:
        return IsoResult(True)
    if [t for _, t in level_types(m, 1)] != [t for _, t in level_types(n, 1)]:
        return IsoResult(False)
    f = m.field
    basis = hom_space(m, n)
    for h in basis:
        if rank_array(f, h.matrix) == m.dim:
            return IsoResult(True, witness=h)
    # row j is the j-th basis map, so a combination is one product
    stacked = np.stack([h.matrix for h in basis]).reshape(len(basis), -1)
    rng = np.random.default_rng(seed)
    exhaustive = f.q <= 9 and len(basis) <= 4
    draws = chain(
        (rng.integers(0, f.q, len(basis)) for _ in range(200)),
        product(range(f.q), repeat=len(basis)) if exhaustive else (),
    )
    for coeffs in draws:
        mat = f.matmul(np.array([coeffs], dtype=np.int64), stacked).reshape(n.dim, m.dim)
        if rank_array(f, mat) == m.dim:
            return IsoResult(True, witness=ModuleHom(m, n, mat))
    return IsoResult(False, inconclusive=not exhaustive)
