"""Constructors for the explicit example modules used as fixtures.

Names accepted by build_example:

* TRUNCATED (r, m, n): quotient of radical powers, basis the monomials of
  total degree in [m, n) with every exponent below p.
* KE_MOD_I2 (r): the (r+1)-dimensional cyclic module with one generator
  and an r-dimensional radical.
* W (no params): the 13-dimensional two-generator module with staggered
  shift actions x(v_i) = y(v_{i+1}); needs p >= 3.
* V (n): the (2n+1)-dimensional two-generator module with x(v_i) =
  y(v_{i+1}) and x^2 = xy = y^2 = 0.
* JBLOCK (i): the one-generator indecomposable of dimension i <= p.
* RANDOM (r, dim, seed): commuting nilpotent generators sampled as random
  polynomials in the shift operators of a random monomial staircase.
"""

from __future__ import annotations

import numpy as np

from cjt.exactalg import Field
from cjt.modrep import Convention, ModuleRep, _check_dim, _monomial, jordan_block_module

__all__ = [
    "build_example",
    "truncated_module",
    "ke_mod_i2",
    "w_module",
    "v_module",
    "random_module",
]


def _monomials_of_degrees(r: int, p: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Exponent tuples of length r with entries below p and total degree in
    [lo, hi), by degree, then lexicographic.  Each degree is enumerated
    coordinate by coordinate, and a coordinate takes only the values that
    leave a reachable degree for the rest, so the work follows the output."""

    def of_degree(n: int, k: int) -> list[tuple[int, ...]]:
        if k == 0:
            return [()]
        low = max(0, n - (p - 1) * (k - 1))
        top = min(p - 1, n)
        return [(x,) + rest for x in range(low, top + 1) for rest in of_degree(n - x, k - 1)]

    return [mu for n in range(lo, min(hi, r * (p - 1) + 1)) for mu in of_degree(n, r)]


def _shift_operators(basis: list[tuple[int, ...]], nvars: int) -> list[np.ndarray]:
    """Multiplication by each variable on the span of a list of monomials,
    one matrix per variable: a monomial goes to its product if that is in
    the list, else to zero."""
    index = {mu: i for i, mu in enumerate(basis)}
    dim = len(basis)
    out = []
    for i in range(nvars):
        a = np.zeros((dim, dim), dtype=np.int64)
        for mu, src in index.items():
            nxt = mu[:i] + (mu[i] + 1,) + mu[i + 1 :]
            if nxt in index:
                a[index[nxt], src] = 1
        out.append(a)
    return out


def truncated_module(
    field: Field, r: int, m: int, n: int, convention: Convention = Convention.PRIMITIVE
) -> ModuleRep:
    """Radical-power quotient: monomial basis in degrees [m, n)."""
    if r < 1 or m < 0 or n <= m:
        raise ValueError(f"need r >= 1 and 0 <= m < n, got r={r}, m={m}, n={n}")
    p = field.p
    basis = _monomials_of_degrees(r, p, m, n)
    if not basis:
        raise ValueError(f"no monomials of degree in [{m}, {n}) with exponents below {p}")
    _check_dim(len(basis))
    return ModuleRep(field, _shift_operators(basis, r), convention)


def ke_mod_i2(field: Field, r: int, convention: Convention = Convention.PRIMITIVE) -> ModuleRep:
    """Cyclic module of dimension r+1: generator i sends the cyclic vector
    to the i-th radical basis line, and the radical to zero."""
    if r < 1:
        raise ValueError("need r >= 1")
    gens = []
    for i in range(r):
        a = np.zeros((r + 1, r + 1), dtype=np.int64)
        a[i + 1, 0] = 1
        gens.append(a)
    return ModuleRep(field, gens, convention)


def w_module(field: Field, convention: Convention = Convention.PRIMITIVE) -> ModuleRep:
    """The 13-dimensional two-generator module whose constancy depends on p.

    Basis: v1..v4, x v1..x v4, x^2 v1..x^2 v3, y v1, yx v1, with
    x(v_i) = y(v_{i+1}), y^2 v1 = x^2 v4 = x^3 v_i = 0.
    """
    if field.p < 3:
        raise ValueError("this module needs p >= 3 for nilpotency of order <= p")
    x_map = {0: 4, 1: 5, 2: 6, 3: 7, 4: 8, 5: 9, 6: 10, 11: 12}
    y_map = {0: 11, 1: 4, 2: 5, 3: 6, 4: 12, 5: 8, 6: 9, 7: 10}
    gens = []
    for mapping in (x_map, y_map):
        a = np.zeros((13, 13), dtype=np.int64)
        for src, dst in mapping.items():
            a[dst, src] = 1
        gens.append(a)
    return ModuleRep(field, gens, convention)


def v_module(field: Field, n: int, convention: Convention = Convention.PRIMITIVE) -> ModuleRep:
    """Dimension 2n+1, two generators: x(v_i) = y(v_{i+1}), squares vanish.

    Basis order: v_1..v_n, x v_1..x v_n, y v_1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    dim = 2 * n + 1
    x = np.zeros((dim, dim), dtype=np.int64)
    y = np.zeros((dim, dim), dtype=np.int64)
    for i in range(n):
        x[n + i, i] = 1
    y[2 * n, 0] = 1
    for i in range(1, n):
        y[n + i - 1, i] = 1
    return ModuleRep(field, [x, y], convention)


def _random_staircase(rng: np.random.Generator, p: int, nvars: int, size: int) -> list[tuple[int, ...]]:
    """Random order ideal of ``size`` monomials with exponents below p.

    Needs size <= p^nvars: an order ideal smaller than the whole box always
    has a monomial to add.
    """
    chosen = {(0,) * nvars}
    while len(chosen) < size:
        candidates = []
        for mu in chosen:
            for i in range(nvars):
                nxt = list(mu)
                nxt[i] += 1
                nxt = tuple(nxt)
                if nxt in chosen or nxt[i] >= p:
                    continue
                below = all(
                    tuple(nxt[k] - (1 if k == j else 0) for k in range(nvars)) in chosen
                    for j in range(nvars)
                    if nxt[j] > 0
                )
                if below:
                    candidates.append(nxt)
        candidates = sorted(set(candidates))
        chosen.add(candidates[int(rng.integers(0, len(candidates)))])
    return sorted(chosen, key=lambda mu: (sum(mu), mu))


def random_module(
    field: Field, r: int, dim: int, seed: int, convention: Convention = Convention.PRIMITIVE
) -> ModuleRep:
    """Seeded commuting nilpotent generators.

    Builds the shift operators of a random monomial staircase and takes
    each generator to be a random constant-free polynomial in them; the
    results commute and have p-th power zero by construction.
    """
    if r < 1 or dim < 1:
        raise ValueError("need r >= 1 and dim >= 1")
    _check_dim(dim)
    p = field.p
    rng = np.random.default_rng(seed)
    nvars = 2
    while p**nvars < dim:
        nvars += 1
    shifts = _shift_operators(_random_staircase(rng, p, nvars, dim), nvars)
    # nonconstant monomials in the shifts, low degree first
    monos = [mu for mu in _monomials_of_degrees(nvars, p, 1, 3)]
    gens = []
    for _ in range(r):
        a = np.zeros((dim, dim), dtype=np.int64)
        for mu in monos:
            c = int(rng.integers(0, p))
            if c:
                a = field.add(a, field.mul(np.int64(c), _monomial(field, shifts, mu)))
        gens.append(a)
    return ModuleRep(field, gens, convention)


def build_example(field: Field, name: str, convention: Convention = Convention.PRIMITIVE, **params) -> ModuleRep:
    """Dispatch on fixture name; see the module docstring for parameters."""
    name = name.upper()
    if name == "TRUNCATED":
        return truncated_module(field, params["r"], params["m"], params["n"], convention)
    if name == "KE_MOD_I2":
        return ke_mod_i2(field, params["r"], convention)
    if name == "W":
        return w_module(field, convention)
    if name == "V":
        return v_module(field, params["n"], convention)
    if name == "JBLOCK":
        return jordan_block_module(field, params["i"], convention)
    if name == "RANDOM":
        return random_module(
            field, params["r"], params["dim"], params.get("seed", 0), convention
        )
    raise ValueError(f"unknown example name {name!r}")
