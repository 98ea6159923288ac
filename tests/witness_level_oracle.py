"""Reference witness level of the exact rank-2 path: Frobenius gcds.

For every nonconstant pencil power, with minor gcd x2^b G (G the
homogenization of a monic g0 over GF(p)), the least extension degree that
carries a zero of the form: 1 if b > 0 (the point [1:0]), else the least
degree of an irreducible factor of g0, the least d with
gcd(x^(p^d) - x, g0) != 1.  ``check_constant(exact=True)`` sweeps up to a
cheaper bound and stops at the first level with a second type; the tests
check that this level is the one computed here.
"""

from __future__ import annotations

import numpy as np

from cjt.constancy import _pencil_powers
from cjt.exactalg import _frobenius_minus_x, _poly_gcd
from cjt.modrep import ModuleRep
from cjt.polymat import _chart_divisor


def min_witness_extension(g0: np.ndarray, b: int, p: int) -> int:
    """Smallest extension degree carrying a projective zero of the
    nonconstant binary form x2^b G, G the homogenization of a monic g0 over
    GF(p)."""
    if b:
        return 1
    poly = tuple(int(c) for c in g0)
    for d in range(1, len(poly)):
        if len(_poly_gcd(_frobenius_minus_x(d, poly, p), poly, p)) > 1:
            return d
    raise AssertionError("a nonconstant polynomial has roots in some extension")


def witness_level(m: ModuleRep) -> int | None:
    """Least extension level with a point of nongeneric type of a
    two-generator module over GF(p); None when the type is constant."""
    levels = []
    for power in _pencil_powers(m):
        _, g0, b = _chart_divisor(power)
        if g0.size > 1 or b:
            levels.append(min_witness_extension(g0, b, m.p))
    return min(levels, default=None)
