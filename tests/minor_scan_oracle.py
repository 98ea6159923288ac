"""The gcd of all k x k minors by scanning them, as a test oracle.

An independent computation of determinantal divisors over GF(p)[u]: every
k x k minor is expanded by fraction-free elimination (each step divides
exactly by the previous pivot) and the minors are folded into a running
gcd.  Polynomials are tuples of coefficients, low degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  Every minor is
visited, so the scan suits only small matrices.
"""

from itertools import combinations

from cjt.polymat import HomPoly, PolyMatrix


def _trim(a) -> tuple:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _sub(a, b, p):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim((x - y) % p for x, y in zip(a, b))


def _divmod(a, b, p):
    r = list(a)
    inv = pow(b[-1], p - 2, p)
    quo = [0] * max(0, len(a) - len(b) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = (r[k + len(b) - 1] * inv) % p
        quo[k] = c
        for i, y in enumerate(b):
            r[k + i] = (r[k + i] - c * y) % p
    return _trim(quo), _trim(r)


def _monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return tuple((x * inv) % p for x in a)


def _gcd(a, b, p):
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _det(mat, rows, cols, p):
    k = len(rows)
    sub = [[mat[i][j] for j in cols] for i in rows]
    prev = (1,)
    sign = 1
    for t in range(k):
        piv_row = next((i for i in range(t, k) if sub[i][t]), None)
        if piv_row is None:
            return ()
        if piv_row != t:
            sub[t], sub[piv_row] = sub[piv_row], sub[t]
            sign = -sign
        piv = sub[t][t]
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                num = _sub(_mul(piv, sub[i][j], p), _mul(sub[i][t], sub[t][j], p), p)
                quo, rem = _divmod(num, prev, p)
                if rem:
                    raise ArithmeticError("inexact division in a fraction-free step")
                sub[i][j] = quo
            sub[i][t] = ()
        prev = piv
    det = sub[k - 1][k - 1]
    return det if sign > 0 else tuple((-x) % p for x in det)


def minor_scan_gcd(mat, k: int, p: int) -> tuple:
    """Monic gcd of all k x k minors of a univariate matrix (a grid of
    coefficient sequences, low degree first); () when every minor is
    zero."""
    mat = [[_trim(c % p for c in q) for q in row] for row in mat]
    rows, cols = len(mat), len(mat[0]) if mat else 0
    g = ()
    for rsel in combinations(range(rows), k):
        for csel in combinations(range(cols), k):
            g = _gcd(g, _det(mat, rsel, csel, p), p)
    return g


def chart(m: PolyMatrix, which: int) -> list[list[tuple]]:
    """A two-variable matrix on an affine chart: chart 0 sets x2 = 1 and
    keeps x1 as the variable, chart 1 the other way round."""
    out = []
    for row in m.entries:
        line = []
        for q in row:
            coef = [0] * ((q.degree or 0) + 1)
            for exps, c in q.terms.items():
                coef[exps[which]] = c
            line.append(_trim(coef))
        out.append(line)
    return out


def bivariate_minor_scan(m: PolyMatrix, k: int) -> HomPoly:
    """The homogeneous gcd of the k x k minors from scans of both charts:
    chart 0 gives the gcd with x2 = 1, chart 1 the power of x2 dividing
    it.  Normalized so the leading coefficient in x1 is 1."""
    p = m.p
    g0 = minor_scan_gcd(chart(m, 0), k, p)
    if not g0:
        return HomPoly.zero(p, 2)
    g1 = minor_scan_gcd(chart(m, 1), k, p)
    b = next(i for i, c in enumerate(g1) if c)
    deg = len(g0) - 1
    return HomPoly(p, 2, {(i, deg - i + b): c for i, c in enumerate(g0) if c})
