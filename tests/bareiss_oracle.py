"""Fraction-free (Bareiss) elimination over GF(p)[x_1..x_n], as a test oracle.

An independent computation of the rank of a polynomial matrix over the
rational function field: every intermediate entry stays a polynomial
(a dict from exponent vectors to nonzero coefficients), and each step
divides exactly by the previous pivot.
"""

from cjt.polymat import HomPoly, PolyMatrix


def _mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = (out.get(e, 0) + c1 * c2) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def _sub(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = (out.get(e, 0) - c) % p
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def _grlex_key(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


def _div_exact(a: dict, b: dict, p: int) -> dict:
    """Exact multivariate division (graded-lex leading terms)."""
    lead_b = max(b, key=_grlex_key)
    inv_lb = pow(b[lead_b], p - 2, p)
    rem = dict(a)
    quo: dict = {}
    while rem:
        lead_r = max(rem, key=_grlex_key)
        diff = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(d < 0 for d in diff):
            raise ArithmeticError("inexact polynomial division in fraction-free step")
        c = (rem[lead_r] * inv_lb) % p
        quo[diff] = c
        rem = _sub(rem, _mul({diff: c}, b, p), p)
    return quo


def bareiss_rank(m: PolyMatrix) -> int:
    """Rank over GF(p)(x_1..x_n); pivots scan columns left to right, taking
    the first nonzero entry below the current row."""
    p = m.p
    a = [[dict(q.terms) for q in row] for row in m.entries]
    rows, cols = m.rows, m.cols
    prev = None
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv_row = next((i for i in range(r, rows) if a[i][c]), None)
        if piv_row is None:
            continue
        a[r], a[piv_row] = a[piv_row], a[r]
        piv = a[r][c]
        for i in range(r + 1, rows):
            head = a[i][c]
            for j in range(c + 1, cols):
                num = _sub(_mul(piv, a[i][j], p), _mul(head, a[r][j], p), p)
                a[i][j] = num if prev is None or not num else _div_exact(num, prev, p)
            a[i][c] = {}
        prev = piv
        r += 1
    return r


def poly_matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Product of two polynomial matrices, entry by entry with dict
    arithmetic."""
    p = a.p
    entries = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc: dict = {}
            for t in range(a.cols):
                for e, c in _mul(a.entries[i][t].terms, b.entries[t][j].terms, p).items():
                    acc[e] = acc.get(e, 0) + c
            row.append(HomPoly(p, a.nvars, acc))
        entries.append(row)
    return PolyMatrix(p, a.nvars, entries)
