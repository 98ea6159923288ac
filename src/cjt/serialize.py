"""JSON round-trips for the public value types, and the one JSON writer.

Field elements serialize as a plain residue for prime fields and as the
list of power-basis coefficients (low degree first) over extensions.
Matrices are row-major entry lists.

A payload builder per value type (``module_payload``, ``hom_payload``,
``cocycle_payload``) leaves each code matrix as the int64 array of
``Field.code_digits``: the flat codes over GF(p), an (N, e) array of
coefficients over GF(p^e).  ``module_to_json``, ``hom_to_json`` and
``cocycle_to_json`` turn the arrays into lists (``_plain``).

``dumps`` writes a payload exactly as ``json.dumps(plain, sort_keys=True,
separators=(",", ":"))`` writes its plain form, and is what the CLI prints.
The C encoder writes everything but the arrays in one call, with a mark
string in each array's place; each array of nonnegative integers is
written as text in one uint8 buffer, without a Python int per entry: the
digit width of every entry from comparisons with powers of ten, the
separators at positions from a cumulative sum, then the digits placed from
the right, one digit position at a time.  When every entry is below 10,
the digits go in with one strided assignment.  Text from a module file is
read back with one numpy conversion per generator when its entries form a
rectangular integer array.
"""

from __future__ import annotations

import json

import numpy as np

from cjt.exactalg import Field, make_field
from cjt.jordan import JordanType
from cjt.modrep import Convention, ModuleHom, ModuleRep
from cjt.polymat import HomPoly, PolyMatrix

__all__ = [
    "dumps",
    "module_payload",
    "module_to_json",
    "module_from_json",
    "jordan_type_to_json",
    "jordan_type_from_json",
    "polymatrix_to_json",
    "polymatrix_from_json",
    "hom_payload",
    "hom_to_json",
    "cocycle_payload",
    "cocycle_to_json",
    "field_for",
]

_COMPACT = {"sort_keys": True, "separators": (",", ":")}
# stands for one array in the encoder's text; a payload string that encodes
# to the same text is caught by counting, and the payload is written plain
_MARK = "\x00array\x00"
_MARK_TEXT = json.dumps(_MARK)
_POWERS = 10 ** np.arange(1, 19, dtype=np.int64)
_COMMA, _OPEN, _CLOSE, _ZERO = b",[]0"


def _plain(obj):
    """A payload with every array turned into (nested) lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def dumps(payload) -> str:
    """``json.dumps(_plain(payload), sort_keys=True, separators=(",", ":"))``,
    byte for byte, with arrays written by ``_array_text``."""
    arrays = []

    def hold(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return _MARK

    text = json.JSONEncoder(default=hold, **_COMPACT).encode(payload)
    if not arrays:
        return text
    pieces = text.split(_MARK_TEXT)
    if len(pieces) != len(arrays) + 1:
        return json.dumps(_plain(payload), **_COMPACT)
    out = [pieces[0]]
    for a, piece in zip(arrays, pieces[1:]):
        out += (_array_text(a), piece)
    return "".join(out)


def _array_text(a: np.ndarray) -> str:
    """The compact JSON text of ``a.tolist()``.  A nonempty 1-D or 2-D array
    of nonnegative integers is written in one uint8 buffer; any other array
    goes through its list."""
    if a.dtype.kind != "i" or a.ndim not in (1, 2) or a.size == 0 or a.min() < 0:
        return json.dumps(a.tolist(), **_COMPACT)
    rows = a.reshape(-1, a.shape[-1])
    flat = rows.ravel().astype(np.int64, copy=False)
    top = int(flat.max())
    if top < 10:
        # each row is "[d,...,d]," in 2e + 2 bytes; a 1-D array is one row
        e = rows.shape[1]
        buf = np.full((rows.shape[0], 2 * e + 2), _COMMA, dtype=np.uint8)
        buf[:, 0], buf[:, 2 * e] = _OPEN, _CLOSE
        buf[:, 1 : 2 * e : 2] = rows + _ZERO
        text = buf.tobytes()[:-1].decode("ascii")
        return text if a.ndim == 1 else "[" + text + "]"
    width = np.ones(flat.size, dtype=np.int64)
    for power in _POWERS[_POWERS <= top]:
        width += flat >= power
    # gap: the bytes after an entry: "," inside a row, "],[" between rows,
    # and "]" per dimension after the last entry
    gap = np.ones(flat.size, dtype=np.int64)
    if a.ndim == 2:
        gap[rows.shape[1] - 1 :: rows.shape[1]] = 3
    gap[-1] = a.ndim
    total = np.cumsum(width + gap)
    end = total - gap + a.ndim  # one past each entry's last digit
    buf = np.full(int(total[-1]) + a.ndim, _COMMA, dtype=np.uint8)
    buf[: a.ndim] = _OPEN
    buf[-a.ndim :] = _CLOSE
    if a.ndim == 2:
        row_end = end[rows.shape[1] - 1 :: rows.shape[1]][:-1]
        buf[row_end], buf[row_end + 2] = _CLOSE, _OPEN
    pos, x = end - 1, flat
    while pos.size:
        high = x // 10
        buf[pos] = x - 10 * high + _ZERO
        more = high > 0
        pos, x = pos[more] - 1, high[more]
    return buf.tobytes().decode("ascii")


def field_for(p: int, e: int, modulus=None) -> Field:
    if modulus is None:
        return make_field(p, e)
    f = Field(p, e, tuple(modulus))
    default = make_field(p, e)
    if f == default:
        return default
    return f


def module_payload(m: ModuleRep) -> dict:
    f = m.field
    return {
        "p": f.p,
        "e": f.e,
        "modulus": list(f.modulus),
        "r": m.r,
        "dim": m.dim,
        "convention": m.convention.value,
        "generators": [f.code_digits(a) for a in m.gens],
    }


def module_to_json(m: ModuleRep) -> dict:
    return _plain(module_payload(m))


def _read_codes(f: Field, flat: list) -> np.ndarray:
    """Element codes of a generator's JSON entries.  Entries that form a
    rectangular integer array are read with one conversion: over GF(p) any
    int mod p, over GF(p^e) codes in [0, q) or rows of at most e
    coefficients.  Anything else goes through ``code_of`` entry by entry,
    which raises on a bad entry."""
    try:
        arr = np.array(flat)
    except (ValueError, OverflowError, TypeError):
        arr = None
    if arr is not None and arr.dtype.kind == "i":
        if arr.ndim == 1 and f.e == 1:
            return arr % f.p
        if arr.ndim == 1 and arr.min(initial=0) >= 0 and arr.max(initial=0) < f.q:
            return arr
        if arr.ndim == 2 and arr.shape[1] <= f.e:
            return (arr % f.p) @ f.p ** np.arange(arr.shape[1], dtype=np.int64)
    return np.array([f.code_of(v) for v in flat], dtype=np.int64)


def module_from_json(data: dict) -> ModuleRep:
    f = field_for(int(data["p"]), int(data.get("e", 1)), data.get("modulus"))
    dim = int(data["dim"])
    conv = Convention(data.get("convention", "primitive"))
    gens = []
    for flat in data["generators"]:
        if len(flat) != dim * dim:
            raise ValueError(f"generator needs {dim * dim} entries, got {len(flat)}")
        gens.append(_read_codes(f, flat).reshape(dim, dim))
    if len(gens) != int(data["r"]):
        raise ValueError("generator count does not match r")
    return ModuleRep(f, gens, conv)


def jordan_type_to_json(t: JordanType) -> dict:
    return {"p": t.p, "counts": list(t.counts)}


def jordan_type_from_json(data: dict) -> JordanType:
    return JordanType(int(data["p"]), tuple(int(c) for c in data["counts"]))


def polymatrix_to_json(m: PolyMatrix) -> dict:
    entries = []
    for row in m.entries:
        for q in row:
            entries.append(
                [{"exps": list(e), "coef": c} for e, c in sorted(q.terms.items())]
            )
    return {
        "p": m.p,
        "nvars": m.nvars,
        "rows": m.rows,
        "cols": m.cols,
        "entries": entries,
    }


def polymatrix_from_json(data: dict) -> PolyMatrix:
    p, nvars = int(data["p"]), int(data["nvars"])
    rows, cols = int(data["rows"]), int(data["cols"])
    flat = data["entries"]
    if len(flat) != rows * cols:
        raise ValueError(f"need {rows * cols} entries, got {len(flat)}")
    grid = []
    for i in range(rows):
        row = []
        for j in range(cols):
            terms = {
                tuple(int(x) for x in t["exps"]): int(t["coef"])
                for t in flat[i * cols + j]
            }
            row.append(HomPoly(p, nvars, terms))
        grid.append(row)
    return PolyMatrix(p, nvars, grid)


def hom_payload(h: ModuleHom) -> dict:
    return {
        "source_dim": h.source.dim,
        "target_dim": h.target.dim,
        "matrix": h.source.field.code_digits(h.matrix),
    }


def hom_to_json(h: ModuleHom) -> dict:
    return _plain(hom_payload(h))


def cocycle_payload(c) -> dict:
    """Cocycle as degree, carrier matrix, source module and tag."""
    return {
        "degree": c.degree,
        "carrier": hom_payload(c.carrier),
        "source": module_payload(c.carrier.source),
        "tag": c.tag,
    }


def cocycle_to_json(c) -> dict:
    return _plain(cocycle_payload(c))
