"""JSON round-trips for the public value types.

Field elements serialize as a plain residue for prime fields and as the
list of power-basis coefficients (low degree first) over extensions.
Matrices are row-major entry lists.
"""

from __future__ import annotations

import numpy as np

from cjt.exactalg import Field, make_field
from cjt.jordan import JordanType
from cjt.modrep import Convention, ModuleHom, ModuleRep
from cjt.polymat import HomPoly, PolyMatrix

__all__ = [
    "module_to_json",
    "module_from_json",
    "jordan_type_to_json",
    "jordan_type_from_json",
    "polymatrix_to_json",
    "polymatrix_from_json",
    "hom_to_json",
    "cocycle_to_json",
    "field_for",
]


def field_for(p: int, e: int, modulus=None) -> Field:
    if modulus is None:
        return make_field(p, e)
    f = Field(p, e, tuple(modulus))
    default = make_field(p, e)
    if f == default:
        return default
    return f


def module_to_json(m: ModuleRep) -> dict:
    f = m.field
    return {
        "p": f.p,
        "e": f.e,
        "modulus": list(f.modulus),
        "r": m.r,
        "dim": m.dim,
        "convention": m.convention.value,
        "generators": [f.serialize_codes(a) for a in m.gens],
    }


def module_from_json(data: dict) -> ModuleRep:
    f = field_for(int(data["p"]), int(data.get("e", 1)), data.get("modulus"))
    dim = int(data["dim"])
    conv = Convention(data.get("convention", "primitive"))
    gens = []
    for flat in data["generators"]:
        if len(flat) != dim * dim:
            raise ValueError(f"generator needs {dim * dim} entries, got {len(flat)}")
        codes = np.array([f.code_of(v) for v in flat], dtype=np.int64).reshape(dim, dim)
        gens.append(codes)
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


def hom_to_json(h: ModuleHom) -> dict:
    f = h.source.field
    return {
        "source_dim": h.source.dim,
        "target_dim": h.target.dim,
        "matrix": f.serialize_codes(h.matrix),
    }


def cocycle_to_json(c) -> dict:
    """Cocycle as degree, carrier matrix, source module and tag."""
    return {
        "degree": c.degree,
        "carrier": hom_to_json(c.carrier),
        "source": module_to_json(c.carrier.source),
        "tag": c.tag,
    }
