"""Command-line front end: JSON in, JSON out, deterministic byte-for-byte.

Exit codes: 0 when the computation ran and every asserted invariant held;
2 when the computation ran but the sought property failed (a nonconstant
verdict, a failed endotriviality test, an exhausted zero search); 1 for
usage or input errors, with a structured error object on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from cjt.carlson import endotrivial_check, l_xi
from cjt.constancy import (
    PiPoint,
    check_constant,
    gamma_locus,
    generic_type,
    jordan_at,
)
from cjt.exactalg import make_field
from cjt.modrep import Convention, tensor, validate
from cjt.polymat import CommonZeroWitness, common_zero_search
from cjt.serialize import (
    cocycle_payload,
    dumps,
    jordan_type_to_json,
    module_from_json,
    module_payload,
    polymatrix_from_json,
)
from cjt.syzygy import factor_generator, omega_k
from cjt.zoo import build_example

__all__ = ["main", "execute"]


class UsageError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}")


def _load_module(path: str):
    data = _load_json(path)
    try:
        m = module_from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad module file {path}: {exc}")
    report = validate(m)
    if not report.ok:
        raise UsageError(f"module violates invariants: {report.failure} at {report.index}")
    return m


def _parse_point(m, text: str, ext: int, tail_json: str | None):
    field = m.field if ext == m.field.e else make_field(m.field.p, ext)
    try:
        values = json.loads(f"[{text}]")
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad point {text!r}: {exc}")
    if len(values) != m.r:
        raise UsageError(f"point needs {m.r} coefficients, got {len(values)}")
    tail = ()
    if tail_json:
        try:
            tail = tuple((t["exps"], t["coef"]) for t in json.loads(tail_json))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise UsageError(f"bad tail {tail_json!r}: {exc}")
    try:
        return PiPoint(field, tuple(values), tail)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad point {text!r}: {exc}")


def _emit(payload: dict, pretty: bool) -> None:
    text = dumps(payload)
    if pretty:
        text = json.dumps(json.loads(text), indent=2, sort_keys=True)
    sys.stdout.write(text + "\n")


def _cmd_jordan(args) -> tuple[dict, int]:
    m = _load_module(args.module)
    q = _parse_point(m, args.point, args.ext, args.tail)
    t = jordan_at(m, q)
    return {"type": str(t), **jordan_type_to_json(t)}, 0


def _cmd_check(args) -> tuple[dict, int]:
    m = _load_module(args.module)
    rep = check_constant(m, max_e=args.max_ext, exact=args.exact_rank2)
    payload = rep.serialize()
    return payload, 0 if rep.verdict != "NOT_CONSTANT" else 2


def _cmd_gamma(args) -> tuple[dict, int]:
    m = _load_module(args.module)
    locus = gamma_locus(m, args.ext)
    payload = {
        "generic": str(locus.generic),
        "generic_counts": list(locus.generic.counts),
        "points": [
            {"point": q.serialize(), "type": str(locus.observed[q])}
            for q in locus.points
        ],
        "support": [q.serialize() for q in locus.support],
    }
    return payload, 0


def _cmd_tensor(args) -> tuple[dict, int]:
    a = _load_module(args.a)
    b = _load_module(args.b)
    try:
        prod = tensor(a, b)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.type_only:
        if a.r == 1:
            t = jordan_at(prod, PiPoint(prod.field, (1,)))
        else:
            t = generic_type(prod)
        return {"type": str(t), **jordan_type_to_json(t)}, 0
    return module_payload(prod), 0


def _cmd_omega(args) -> tuple[dict, int]:
    field = make_field(args.p, 1)
    m = omega_k(field, args.rank, args.n)
    return module_payload(m), 0


def _cmd_carlson(args) -> tuple[dict, int]:
    if args.rank < 1:
        raise UsageError("--rank must be >= 1")
    field = make_field(args.p, 1)
    degrees = [int(d) for d in args.degrees.split(",") if d]
    if not degrees:
        raise UsageError("need at least one degree")
    if any(d not in (1, 2) for d in degrees):
        raise UsageError("factor generators are available in degrees 1 and 2")
    classes = [
        factor_generator(field, args.rank, i % args.rank, d)
        for i, d in enumerate(degrees)
    ]
    result = l_xi(classes, max_e=args.max_ext)
    payload = {
        "module": module_payload(result.kernel),
        "classes": [cocycle_payload(c) for c in classes],
        "hypothesis": {
            "holds_everywhere": result.report.holds_everywhere,
            "points": [
                {"point": q.serialize(), "holds": ok} for q, ok in result.report.points
            ],
        },
    }
    return payload, 0


def _cmd_endotrivial(args) -> tuple[dict, int]:
    m = _load_module(args.module)
    verdict, ev = endotrivial_check(m, max_e=args.max_ext)
    payload = {
        "endotrivial": verdict,
        "evidence": {
            "global": ev.global_verdict,
            "local": ev.local_verdict,
            "endo_free_rank": ev.endo_free_rank,
            "endo_core_dim": ev.endo_core_dim,
            "stable_types": [
                {"point": q.serialize(), "stable": str(t)} for q, t in ev.stable_types
            ],
        },
    }
    return payload, 0 if verdict else 2


def _cmd_ranks_search(args) -> tuple[dict, int]:
    data = _load_json(args.poly)
    try:
        m = polymatrix_from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad polynomial matrix: {exc}")
    res = common_zero_search(m, args.minor, args.max_ext)
    if isinstance(res, CommonZeroWitness):
        payload = {
            "found": True,
            "extension": res.extension,
            "point": res.field.code_digits(res.coords),
        }
        return payload, 0
    return {"found": False, "extensions_tested": res.extensions_tested}, 2


def _cmd_zoo(args) -> tuple[dict, int]:
    field = make_field(args.p, 1)
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad params JSON: {exc}")
    conv = Convention(args.convention)
    try:
        m = build_example(field, args.name, conv, **params)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"cannot build example: {exc}")
    return module_payload(m), 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cjt",
        description="Exact Jordan-type computations for modules over modular group algebras.",
    )
    ap.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jordan", help="Jordan type of a module at a point")
    p.add_argument("--module", required=True)
    p.add_argument("--point", required=True, help="comma-separated coefficients")
    p.add_argument("--ext", type=int, default=1, help="extension degree of the point field")
    p.add_argument("--tail", help='JSON like [{"exps":[1,1],"coef":2}]')
    p.set_defaults(func=_cmd_jordan)

    p = sub.add_parser("check", help="constant Jordan type verdict")
    p.add_argument("--module", required=True)
    p.add_argument("--exact-rank2", action="store_true", dest="exact_rank2")
    p.add_argument("--max-ext", type=int, default=2, dest="max_ext")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gamma", help="non-maximal locus at one extension level")
    p.add_argument("--module", required=True)
    p.add_argument("--ext", type=int, default=1)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("tensor", help="tensor product of two modules")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--type-only", action="store_true", dest="type_only")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("omega", help="Heller shift of the trivial module")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("carlson", help="kernel of a joint coordinate-cocycle map")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--degrees", required=True, help="comma-separated degrees (1 or 2)")
    p.add_argument("--max-ext", type=int, default=1, dest="max_ext")
    p.set_defaults(func=_cmd_carlson)

    p = sub.add_parser("endotrivial", help="endotriviality test")
    p.add_argument("--module", required=True)
    p.add_argument("--max-ext", type=int, default=1, dest="max_ext")
    p.set_defaults(func=_cmd_endotrivial)

    p = sub.add_parser("ranks-search", help="common zero of minors over extensions")
    p.add_argument("--poly", required=True)
    p.add_argument("--minor", type=int, required=True)
    p.add_argument("--max-ext", type=int, default=4, dest="max_ext")
    p.set_defaults(func=_cmd_ranks_search)

    p = sub.add_parser("zoo", help="emit a fixture module")
    p.add_argument("--name", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--params", help='JSON dict, e.g. {"r":2,"m":3,"n":6}')
    p.add_argument("--convention", default="primitive", choices=["primitive", "group"])
    p.set_defaults(func=_cmd_zoo)
    return ap


def execute(argv: list[str]) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    pretty = args.pretty
    try:
        payload, code = args.func(args)
    except (UsageError, ValueError, AssertionError, MemoryError) as exc:
        _emit({"error": str(exc) or type(exc).__name__}, pretty)
        return 1
    _emit(payload, pretty)
    return code


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
