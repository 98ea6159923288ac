"""Seeded job lists, job runners and output oracles for the four workloads.

A workload is a fixed list of jobs made from the seed alone (``make_jobs``);
``setup`` turns the list into fixtures and input files before any timing
starts; ``run_job`` is the timed call into cjt; ``check_job`` compares its
output with the job's ``expect`` entries and with invariants from the
paper, and returns the number of restriction points whose Jordan type the
job computed.

The runners look cjt functions up as module attributes at call time, so
the layer tracer's replacements are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from math import comb
from pathlib import Path

import numpy as np

from cjt import cli, constancy, exactalg, jordan, modrep, polymat, serialize, zoo

# the layer each workload is chosen to stress; the traced run must see calls in it
STRESSED = {
    "shift-types": "exactalg.elim.calls",
    "zoo-sweep": "constancy.points",
    "cli-carlson": "carlson.kernel.calls",
    "pencil-exact": "polymat.generic_rank.calls",
}

DIGESTS_FILE = Path(__file__).resolve().parent / "cli_digests.json"


class OracleError(Exception):
    """A job's output missed its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# closed forms, independent of cjt
# ---------------------------------------------------------------------------

def omega_dim(p: int, r: int, n: int) -> int:
    """Dimension of the n-th Heller shift of the trivial module (n != 0)."""
    n = abs(n)
    acc = sum((-1) ** i * comb(n - 1 - i + r - 1, r - 1) for i in range(n))
    return p**r * acc + (-1) ** n


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def orbit_count(p: int, r: int, e: int) -> int:
    """Sweep points at extension level e: Frobenius orbits of points of
    P^(r-1) whose field of definition is exactly GF(p^e)."""
    def n_points(d):
        return (p ** (d * r) - 1) // (p**d - 1)

    total = sum(_mobius(e // d) * n_points(d) for d in range(1, e + 1) if e % d == 0)
    return total // e


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


# support patterns of the seeded points on each Heller shift; the shifts have
# constant Jordan type, so a fixed pattern keeps the work per pass seed-independent
_SHIFT_SUPPORTS = ((1, 1, 1), (1, 1, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1))


def _shift_jobs(rng: random.Random) -> list[dict]:
    p, r = 5, 3
    blocks = []
    for n in (1, -1, 2, -2, 3, -3, 4, -4):
        block = [{"kind": "omega", "n": n, "expect": {"dim": omega_dim(p, r, n)}}]
        stable = "1[1]" if n % 2 == 0 else f"1[{p - 1}]"
        for support in _SHIFT_SUPPORTS:
            point = [rng.randrange(1, p) if s else 0 for s in support]
            block.append({"kind": "type", "n": n, "point": point, "expect": {"stable": stable}})
        blocks.append(block)
    rng.shuffle(blocks)
    return [job for block in blocks for job in block]


# (module descriptor, expected check verdict class, expected generic type);
# W is constant exactly at p = 5, the cyclic, string and window modules always
_ZOO_FIXTURES = (
    ({"name": "W", "p": 3}, "NOT_CONSTANT", "4[3] + 1[1]"),
    ({"name": "W", "p": 5}, "CONSTANT", "3[3] + 2[2]"),
    ({"name": "W", "p": 7}, "NOT_CONSTANT", "4[3] + 1[1]"),
    ({"name": "KE_MOD_I2", "p": 5, "r": 3}, "CONSTANT", "1[2] + 2[1]"),
    ({"name": "KE_MOD_I2", "p": 7, "r": 3}, "CONSTANT", "1[2] + 2[1]"),
    ({"name": "KE_MOD_I2", "p": 3, "r": 4}, "CONSTANT", "1[2] + 3[1]"),
    ({"name": "V", "p": 5, "n": 3}, "CONSTANT", "3[2] + 1[1]"),
    ({"name": "V", "p": 7, "n": 3}, "CONSTANT", "3[2] + 1[1]"),
    ({"name": "TRUNCATED", "p": 5, "r": 2, "m": 1, "n": 3}, "CONSTANT", "2[2] + 1[1]"),
    ({"name": "TRUNCATED", "p": 7, "r": 2, "m": 1, "n": 3}, "CONSTANT", "2[2] + 1[1]"),
    ({"name": "TRUNCATED", "p": 3, "r": 3, "m": 1, "n": 3}, "CONSTANT", "3[2] + 3[1]"),
)

# (p, r, dim, class) of the random modules: zoo.random_module(seed=class).
# The classes are fixed and the run's seed only picks a random basis (a
# permutation and a scaling), so every seed gets different matrices while
# the Jordan types, and with them the work of a sweep, stay the same.
# Classes of one shape differ by up to 2x in sweep time.
# p = 7, r = 4 is left out because its level-2 sweep alone (59,850 points)
# would dwarf the rest of the pass.
_ZOO_RANDOM = ((3, 3, 12, 1), (5, 3, 10, 2), (3, 4, 10, 3), (5, 2, 16, 4), (7, 2, 20, 5), (7, 2, 14, 6))


def _random_desc(rng: random.Random, p: int, r: int, dim: int, cls: int) -> dict:
    return {"name": "RANDOM", "p": p, "r": r, "dim": dim, "seed": cls, "basis": rng.randrange(1 << 30)}


def _zoo_jobs(rng: random.Random) -> list[dict]:
    jobs = []

    def add(desc, verdict, generic):
        p, r = desc["p"], _rank_of(desc)
        constant = verdict == "CONSTANT"
        check = {"verdict": verdict} if verdict else {}
        locus = {"points": orbit_count(p, r, 2)}
        if constant:
            locus["locus_size"] = 0
        jobs.append({"kind": "check", "module": desc, "expect": check})
        jobs.append({"kind": "locus", "module": desc, "expect": locus})
        jobs.append({"kind": "generic", "module": desc, "expect": {"type": generic} if generic else {"dim": desc.get("dim")}})

    for desc, verdict, generic in _ZOO_FIXTURES:
        add(desc, verdict, generic)
    for p, r, dim, cls in _ZOO_RANDOM:
        add(_random_desc(rng, p, r, dim, cls), None, None)
    rng.shuffle(jobs)
    return jobs


def _cli_commands() -> list[list[str]]:
    cmds = [
        ["carlson", "--p", "3", "--rank", "2", "--degrees", "2,2", "--max-ext", "2"],
        ["carlson", "--p", "3", "--rank", "3", "--degrees", "2,2,2"],
        ["carlson", "--p", "3", "--rank", "3", "--degrees", "1,2,2"],
        ["carlson", "--p", "5", "--rank", "2", "--degrees", "1,1"],
    ]
    cmds += [
        ["endotrivial", "--module", f"@omega_p3_r2_n{n}", "--max-ext", "2"]
        for n in (-3, -2, -1, 1, 2, 3)
    ]
    cmds += [
        ["endotrivial", "--module", "@W_p5"],
        ["omega", "--p", "5", "--rank", "3", "--n", "3"],
        ["gamma", "--module", "@W_p7", "--ext", "2"],
        ["check", "--module", "@W_p7"],
    ]
    return cmds


def _cli_jobs(rng: random.Random) -> list[dict]:
    digests = json.loads(DIGESTS_FILE.read_text())
    jobs = []
    for argv in _cli_commands():
        key = " ".join(argv)
        code, digest = digests[key]
        jobs.append({"kind": "cli", "argv": argv, "expect": {"code": code, "sha256": digest}})
    rng.shuffle(jobs)
    return jobs


_PENCIL_FIXTURES = (
    ({"name": "W", "p": 3}, "NOT_CONSTANT"),
    ({"name": "W", "p": 5}, "CONSTANT_EXACT"),
    ({"name": "W", "p": 7}, "NOT_CONSTANT"),
    ({"name": "W_TENSOR_KE", "p": 5}, "CONSTANT_EXACT"),
    ({"name": "TRUNCATED", "p": 3, "r": 2, "m": 1, "n": 4}, "CONSTANT_EXACT"),
    ({"name": "TRUNCATED", "p": 5, "r": 2, "m": 1, "n": 4}, "CONSTANT_EXACT"),
    ({"name": "TRUNCATED", "p": 7, "r": 2, "m": 1, "n": 4}, "CONSTANT_EXACT"),
)
# The pass is kept near 2 s, so that each job gets many samples in a run.
# (p, dim, class) of the two-generator random modules for the exact decision,
# in a seeded basis as in the zoo sweep
_PENCIL_RANDOM_R2 = ((3, 10, 11), (3, 20, 12), (3, 26, 13), (5, 10, 14), (5, 16, 15), (5, 22, 16),
                     (7, 10, 17), (7, 16, 18))
# (p, dim, class) of the three-generator random modules for generic_type
_PENCIL_RANDOM_R3 = ((3, 8, 21), (3, 14, 22), (3, 20, 23), (5, 8, 24), (5, 14, 25), (7, 8, 26))
# primes of the seeded 3 x 2 matrices of linear forms in three variables
_PENCIL_ZERO_PRIMES = (3, 3, 5, 5, 7, 7)


def _pencil_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for desc, verdict in _PENCIL_FIXTURES:
        jobs.append({"kind": "exact", "module": desc, "expect": {"verdict": verdict} if verdict else {}})
    for p, dim, cls in _PENCIL_RANDOM_R2:
        jobs.append({"kind": "exact", "module": _random_desc(rng, p, 2, dim, cls), "expect": {"dim": dim}})
    for p, dim, cls in _PENCIL_RANDOM_R3:
        jobs.append({"kind": "generic", "module": _random_desc(rng, p, 3, dim, cls), "expect": {"dim": dim}})
    for p in _PENCIL_ZERO_PRIMES:
        # entry (i, j) is a linear form: coefficient of x_k in position k
        entries = [[[rng.randrange(p) for _ in range(3)] for _ in range(2)] for _ in range(3)]
        jobs.append({"kind": "zero", "p": p, "entries": entries, "expect": {"found": True}})
    rng.shuffle(jobs)
    return jobs


_MAKERS = {
    "shift-types": _shift_jobs,
    "zoo-sweep": _zoo_jobs,
    "cli-carlson": _cli_jobs,
    "pencil-exact": _pencil_jobs,
}


def make_jobs(name: str, seed: int) -> list[dict]:
    """The workload's job list for this seed: plain JSON data, no cjt objects."""
    return _MAKERS[name](_rng(name, seed))


def plant_errors(jobs: list[dict]) -> int:
    """Corrupt each kind of expectation once, each in a different job.

    Used by the self-test: every planted job must then fail its oracle and
    no other job may.  Returns the number of jobs planted.
    """
    seen = set()
    for job in jobs:
        key = next((k for k, v in job["expect"].items()
                    if v is not None and (job["kind"], k) not in seen), None)
        if key is None:
            continue
        value = job["expect"][key]
        if isinstance(value, bool):
            job["expect"][key] = not value
        elif isinstance(value, int):
            job["expect"][key] = value + 1
        else:
            job["expect"][key] = value + "-planted"
        job["planted"] = True
        seen.add((job["kind"], key))
    return len(seen)


# ---------------------------------------------------------------------------
# fixtures (built during set-up, outside the timed region)
# ---------------------------------------------------------------------------

def _rank_of(desc: dict) -> int:
    if "r" in desc:
        return desc["r"]
    return 2  # W, V and W (x) k[E]/rad^2 are two-generator modules


def _module_key(desc: dict) -> str:
    return json.dumps(desc, sort_keys=True)


def _rebased(m, basis_seed: int):
    """The same module in the basis (P D)^-1 for a seeded permutation P and
    diagonal D; generator sparsity and Jordan types are unchanged."""
    p = m.field.p
    rng = np.random.default_rng(basis_seed)
    perm = rng.permutation(m.dim)
    scale = rng.integers(1, p, m.dim)
    inverse = np.array([pow(int(c), p - 2, p) for c in scale], dtype=np.int64)
    gens = [(scale[:, None] * a[np.ix_(perm, perm)] * inverse[None, :]) % p for a in m.gens]
    return modrep.ModuleRep(m.field, gens, m.convention)


def build_module(desc: dict):
    field = exactalg.make_field(desc["p"], 1)
    name = desc["name"]
    params = {k: v for k, v in desc.items() if k not in ("name", "p", "basis")}
    if name == "W_TENSOR_KE":
        w = zoo.build_example(field, "W")
        return modrep.tensor(w, zoo.build_example(field, "KE_MOD_I2", r=2))
    m = zoo.build_example(field, name, **params)
    return _rebased(m, desc["basis"]) if "basis" in desc else m


def _cli_files(workdir: Path) -> dict[str, str]:
    files = {}
    f3 = exactalg.make_field(3, 1)
    for n in (-3, -2, -1, 1, 2, 3):
        files[f"@omega_p3_r2_n{n}"] = modrep.omega_n(modrep.trivial_module(f3, 2, 1), n)
    files["@W_p5"] = zoo.build_example(exactalg.make_field(5, 1), "W")
    files["@W_p7"] = zoo.build_example(exactalg.make_field(7, 1), "W")
    paths = {}
    for tag, m in files.items():
        path = workdir / (tag[1:] + ".json")
        path.write_text(json.dumps(serialize.module_to_json(m), sort_keys=True))
        paths[tag] = str(path)
    return paths


def setup(name: str, jobs: list[dict], workdir: Path) -> dict:
    """Fixtures and input files for the job list; nothing here is timed."""
    ctx: dict = {"modules": {}, "omega": {}}
    if name == "shift-types":
        ctx["trivial"] = modrep.trivial_module(exactalg.make_field(5, 1), 3, 1)
    elif name == "cli-carlson":
        ctx["paths"] = _cli_files(workdir)
    for job in jobs:
        desc = job.get("module")
        if desc is not None and _module_key(desc) not in ctx["modules"]:
            ctx["modules"][_module_key(desc)] = build_module(desc)
        if job["kind"] == "zero":
            p = job["p"]
            grid = [
                [polymat.HomPoly(p, 3, {tuple(int(i == k) for i in range(3)): c for k, c in enumerate(lin) if c})
                 for lin in row]
                for row in job["entries"]
            ]
            ctx.setdefault("polys", {})[id(job)] = polymat.PolyMatrix(p, 3, grid)
    return ctx


def reset_caches() -> None:
    """Empty the program's process-wide caches before a pass (untimed), so
    that every pass starts the way a fresh ``cjt`` process does; within a
    pass they fill and serve as usual.

    A cache is a module-level dict with "cache" in its name, or a
    ``functools`` cache.  They are found by inspection, so that a cache a
    later version of cjt adds or renames is emptied too.
    """
    for name, mod in list(sys.modules.items()):
        if name != "cjt" and not name.startswith("cjt."):
            continue
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, dict) and "cache" in attr.lower():
                obj.clear()
            elif callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _module(job: dict, ctx: dict):
    return ctx["modules"][_module_key(job["module"])]


# ---------------------------------------------------------------------------
# timed runners
# ---------------------------------------------------------------------------

def _run_omega(job, ctx):
    m = modrep.omega_n(ctx["trivial"], job["n"])
    ctx["omega"][job["n"]] = m
    return m


def _run_type(job, ctx):
    m = ctx["omega"][job["n"]]
    q = constancy.PiPoint(m.field, tuple(job["point"]))
    return constancy.jordan_at(m, q)


def _run_check(job, ctx):
    return constancy.check_constant(_module(job, ctx), max_e=2)


def _run_locus(job, ctx):
    m = _module(job, ctx)
    return constancy.gamma_locus(m, 2), constancy.pi_support(m, 2)


def _run_generic(job, ctx):
    return constancy.generic_type(_module(job, ctx))


def _run_cli(job, ctx):
    paths = ctx["paths"]
    argv = [paths.get(a, a) for a in job["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.execute(argv)
    return code, out.getvalue()


def _run_exact(job, ctx):
    return constancy.check_constant(_module(job, ctx), exact=True)


def _run_zero(job, ctx):
    return polymat.common_zero_search(ctx["polys"][id(job)], 2, 3)


RUNNERS = {
    "omega": _run_omega,
    "type": _run_type,
    "check": _run_check,
    "locus": _run_locus,
    "generic": _run_generic,
    "cli": _run_cli,
    "exact": _run_exact,
    "zero": _run_zero,
}


def run_job(job: dict, ctx: dict):
    return RUNNERS[job["kind"]](job, ctx)


def emitted_bytes(job: dict, result) -> int:
    """Bytes of JSON a CLI job wrote to stdout (0 for library jobs)."""
    return len(result[1].encode()) if job["kind"] == "cli" else 0


# ---------------------------------------------------------------------------
# oracles (outside the timed region); each returns the job's point count
# ---------------------------------------------------------------------------

def _dominates(big, small) -> bool:
    return jordan.dominance_compare(big, small) in (jordan.Dominance.GREATER, jordan.Dominance.EQUAL)


def _sampled_types(m, count=3):
    """Jordan types at the first few rational sweep points."""
    pts = constancy.sweep_points(m.field, m.r, 1)[:count]
    return [constancy.jordan_at(m, q) for q in pts]


def _check_omega(job, m, ctx):
    _require(m.dim == job["expect"]["dim"], f"dim {m.dim}, closed form {job['expect']['dim']}")
    return 0


def _check_type(job, t, ctx):
    m = ctx["omega"][job["n"]]
    _require(t.dim == m.dim, f"type {t} has dim {t.dim}, module {m.dim}")
    st = str(jordan.stable(t))
    _require(st == job["expect"]["stable"], f"stable type {st}, expected {job['expect']['stable']}")
    return 1


def _sweep_total(p: int, r: int, extensions) -> int:
    return sum(orbit_count(p, r, e) for e in extensions)


def _check_check(job, rep, ctx):
    m = _module(job, ctx)
    want = job["expect"].get("verdict")
    verdict_class = "NOT_CONSTANT" if rep.verdict == "NOT_CONSTANT" else "CONSTANT"
    _require(want is None or verdict_class == want, f"verdict {rep.verdict}, expected {want}")
    gen = constancy.generic_type(m)
    _require(_dominates(gen, rep.type), f"generic {gen} does not dominate {rep.type}")
    if rep.verdict == "NOT_CONSTANT":
        _require(bool(rep.witnesses), "NOT_CONSTANT without witnesses")
        for q, t in rep.witnesses:
            _require(t != rep.type and _dominates(gen, t), f"bad witness {q}: {t}")
    else:
        _require(rep.extensions == [1, 2], f"constant verdict swept {rep.extensions}")
    return _sweep_total(m.p, m.r, rep.extensions)


def _check_locus(job, result, ctx):
    m = _module(job, ctx)
    locus, support = result
    expect = job["expect"]
    swept = constancy.sweep_points(m.field, m.r, 2)
    _require(len(swept) == expect["points"], f"{len(swept)} level-2 points, closed form {expect['points']}")
    if expect.get("locus_size") is not None:
        _require(len(locus.points) == expect["locus_size"], f"locus has {len(locus.points)} points")
    everywhere = set(swept)
    _require(set(locus.points) <= everywhere and set(support) <= everywhere, "point outside the sweep")
    for q in locus.points:
        t = locus.observed[q]
        _require(t != locus.generic and _dominates(locus.generic, t), f"generic does not dominate {t}")
    return 2 * len(swept)  # gamma_locus and pi_support each type every point


def _check_generic(job, t, ctx):
    m = _module(job, ctx)
    expect = job["expect"]
    if expect.get("type") is not None:
        _require(str(t) == expect["type"], f"generic type {t}, expected {expect['type']}")
    if expect.get("dim") is not None:
        _require(t.dim == expect["dim"], f"generic type of dim {t.dim}, expected {expect['dim']}")
    _require(t.dim == m.dim, f"generic type of dim {t.dim} on a module of dim {m.dim}")
    for s in _sampled_types(m):
        _require(_dominates(t, s), f"generic {t} does not dominate observed {s}")
    return 0


def _check_cli(job, result, ctx):
    code, out = result
    expect = job["expect"]
    _require(code == expect["code"], f"exit code {code}, expected {expect['code']}")
    digest = hashlib.sha256(out.encode()).hexdigest()
    _require(digest == expect["sha256"], f"stdout digest {digest[:12]}, recorded {expect['sha256'][:12]}")
    payload = json.loads(out)
    cmd = job["argv"][0]
    if cmd == "carlson":
        args = dict(zip(job["argv"][1::2], job["argv"][2::2]))
        p, rank = int(args["--p"]), int(args["--rank"])
        dims = [omega_dim(p, rank, int(d)) for d in args["--degrees"].split(",")]
        _require(payload["module"]["dim"] == sum(dims) - 1, "kernel dim is not sum of shift dims - 1")
        _require(payload["hypothesis"]["holds_everywhere"], "hypothesis fails at a point")
        return len(payload["hypothesis"]["points"])
    if cmd == "endotrivial":
        _require(payload["endotrivial"] == (expect["code"] == 0), "endotrivial verdict")
        return len(payload["evidence"]["stable_types"])
    if cmd == "gamma":
        return orbit_count(7, 2, 2)
    if cmd == "check":
        return _sweep_total(7, 2, payload["extensions"])
    return 0


def _check_exact(job, rep, ctx):
    m = _module(job, ctx)
    want = job["expect"].get("verdict")
    _require(want is None or rep.verdict == want, f"verdict {rep.verdict}, expected {want}")
    if job["expect"].get("dim") is not None:
        _require(m.dim == job["expect"]["dim"], "module dimension")
    if rep.verdict == "CONSTANT_EXACT":
        for e in (1, 2):
            for q in constancy.sweep_points(m.field, m.r, e):
                t = constancy.jordan_at(m, q)
                _require(t == rep.type, f"CONSTANT_EXACT but {q} has type {t} != {rep.type}")
        return 0
    _require(rep.verdict == "NOT_CONSTANT" and bool(rep.witnesses), f"verdict {rep.verdict}")
    for q, t in rep.witnesses:
        _require(constancy.jordan_at(m, q) == t, f"witness {q} re-types differently")
        _require(t != rep.type, f"witness {q} has the top type")
    return _sweep_total(m.p, m.r, rep.extensions)


def _check_zero(job, res, ctx):
    _require(isinstance(res, polymat.CommonZeroWitness) == job["expect"]["found"], "no common zero by e = 3")
    pm = ctx["polys"][id(job)]
    val = pm.evaluate(res.field, res.coords)
    _require(exactalg.rank_array(res.field, val) < 2, f"witness {res.coords} has full rank")
    return 0


CHECKS = {
    "omega": _check_omega,
    "type": _check_type,
    "check": _check_check,
    "locus": _check_locus,
    "generic": _check_generic,
    "cli": _check_cli,
    "exact": _check_exact,
    "zero": _check_zero,
}


def check_job(job: dict, result, ctx: dict) -> int:
    return CHECKS[job["kind"]](job, result, ctx)
