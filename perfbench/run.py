#!/usr/bin/env python3
"""Benchmark of cjt: seeded workloads, end-to-end metrics, and a traced run.

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload shift-types --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload zoo-sweep --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --self-test

Each workload is a closed loop: one caller runs the seeded job list back to
back, pass after pass, in one fresh process, for ``--seconds`` seconds (at
least three passes; a pass starts only if it is likely to end in time).
Every job's output is checked against oracles after its timer stops.  Set-up time is measured from process launch to the
first timed job, over several launches.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` runs untraced passes for half the time, then traced passes
for the other half, and prints the per-layer metrics, with counts and
times per pass of the job list.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full record,
with the environment and the raw samples, goes to
``.perfbench_results/<workload>-seed<seed>-trace<t>.json``; a traced run
also writes its spans next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
RESULTS = ROOT / ".perfbench_results"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("shift-types", "zoo-sweep", "cli-carlson", "pencil-exact")
MIN_PASSES = 3  # untraced passes in a --trace 0 run, so that wall_s is a median of at least three
SETUP_LAUNCHES = 5  # set-up-only launches; the measured run's own set-up is one more sample
TIME_LIMIT_S = 170.0  # the whole run, set-up launches included
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
# allowed gap per traced job between the tracer's root span and the harness's
# timer around the same job: two clock reads and a return
ACCOUNTING_SLACK_S = 1e-4


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values: list[float], level: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * level / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(samples_guaranteed: int) -> float:
    """Highest percentile with at least ten samples beyond it.

    It is taken from the sample count every run is guaranteed (jobs per
    pass times the minimum number of passes), so it does not change from
    run to run with the number of passes that fit in the time.
    """
    return next((level for level in TAIL_LEVELS if samples_guaranteed * (1 - level / 100.0) >= 10), 50.0)


def _stem(args) -> str:
    """Name of a run's result files; self-test runs get their own names."""
    return f"{args.workload}-seed{args.seed}" + ("-selftest" if args.selftest else "")


# ---------------------------------------------------------------------------
# the workload process
# ---------------------------------------------------------------------------

def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


@dataclass
class Samples:
    pass_s: list[float] = field(default_factory=list)
    job_s: list[float] = field(default_factory=list)
    points: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


def _run_pass(workloads, jobs, ctx, tracer, pass_no: int, into: Samples) -> None:
    workloads.reset_caches()
    total = 0.0
    for j, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(pass_no * len(jobs) + j)
        start = time.perf_counter()
        try:
            result = workloads.run_job(job, ctx)
            error = None
        except Exception as exc:  # a failing job is counted, the loop goes on
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_job()
            if error is None:
                tracer.json_bytes += workloads.emitted_bytes(job, result)
        total += elapsed
        into.job_s.append(elapsed)
        into.attempted += 1
        if error is None:
            try:
                into.points += workloads.check_job(job, result, ctx)
            except workloads.OracleError as exc:
                error = f"oracle: {exc}"
            except Exception as exc:  # an oracle that cannot read the output is a miss too
                error = f"oracle raised {type(exc).__name__}: {exc}"
        if error is not None:
            into.failed += 1
            if len(into.failures) < 20:
                tag = " (planted)" if job.get("planted") else ""
                into.failures.append(f"pass {pass_no} job {j} {job['kind']}{tag}: {error}")
    into.pass_s.append(total)


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import cjt

    if Path(cjt.__file__).resolve().parent != (SRC / "cjt").resolve():
        raise BenchError(f"imported cjt from {cjt.__file__}, not from the checkout")
    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed)
    planted = workloads.plant_errors(jobs) if args.plant else 0
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.setup(args.workload, jobs, workdir)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        out = _measure(workloads, args, jobs, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK.rmdir()
    out.update(setup_s=setup_s, planted=planted, jobs_per_pass=len(jobs), environment=_environment())
    print(json.dumps(out))
    return 0


def _another_pass(samples: Samples, min_passes: int, start: float, budget: float) -> bool:
    """Whether a further pass is due: below the minimum, or likely to end within the budget."""
    if len(samples.pass_s) < min_passes:
        return True
    return time.perf_counter() - start + statistics.median(samples.pass_s) <= budget


def _measure(workloads, args, jobs, ctx) -> dict:
    plain = Samples()
    start = time.perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    while _another_pass(plain, 1 if args.trace else MIN_PASSES, start, budget):
        _run_pass(workloads, jobs, ctx, None, len(plain.pass_s), plain)
    out = {
        "pass_s": plain.pass_s,
        "job_s": plain.job_s,
        "points": plain.points,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "failures": plain.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": [],
    }
    if args.trace:
        out.update(_traced(workloads, args, jobs, ctx, start, plain))
    return out


def _traced(workloads, args, jobs, ctx, start: float, plain: Samples) -> dict:
    from tracing import Tracer

    traced = Samples()
    tracer = Tracer()
    tracer.install()
    try:
        while _another_pass(traced, 1, start, args.seconds):
            _run_pass(workloads, jobs, ctx, tracer, len(traced.pass_s), traced)
    finally:
        tracer.uninstall()
    layer = tracer.metrics(len(traced.pass_s))
    harness_s = sum(traced.pass_s)
    layer["trace.wall_s"] = harness_s / len(traced.pass_s)
    layer["trace.overhead_frac"] = statistics.median(traced.pass_s) / statistics.median(plain.pass_s) - 1
    checks = []
    error = tracer.accounting_error(harness_s)
    if error > ACCOUNTING_SLACK_S * traced.attempted:
        checks.append(f"layer self times plus harness time miss the traced wall time by {error:.3g} s")
    stressed = workloads.STRESSED[args.workload]
    if not layer.get(stressed):
        checks.append(f"{stressed} is zero on {args.workload}: a wrapper no longer reaches the stressed layer")
    RESULTS.mkdir(exist_ok=True)
    spans_file = RESULTS / f"{_stem(args)}-spans.json"
    spans_file.write_text(json.dumps(tracer.dump()))
    return {
        "per_layer": layer,
        "checks": checks,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "failures": plain.failures + traced.failures,
        "traced_pass_s": traced.pass_s,
    }


# ---------------------------------------------------------------------------
# the launcher
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, int(env.get("OPENBLAS_NUM_THREADS") or nproc))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    return env


def _launch(args, extra: list[str], deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--t0", repr(t0),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    if args.selftest:
        cmd.append("--selftest-run")
    try:
        proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0), check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded the {TIME_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, extra: list[str] = ()) -> dict:
    """Run one workload: set-up launches, then the measured run; returns the full record."""
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = json.loads(SPEC_FILE.read_text())
    setups = [_launch(args, ["--setup-only"] + list(extra), deadline)["setup_s"] for _ in range(SETUP_LAUNCHES)]
    res = _launch(args, list(extra), deadline)
    setups.append(res["setup_s"])
    level = tail_level(res["jobs_per_pass"] * (1 if args.trace else MIN_PASSES))
    passes = len(res["pass_s"])
    wall_s = statistics.median(res["pass_s"])
    computed = {
        "wall_s": wall_s,
        "points_per_s": res["points"] / passes / wall_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    # too few passes for a pass-time tail; the job latencies carry the tail
    job_ms = [1000 * x for x in res["job_s"]]
    timings = {
        "pass_s": {"median": wall_s, "min": min(res["pass_s"]), "samples": passes},
        "job_ms": {"median": statistics.median(job_ms), f"p{level:g}": percentile(job_ms, level),
                   "samples": len(job_ms)},
        "setup_s": {"median": computed["setup_s"], "samples": len(setups)},
    }
    if args.trace:
        computed = res["per_layer"]
        listed = spec["per_layer"]
    else:
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in computed]
    if missing:
        raise BenchError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in listed}
    correct = res["failed"] == 0 and not res["checks"]
    line = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    record = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        result=line, environment=res["environment"], setup_samples_s=setups,
        timings=timings, passes=len(res["pass_s"]),
        pass_s=res["pass_s"], job_s=res["job_s"], traced_pass_s=res.get("traced_pass_s"), points=res["points"],
        fail_frac=res["failed"] / res["attempted"], failures=res["failures"], checks=res["checks"],
        planted=res["planted"],
    )
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{_stem(args)}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return record


def _summary(record: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"fail_frac={record['fail_frac']:.4g} ({record['result']['failed']} of {record['result']['attempted']} jobs)")
    for name, t in record["timings"].items():
        print(f"# {name}: " + " ".join(f"{k}={v:.6g}" for k, v in t.items()))
    print(f"# env: commit={env['commit']} src={env['src_sha256'][:12]} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} threads={env['blas_threads']}")
    for name, m in record["result"]["metrics"].items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    for message in record["failures"] + record["checks"]:
        print(f"# FAIL {message}")


def self_test() -> int:
    """Seed purity, planted oracle errors, and layer coverage, per workload."""
    sys.path.insert(0, str(SRC))
    import workloads

    problems = []
    for name in WORKLOADS:
        a, b = (json.dumps(workloads.make_jobs(name, 1), sort_keys=True) for _ in range(2))
        if a != b:
            problems.append(f"{name}: seed 1 gave two different job lists")
        if a == json.dumps(workloads.make_jobs(name, 2), sort_keys=True):
            problems.append(f"{name}: seeds 1 and 2 gave the same job list")
    for name in WORKLOADS:
        args = argparse.Namespace(workload=name, seed=1, seconds=0, trace=0, selftest=True)
        rec = measure(args, ["--plant"])
        expected = rec["planted"] * rec["passes"]
        print(f"# {name}: planted {rec['planted']} errors; fail_frac {rec['fail_frac']:.3f} "
              f"({rec['result']['failed']} of {rec['result']['attempted']} jobs)")
        if rec["planted"] == 0 or rec["result"]["failed"] != expected or rec["result"]["correct"]:
            problems.append(f"{name}: {rec['result']['failed']} failures, expected {expected}")
        if any("(planted)" not in f for f in rec["failures"]):
            problems.append(f"{name}: an unplanted job failed: {rec['failures']}")
        rec = measure(argparse.Namespace(workload=name, seed=1, seconds=0, trace=1, selftest=True))
        layer = rec["result"]["metrics"]
        print(f"# {name}: traced, {workloads.STRESSED[name]} stressed; overhead "
              f"{layer['trace.overhead_frac']['value']:.3f}; correct {rec['result']['correct']}")
        if not rec["result"]["correct"]:
            problems.append(f"{name}: traced run not correct: {rec['failures'] + rec['checks']}")
    for p in problems:
        print(f"# SELF-TEST FAIL {p}")
    print("# self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", dest="self_test")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", dest="setup_only", help=argparse.SUPPRESS)
    ap.add_argument("--plant", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--selftest-run", action="store_true", dest="selftest", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "cjt" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        print(f"perfbench: run from a cjt checkout; {SRC / 'cjt'} or {SPEC_FILE} is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _summary(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
