"""Layer tracing from outside the program.

``Tracer.install`` wraps every public function of each cjt layer module and
replaces the reference in every ``cjt.*`` namespace that imported it; the
``Field`` methods are wrapped at class level.  Each call inside a job opens
a span (name, start, end, parent, job).  A span's self time is its duration
minus the time its child spans cover; the job's root span is the
benchmark's own ("harness") time.  The time the tracer's own counters take
at layer boundaries is charged to ``trace.hooks``, not to any layer, so the
self times of all spans add up to the traced wall time that the harness
measures with its own clock.

Element-wise ``Field`` calls (add, sub, neg, mul) are too many for one span
each: they are counted with their summed time instead, and that time stays
inside the self time of the span that made them.  Private helpers such as
``_echelonize`` are not wrapped and are charged to their public caller.
A public call made directly inside another call of the same group (say
``column_space`` calling ``rref_array``) is charged to the outer call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("exactalg", "jordan", "modrep", "polymat", "constancy", "syzygy", "carlson", "serialize", "cli")

# function groups named by the per-layer metrics; every listed function must
# exist, so that a rename fails loudly instead of silently dropping a wrapper
GROUPS = {
    "exactalg.elim": ("exactalg", ("rank", "rank_array", "nullspace", "nullspace_array",
                                   "rref_array", "column_space", "solve_linear")),
    "jordan.power_ranks": ("jordan", ("power_ranks",)),
    "constancy.evaluate": ("constancy", ("evaluate",)),
    "constancy.sweep_points": ("constancy", ("sweep_points",)),
    "modrep.split_free": ("modrep", ("split_free",)),
    "modrep.hom_space": ("modrep", ("hom_space",)),
    "modrep.shift": ("modrep", ("projective_cover_omega", "omega_n")),
    "modrep.tensor_dual": ("modrep", ("tensor", "dual", "hom")),
    "polymat.generic_rank": ("polymat", ("generic_rank",)),
    "polymat.minor_gcd": ("polymat", ("bivariate_minor_gcd",)),
    "polymat.zero_search": ("polymat", ("common_zero_search",)),
    "syzygy.omega_k": ("syzygy", ("omega_k",)),
    "syzygy.factor_generator": ("syzygy", ("factor_generator",)),
    "carlson.kernel": ("carlson", ("kernel_of_hom_matrix",)),
    "carlson.endotrivial": ("carlson", ("endotrivial_check",)),
}
ELEMENTWISE = ("add", "sub", "neg", "mul")
HARNESS = "harness"
HOOKS = "trace.hooks"
MAX_SPANS = 200_000  # spans kept in memory for the spans file; the metrics count every call


class TracingError(Exception):
    pass


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open frames: [group, start, child_s, span_id, parent_id]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, parent, name, start, end, job)
        self.spans_dropped = 0
        self.next_id = 0
        self.job = -1
        self.in_elementwise = False
        self.ew_calls = 0
        self.ew_ext_calls = 0
        self.ew_s = 0.0
        self.elim_cells = 0
        self.elim_max_cols = 0
        self.matmul_ops = 0
        self.power_rank_rows = 0
        self.evaluations = 0
        self.distinct_points = 0
        self.kernel_jobs = 0
        self.json_bytes = 0  # CLI output, added by the harness after each job
        self._job_points: set = set()
        self._job_modules: dict[int, tuple] = {}
        self._job_kernel_calls = 0
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------
    def _open(self, group: str) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        frame = [group, 0.0, 0.0, self.next_id, parent]
        self.next_id += 1
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        group, start, child_s, span_id, parent = frame
        dur = end - start
        self.calls[group] = self.calls.get(group, 0) + 1
        self.self_s[group] = self.self_s.get(group, 0.0) + dur - child_s
        if self.stack:
            self.stack[-1][2] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, group, start, end, self.job))
        else:
            self.spans_dropped += 1

    def begin_job(self, job_id: int) -> None:
        self.job = job_id
        self._job_points.clear()
        self._job_modules.clear()
        self._job_kernel_calls = 0
        self._open(HARNESS)

    def end_job(self) -> None:
        self._close(self.stack[-1])
        if self.stack:
            raise TracingError("a span outlived its job")
        self.distinct_points += len(self._job_points)
        self.kernel_jobs += self._job_kernel_calls > 0
        self._job_points.clear()
        self._job_modules.clear()

    def _wrap(self, group: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if not stack or stack[-1][0] == group:
                return fn(*args, **kwargs)
            if hook is not None:
                start = time.perf_counter()
                hook(args)
                tracer._charge_hook(time.perf_counter() - start)
            frame = tracer._open(group)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return traced

    def _wrap_elementwise(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(field, *args):
            if not tracer.stack or tracer.in_elementwise:
                return fn(field, *args)
            tracer.in_elementwise = True
            start = time.perf_counter()
            try:
                return fn(field, *args)
            finally:
                tracer.ew_s += time.perf_counter() - start
                tracer.in_elementwise = False
                tracer.ew_calls += 1
                if field.e >= 2:
                    tracer.ew_ext_calls += 1

        return traced

    # -- counters taken at layer boundaries ----------------------------------
    def _charge_hook(self, dur: float) -> None:
        """Book a counter's time to ``trace.hooks`` instead of the caller's self time."""
        self.self_s[HOOKS] = self.self_s.get(HOOKS, 0.0) + dur
        self.stack[-1][2] += dur

    def _on_elim(self, args) -> None:
        arr = args[0].array if hasattr(args[0], "array") else args[1]
        rows, cols = arr.shape
        self.elim_cells += rows * cols
        self.elim_max_cols = max(self.elim_max_cols, cols)

    def _on_matmul(self, args) -> None:
        field, a, b = args
        cols = b.shape[1] if b.ndim == 2 else 1
        self.matmul_ops += a.shape[0] * a.shape[1] * cols * field.e**2

    def _on_power_ranks(self, args) -> None:
        self.power_rank_rows += args[0].rows

    def _on_evaluate(self, args) -> None:
        m, q = args[0], args[1]
        entry = self._job_modules.get(id(m))
        if entry is None:
            # the module object is kept alive until the job ends, so its id
            # cannot be reused; equal content counts as the same module
            entry = (m, hash((m.field, tuple(g.tobytes() for g in m.gens))))
            self._job_modules[id(m)] = entry
        self.evaluations += 1
        self._job_points.add((entry[1], q))

    def _on_kernel(self, args) -> None:
        self._job_kernel_calls += 1

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap the layers' public functions and the Field arithmetic."""
        hooks = {
            "exactalg.elim": self._on_elim,
            "exactalg.matmul": self._on_matmul,
            "jordan.power_ranks": self._on_power_ranks,
            "constancy.evaluate": self._on_evaluate,
            "carlson.kernel": self._on_kernel,
        }
        group_of = {}
        for group, (layer, names) in GROUPS.items():
            mod = importlib.import_module(f"cjt.{layer}")
            for name in names:
                if not inspect.isfunction(getattr(mod, name, None)):
                    raise TracingError(f"cjt.{layer}.{name} is gone; update the benchmark's GROUPS")
                group_of[(layer, name)] = group
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cjt.{layer}")
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                    continue
                group = group_of.get((layer, name), f"{layer}.{name}")
                replaced[id(obj)] = (obj, self._wrap(group, obj, hooks.get(group)))
        for modname, mod in list(sys.modules.items()):
            if modname != "cjt" and not modname.startswith("cjt."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, val))
        field_cls = importlib.import_module("cjt.exactalg").Field
        for name in ELEMENTWISE + ("matmul", "kron"):
            orig = field_cls.__dict__[name]
            if name in ELEMENTWISE:
                wrapped = self._wrap_elementwise(orig)
            else:
                group = f"exactalg.{name}"
                wrapped = self._wrap(group, orig, hooks.get(group))
            setattr(field_cls, name, wrapped)
            self._restore.append((field_cls, name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------
    def _group_total(self, prefix: str, table: dict):
        return sum(v for g, v in table.items() if g == prefix or g.startswith(prefix + "."))

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics; counts and times are per pass of the job list."""
        per = 1.0 / passes
        calls, self_s = self.calls, self.self_s
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self._group_total(layer, calls) * per
            out[f"{layer}.self_s"] = self._group_total(layer, self_s) * per
        for group in GROUPS:
            out[f"{group}.calls"] = calls.get(group, 0) * per
            out[f"{group}.self_s"] = self_s.get(group, 0.0) * per
        out["exactalg.matmul.calls"] = calls.get("exactalg.matmul", 0) * per
        out["exactalg.matmul.self_s"] = self_s.get("exactalg.matmul", 0.0) * per
        out["exactalg.elim.cells"] = self.elim_cells * per
        out["exactalg.elim.max_cols"] = float(self.elim_max_cols)
        out["exactalg.matmul.ops"] = self.matmul_ops * per
        out["exactalg.elementwise.calls"] = self.ew_calls * per
        out["exactalg.elementwise.self_s"] = self.ew_s * per
        out["exactalg.elementwise.ext_share"] = self.ew_ext_calls / self.ew_calls if self.ew_calls else 0.0
        pr_calls = calls.get("jordan.power_ranks", 0)
        out["jordan.power_ranks.dim_mean"] = self.power_rank_rows / pr_calls if pr_calls else 0.0
        out["constancy.points"] = self.evaluations * per
        out["constancy.repeat_ratio"] = self.evaluations / self.distinct_points if self.distinct_points else 0.0
        kernel_calls = calls.get("carlson.kernel", 0)
        out["carlson.kernel.calls_per_job"] = kernel_calls / self.kernel_jobs if self.kernel_jobs else 0.0
        out["serialize.bytes"] = self.json_bytes * per
        out["harness.self_s"] = self_s.get(HARNESS, 0.0) * per
        out["trace.hooks_s"] = self_s.get(HOOKS, 0.0) * per
        return out

    def accounting_error(self, harness_s: float) -> float:
        """|sum of all self times - the traced jobs' time on the harness's clock|.

        The two differ only by the few instructions between a job's root span
        and the harness's timer, unless time escapes the spans.
        """
        return abs(sum(self.self_s.values()) - harness_s)

    def dump(self) -> dict:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["id", "parent", "name", "start", "end", "job"],
            "spans": [[s[0], s[1], index[s[2]], round(s[3], 9), round(s[4], 9), s[5]] for s in self.spans],
            "dropped": self.spans_dropped,
        }
