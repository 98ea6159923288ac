"""The benchmark's layer tracer wraps cjt functions by name.

``perfbench/tracing.py`` names them in ``GROUPS`` (function groups of the
per-layer metrics) and ``ELEMENTWISE`` (``Field`` methods).  A rename or
deletion in cjt would otherwise surface only when the traced benchmark
runs.  The file is parsed, not imported, so nothing under ``perfbench/``
is written.

The benchmark's self-test also asks the layer each workload stresses
(``STRESSED`` in ``perfbench/workloads.py``) to read nonzero, and those
counters are counted at function calls: zoo-sweep's ``constancy.points``
at ``constancy.evaluate``, shift-types' elimination calls at the public
entry points of ``GROUPS["exactalg.elim"]``, and so on.  A refactor that
routes around the counted function (block evaluation in ``level_types``,
an internal elimination kernel in ``_cover_kernel``) fails the self-test;
the probes below make such a pin fail in the test suite instead.  They
are lifted by the counters of ROADMAP item 1, counted where the work is
done rather than at function boundaries.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cjt import cli, constancy, exactalg, jordan, modrep
from cjt.exactalg import Field, make_field
from cjt.zoo import w_module

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _constant(name: str, path: Path = TRACING):
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path.name}")


def test_every_traced_function_exists():
    groups = _constant("GROUPS")
    assert groups
    for group, (layer, names) in groups.items():
        module = importlib.import_module(f"cjt.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{group}: cjt.{layer}.{name}"


def test_every_traced_field_method_exists():
    # Tracer.install reads these from Field's own class dict, so a method
    # that is inherited or moved to a helper would fail a traced run
    for name in _constant("ELEMENTWISE") + ("matmul", "kron"):
        assert callable(Field.__dict__.get(name)), f"Field.{name}"


# workload -> (its stressed metric, a tiny input on the workload's route)
PROBES = {
    "zoo-sweep": (
        "constancy.points",
        lambda: constancy.level_types(w_module(make_field(3, 1)), 1),
    ),
    "pencil-exact": (
        "polymat.generic_rank.calls",
        lambda: constancy.generic_type(w_module(make_field(3, 1))),
    ),
    "shift-types": (
        "exactalg.elim.calls",
        lambda: modrep.omega_n(modrep.trivial_module(make_field(5, 1), 2), 1),
    ),
    "cli-carlson": (
        "carlson.kernel.calls",
        lambda: cli.execute(["carlson", "--p", "3", "--rank", "2", "--degrees", "1,1"]),
    ),
}


def _counted_functions(metric: str) -> tuple[str, tuple[str, ...]]:
    """(layer, function names) whose calls the tracer turns into the metric;
    ``constancy.points`` is the evaluation count of the ``evaluate`` hook."""
    group = "constancy.evaluate" if metric == "constancy.points" else metric.removesuffix(".calls")
    return _constant("GROUPS")[group]


@pytest.mark.parametrize("workload", sorted(PROBES))
def test_stressed_layer_is_reached_by_its_route(workload, monkeypatch, capsys):
    stressed = _constant("STRESSED", WORKLOADS)
    assert set(stressed) == set(PROBES)
    metric, probe = PROBES[workload]
    assert stressed[workload] == metric
    layer, names = _counted_functions(metric)
    calls = []
    module = importlib.import_module(f"cjt.{layer}")
    for name in names:
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        # every cjt module that imported the function by name, as the tracer does
        for modname, mod in list(sys.modules.items()):
            if (modname == "cjt" or modname.startswith("cjt.")) and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    # a cached Heller-shift tower would build no cover, a cached level no point
    monkeypatch.setattr(modrep, "_module_cache", modrep._MemoCache())
    probe()
    capsys.readouterr()
    assert calls, f"{workload}: no call to cjt.{layer}.{{{', '.join(names)}}}"


def test_power_ranks_probe_sees_one_call_per_point(monkeypatch):
    # _on_power_ranks reads args[0].rows on every jordan.power_ranks call;
    # jordan_at hands it a COO matrix, whose rows must be the module's dim
    assert _constant("GROUPS")["jordan.power_ranks"] == ("jordan", ("power_ranks",))
    original = jordan.power_ranks
    rows = []

    def counted(*args, **kwargs):
        rows.append(args[0].rows)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if (modname == "cjt" or modname.startswith("cjt.")) and vars(mod).get("power_ranks") is original:
            monkeypatch.setattr(mod, "power_ranks", counted)
    monkeypatch.setattr(modrep, "_module_cache", modrep._MemoCache())
    f = make_field(5, 1)
    m = modrep.omega_n(modrep.trivial_module(f, 3), 1)
    points = [(1, 1, 1), (2, 3, 0), (0, 1, 4), (3, 0, 1), (4, 4, 4)]
    for coords in points:
        constancy.jordan_at(m, constancy.PiPoint(f, coords))
    assert rows == [m.dim] * len(points) == [124] * 5


def _elim_rule():
    """The expression by which the tracer's ``_on_elim`` picks the matrix
    out of an elimination call's positional arguments, as a function of
    them."""
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == "_on_elim":
            first = node.body[0]
            assert isinstance(first, ast.Assign) and ast.unparse(first.targets[0]) == "arr"
            code = compile(ast.Expression(first.value), str(TRACING), "eval")
            return lambda args: eval(code, {"hasattr": hasattr}, {"args": args})
    raise AssertionError("_on_elim not found in tracing.py")


def test_elimination_probe_reads_the_eliminated_matrix():
    # rank and nullspace are the array functions under their short names,
    # and every entry point of GROUPS["exactalg.elim"] takes the field first
    # and the matrix it eliminates second, which _on_elim reads for its cells
    assert exactalg.rank is exactalg.rank_array
    assert exactalg.nullspace is exactalg.nullspace_array
    f = make_field(3, 2)
    a = np.arange(12, dtype=np.int64).reshape(3, 4) % f.q
    b = np.ones((3, 1), dtype=np.int64)
    calls = {
        "rank": (f, a),
        "rank_array": (f, a),
        "nullspace": (f, a),
        "nullspace_array": (f, a),
        "rref_array": (f, a),
        "column_space": (f, a),
        "solve_linear": (f, a, b),
    }
    layer, names = _constant("GROUPS")["exactalg.elim"]
    assert layer == "exactalg" and set(names) == set(calls)
    read = _elim_rule()
    for name in names:
        getattr(exactalg, name)(*calls[name])
        got = read(calls[name])
        assert got is a and got.ndim == 2, name


def _reset_caches():
    """The benchmark's per-pass reset, ``reset_caches`` of
    ``perfbench/workloads.py``, compiled from its source."""
    tree = ast.parse(WORKLOADS.read_text())
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "reset_caches")
    namespace = {"sys": sys}
    exec(compile(ast.Module([node], type_ignores=[]), str(WORKLOADS), "exec"), namespace)
    return namespace["reset_caches"]


def _module_containers() -> dict[tuple[str, str], object]:
    """Every module-level dict, list and set of cjt, by (module, name)."""
    return {
        (modname, attr): obj
        for modname, mod in list(sys.modules.items())
        if modname == "cjt" or modname.startswith("cjt.")
        for attr, obj in vars(mod).items()
        if isinstance(obj, (dict, list, set)) and not attr.startswith("__")
    }


def test_the_per_pass_reset_empties_what_the_entry_points_grow(tmp_path, capsys):
    """omega_n, level_types, check_constant, generic_type and cli.execute
    keep their state only where the benchmark's reset finds it: in
    module-level dicts with "cache" in their names (or functools caches).
    State kept anywhere else would carry work from one pass to the next."""
    from cjt.serialize import module_to_json

    reset = _reset_caches()
    reset()
    before = {key: len(obj) for key, obj in _module_containers().items()}
    f = make_field(3, 1)
    w = w_module(f)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(module_to_json(w)))
    modrep.omega_n(w, 2)
    modrep.omega_n(w, -1)
    constancy.level_types(modrep.omega_n(modrep.trivial_module(f, 2), 1), 2)
    constancy.check_constant(w, 2)
    constancy.generic_type(w)
    for argv in (
        ["omega", "--p", "3", "--rank", "2", "--n", "-2"],
        ["carlson", "--p", "3", "--rank", "2", "--degrees", "1,1"],
        ["check", "--module", str(path), "--max-ext", "2"],
    ):
        assert cli.execute(argv) in (0, 2), argv
    capsys.readouterr()
    after = _module_containers()
    grown = sorted(key for key, obj in after.items() if len(obj) > before.get(key, 0))
    assert ("cjt.modrep", "_module_cache") in grown
    assert all("cache" in attr.lower() for _, attr in grown), grown
    reset()
    assert all(len(after[key]) == 0 for key in grown)
    assert modrep._module_cache.weight == 0
