"""CLI stdout pinned byte for byte.

``perfbench/cli_digests.json`` records the exit code and the sha256 of the
stdout of each benchmark CLI command, keyed by its argument line.  Each
``@tag`` argument names a module file, built here the way the benchmark
builds it: Heller shifts of k at p = 3, r = 2, and the 13-dimensional W at
p = 5 and p = 7.

``tests/exact_rank2_digests.json`` pins ``cjt check --exact-rank2`` the
same way, on W at p = 3, 5 and 7, and on W (x) kE/rad^2 and V(3) at p = 5.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from cjt.cli import execute
from cjt.exactalg import make_field
from cjt.modrep import omega_n, tensor, trivial_module
from cjt.serialize import module_to_json
from cjt.zoo import build_example

HERE = Path(__file__).resolve().parent
DIGESTS = json.loads((HERE.parent / "perfbench" / "cli_digests.json").read_text())
EXACT_DIGESTS = json.loads((HERE / "exact_rank2_digests.json").read_text())


@pytest.fixture(scope="module")
def module_files(tmp_path_factory):
    f3, f5 = make_field(3, 1), make_field(5, 1)
    mods = {f"@omega_p3_r2_n{n}": omega_n(trivial_module(f3, 2, 1), n) for n in (-3, -2, -1, 1, 2, 3)}
    for p in (3, 5, 7):
        mods[f"@W_p{p}"] = build_example(make_field(p, 1), "W")
    mods["@W_tensor_kE_p5"] = tensor(build_example(f5, "W"), build_example(f5, "KE_MOD_I2", r=2))
    mods["@V3_p5"] = build_example(f5, "V", n=3)
    workdir = tmp_path_factory.mktemp("cli_inputs")
    paths = {}
    for tag, m in mods.items():
        path = workdir / (tag[1:] + ".json")
        path.write_text(json.dumps(module_to_json(m), sort_keys=True))
        paths[tag] = str(path)
    return paths


def _run(command, module_files):
    argv = [module_files.get(a, a) for a in command.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = execute(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_digest(command, module_files):
    assert _run(command, module_files) == DIGESTS[command]


@pytest.mark.parametrize("command", sorted(EXACT_DIGESTS))
def test_exact_rank2_stdout_digest(command, module_files):
    assert _run(command, module_files) == EXACT_DIGESTS[command]
