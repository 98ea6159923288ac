"""CLI stdout pinned byte for byte.

``perfbench/cli_digests.json`` records the exit code and the sha256 of the
stdout of each benchmark CLI command, keyed by its argument line.  Each
``@tag`` argument names a module file, built here the way the benchmark
builds it: Heller shifts of k at p = 3, r = 2, and the 13-dimensional W at
p = 5 and p = 7.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from cjt.cli import execute
from cjt.exactalg import make_field
from cjt.modrep import omega_n, trivial_module
from cjt.serialize import module_to_json
from cjt.zoo import build_example

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "cli_digests.json").read_text())


@pytest.fixture(scope="module")
def module_files(tmp_path_factory):
    f3 = make_field(3, 1)
    mods = {f"@omega_p3_r2_n{n}": omega_n(trivial_module(f3, 2, 1), n) for n in (-3, -2, -1, 1, 2, 3)}
    mods["@W_p5"] = build_example(make_field(5, 1), "W")
    mods["@W_p7"] = build_example(make_field(7, 1), "W")
    workdir = tmp_path_factory.mktemp("cli_inputs")
    paths = {}
    for tag, m in mods.items():
        path = workdir / (tag[1:] + ".json")
        path.write_text(json.dumps(module_to_json(m), sort_keys=True))
        paths[tag] = str(path)
    return paths


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_digest(command, module_files):
    argv = [module_files.get(a, a) for a in command.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = execute(argv)
    assert [code, hashlib.sha256(out.getvalue().encode()).hexdigest()] == DIGESTS[command]
