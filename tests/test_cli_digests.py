"""CLI stdout pinned byte for byte.

``perfbench/cli_digests.json`` records the exit code and the sha256 of the
stdout of each benchmark CLI command, keyed by its argument line.  Each
``@tag`` argument names a module file, built here the way the benchmark
builds it: Heller shifts of k at p = 3, r = 2, and the 13-dimensional W at
p = 5 and p = 7.

``tests/exact_rank2_digests.json`` pins ``cjt check --exact-rank2`` the
same way, on W at p = 3, 5 and 7, and on W (x) kE/rad^2 and V(3) at p = 5.

``tests/cli_output_digests.json`` pins outputs that neither table covers:
multi-digit codes and primes, a GF(9) tensor product (W and V(2) in a
diagonal basis diag(a^i), so that entries use both coefficients), a
``ranks-search`` witness over GF(9) (x^2 + y^2 has no zero over GF(3)),
``--pretty`` output and an error message with a non-ASCII character.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from cjt.cli import execute
from cjt.exactalg import make_field
from cjt.modrep import ModuleRep, omega_n, tensor, trivial_module
from cjt.serialize import module_to_json
from cjt.zoo import build_example, v_module, w_module

HERE = Path(__file__).resolve().parent
DIGESTS = json.loads((HERE.parent / "perfbench" / "cli_digests.json").read_text())
EXACT_DIGESTS = json.loads((HERE / "exact_rank2_digests.json").read_text())
OUTPUT_DIGESTS = json.loads((HERE / "cli_output_digests.json").read_text())
# x^2 + y^2 over GF(3), a 1 x 1 matrix of quadratic forms
SUM_OF_SQUARES = {
    "p": 3, "nvars": 2, "rows": 1, "cols": 1,
    "entries": [[{"exps": [2, 0], "coef": 1}, {"exps": [0, 2], "coef": 1}]],
}


def _diagonal_basis(m, a):
    """m in the basis diag(a^i): generator entry (i, j) times a^(i - j)."""
    f = m.field
    d = np.array([f.pow_array(np.int64(a), i) for i in range(m.dim)], dtype=np.int64)
    return ModuleRep(f, [f.mul(f.mul(g, d[:, None]), f.inv(d)[None, :]) for g in m.gens])


def write_input_files(workdir):
    """The module and polynomial-matrix files named by the ``@tag`` arguments."""
    f3, f5, f9 = make_field(3, 1), make_field(5, 1), make_field(3, 2)
    mods = {f"@omega_p3_r2_n{n}": omega_n(trivial_module(f3, 2, 1), n) for n in (-3, -2, -1, 1, 2, 3)}
    for p in (3, 5, 7):
        mods[f"@W_p{p}"] = build_example(make_field(p, 1), "W")
    mods["@W_tensor_kE_p5"] = tensor(build_example(f5, "W"), build_example(f5, "KE_MOD_I2", r=2))
    mods["@V3_p5"] = build_example(f5, "V", n=3)
    mods["@W_gf9"] = _diagonal_basis(w_module(f9), 3)
    mods["@V2_gf9"] = _diagonal_basis(v_module(f9, 2), 4)
    paths = {}
    for tag, m in mods.items():
        path = workdir / (tag[1:] + ".json")
        path.write_text(json.dumps(module_to_json(m), sort_keys=True))
        paths[tag] = str(path)
    path = workdir / "sum_of_squares_p3.json"
    path.write_text(json.dumps(SUM_OF_SQUARES))
    paths["@sum_of_squares_p3"] = str(path)
    return paths


@pytest.fixture(scope="module")
def module_files(tmp_path_factory):
    return write_input_files(tmp_path_factory.mktemp("cli_inputs"))


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


@pytest.mark.parametrize("command", sorted(OUTPUT_DIGESTS))
def test_output_digest(command, module_files):
    assert _run(command, module_files) == OUTPUT_DIGESTS[command]
