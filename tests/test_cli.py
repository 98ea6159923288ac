import json
import sys

import pytest
from test_carlson import LOCAL_ONLY

from cjt import PiPoint, jordan_at
from cjt.cli import execute, main
from cjt.exactalg import make_field
from cjt.serialize import (
    field_for,
    jordan_type_from_json,
    module_from_json,
    module_to_json,
    polymatrix_to_json,
)
from cjt.zoo import ke_mod_i2, random_module, w_module


@pytest.fixture
def w5_file(tmp_path):
    f = make_field(5, 1)
    path = tmp_path / "w5.json"
    path.write_text(json.dumps(module_to_json(w_module(f))))
    return str(path)


@pytest.fixture
def w7_file(tmp_path):
    f = make_field(7, 1)
    path = tmp_path / "w7.json"
    path.write_text(json.dumps(module_to_json(w_module(f))))
    return str(path)


def run(capsys, argv):
    code = execute(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestRoundTrips:
    def test_module_json(self):
        f = make_field(3, 1)
        m = ke_mod_i2(f, 2)
        back = module_from_json(module_to_json(m))
        assert back.dim == m.dim and back.r == m.r
        import numpy as np

        assert all(np.array_equal(a, b) for a, b in zip(back.gens, m.gens))

    def test_extension_module_json(self):
        import numpy as np

        f = make_field(2, 2)
        from cjt.modrep import ModuleRep

        a = np.array([[0, 2], [0, 0]], dtype=np.int64)  # code 2 = x
        m = ModuleRep(f, [a])
        data = module_to_json(m)
        assert data["generators"][0][1] == [0, 1]
        back = module_from_json(data)
        assert np.array_equal(back.gens[0], a)

    def test_field_for_without_modulus_is_make_field(self):
        assert field_for(5, 2) is make_field(5, 2)
        assert field_for(5, 2, make_field(5, 2).modulus) is make_field(5, 2)

    def test_non_default_modulus_round_trips(self):
        import numpy as np

        # x^2 + x + 2 is irreducible over GF(3); make_field picks x^2 + 1
        f = field_for(3, 2, [2, 1, 1])
        assert f.modulus == (2, 1, 1) and f != make_field(3, 2)
        m = random_module(f, 2, 5, seed=1)
        data = module_to_json(m)
        assert data["modulus"] == [2, 1, 1]
        back = module_from_json(json.loads(json.dumps(data)))
        assert back.field == f
        assert all(np.array_equal(a, b) for a, b in zip(back.gens, m.gens))

    def test_group_convention_roundtrip(self):
        from cjt.modrep import Convention

        f = make_field(3, 1)
        m = ke_mod_i2(f, 2, Convention.GROUP)
        back = module_from_json(module_to_json(m))
        assert back.convention is Convention.GROUP

    def test_carlson_payload_carries_class_data(self, capsys):
        code, out = run(
            capsys, ["carlson", "--p", "3", "--rank", "2", "--degrees", "2,2"]
        )
        assert code == 0
        assert out["classes"][0]["degree"] == 2
        assert out["classes"][0]["source"]["dim"] == 10
        assert "factor-1" in out["classes"][0]["tag"]


class TestCheckCommand:
    def test_constant_verdict_exit_zero(self, capsys, w5_file):
        code, out = run(capsys, ["check", "--module", w5_file, "--exact-rank2"])
        assert code == 0
        assert out["verdict"] == "CONSTANT_EXACT"
        assert out["type"] == "3[3] + 2[2]"

    def test_nonconstant_verdict_exit_two(self, capsys, w7_file):
        code, out = run(capsys, ["check", "--module", w7_file, "--exact-rank2"])
        assert code == 2
        assert out["verdict"] == "NOT_CONSTANT"
        assert out["type"] == "4[3] + 1[1]"
        points = {tuple(w["point"]["coords"]) for w in out["witnesses"]}
        assert points == {(1, 0), (0, 1)}
        assert {w["type"] for w in out["witnesses"]} == {"3[3] + 2[2]"}

    def test_malformed_module_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out = run(capsys, ["check", "--module", str(path)])
        assert code == 1 and "error" in out

    def test_invalid_module_exit_one(self, capsys, tmp_path):
        f = make_field(3, 1)
        data = module_to_json(ke_mod_i2(f, 2))
        # corrupt one generator so the pair no longer commutes
        data["generators"][0][5] = 1
        data["generators"][0][1] = 1
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(data))
        code, out = run(capsys, ["check", "--module", str(path)])
        assert code == 1 and "error" in out


class TestOtherCommands:
    def test_jordan_at_point(self, capsys, w7_file):
        code, out = run(capsys, ["jordan", "--module", w7_file, "--point", "1,1"])
        assert code == 0
        assert out["type"] == "4[3] + 1[1]"

    def test_jordan_over_a_field_too_large_for_log_tables(self, capsys, tmp_path):
        path = tmp_path / "ke2.json"
        path.write_text(json.dumps(module_to_json(ke_mod_i2(make_field(2, 1), 2))))
        code, out = run(capsys, ["jordan", "--module", str(path), "--point", "1,1", "--ext", "40"])
        assert code == 1
        assert "discrete-log tables" in out["error"] and "GF(2^40)" in out["error"]

    @pytest.mark.parametrize("modulus", [(2, 1, 1), (1, 0, 1)], ids=["other-modulus", "default-modulus"])
    def test_jordan_at_a_point_over_the_module_field(self, capsys, tmp_path, modulus):
        # a GF(9) module takes --ext 2 points over its own field, whatever
        # its modulus; code 4 is 1 + x, outside GF(3)
        f = field_for(3, 2, modulus)
        m = random_module(f, 2, 6, seed=4)
        path = tmp_path / "m9.json"
        path.write_text(json.dumps(module_to_json(m)))
        code, out = run(capsys, ["jordan", "--module", str(path), "--point", "1,4", "--ext", "2"])
        assert code == 0
        assert out["type"] == str(jordan_at(m, PiPoint(f, (1, 4))))

    def test_omega_dimension(self, capsys):
        code, out = run(capsys, ["omega", "--p", "5", "--rank", "2", "--n", "2"])
        assert code == 0
        assert out["dim"] == 26

    def test_zoo_emits_module(self, capsys):
        code, out = run(
            capsys, ["zoo", "--name", "V", "--p", "5", "--params", '{"n":3}']
        )
        assert code == 0
        assert out["dim"] == 7
        module_from_json(out)

    def test_tensor_type_only(self, capsys, tmp_path):
        f = make_field(5, 1)
        from cjt.modrep import jordan_block_module

        a = tmp_path / "a.json"
        a.write_text(json.dumps(module_to_json(jordan_block_module(f, 4))))
        code, out = run(
            capsys, ["tensor", "--a", str(a), "--b", str(a), "--type-only"]
        )
        assert code == 0
        assert out["type"] == "3[5] + 1[1]"

    def test_tensor_type_only_rank_two(self, capsys, tmp_path, w5_file):
        from cjt.constancy import generic_type
        from cjt.modrep import tensor

        f = make_field(5, 1)
        b = tmp_path / "ke.json"
        b.write_text(json.dumps(module_to_json(ke_mod_i2(f, 2))))
        code, out = run(capsys, ["tensor", "--a", w5_file, "--b", str(b), "--type-only"])
        assert code == 0
        want = generic_type(tensor(w_module(f), ke_mod_i2(f, 2)))
        assert out["type"] == str(want) == "3[4] + 5[3] + 5[2] + 2[1]"
        assert jordan_type_from_json(out) == want

    def test_tensor_module(self, capsys, tmp_path, w5_file):
        from cjt.modrep import tensor

        f = make_field(5, 1)
        b = tmp_path / "ke.json"
        b.write_text(json.dumps(module_to_json(ke_mod_i2(f, 2))))
        code, out = run(capsys, ["tensor", "--a", w5_file, "--b", str(b)])
        assert code == 0
        assert out == module_to_json(tensor(w_module(f), ke_mod_i2(f, 2)))
        assert out["dim"] == 39

    def test_jordan_with_tail(self, capsys, tmp_path):
        from cjt.constancy import PiPoint, jordan_at
        from cjt.zoo import random_module

        f = make_field(3, 1)
        m = random_module(f, 2, 6, 0)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(module_to_json(m)))
        argv = ["jordan", "--module", str(path), "--point", "1,0"]
        code, out = run(capsys, argv + ["--tail", '[{"exps":[0,2],"coef":1}]'])
        assert code == 0
        want = jordan_at(m, PiPoint(f, (1, 0), (((0, 2), 1),)))
        assert out["type"] == str(want) == "1[2] + 4[1]"
        # the tail changes the type at this point
        assert run(capsys, argv)[1]["type"] == "6[1]"

    def test_endotrivial_exit_codes(self, capsys, tmp_path, w5_file):
        code, out = run(capsys, ["endotrivial", "--module", w5_file])
        assert code == 2 and out["endotrivial"] is False
        f = make_field(3, 1)
        from cjt.syzygy import omega_k

        path = tmp_path / "omega1.json"
        path.write_text(json.dumps(module_to_json(omega_k(f, 2, 1))))
        code, out = run(capsys, ["endotrivial", "--module", str(path)])
        assert code == 0 and out["endotrivial"] is True

    @pytest.mark.parametrize("name", sorted(LOCAL_ONLY))
    def test_endotrivial_local_pass_exits_two(self, capsys, tmp_path, name):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(LOCAL_ONLY[name]))
        code, out = run(capsys, ["endotrivial", "--module", str(path)])
        assert code == 2 and out["endotrivial"] is False
        assert out["evidence"]["global"] is False and out["evidence"]["local"] is True

    def test_max_ext_below_one_is_an_error(self, capsys, w5_file):
        for argv in (
            ["carlson", "--p", "3", "--rank", "2", "--degrees", "1,1", "--max-ext", "0"],
            ["endotrivial", "--module", w5_file, "--max-ext", "0"],
            ["check", "--module", w5_file, "--max-ext", "0"],
        ):
            code, out = run(capsys, argv)
            assert code == 1
            assert out == {"error": "max_e must be >= 1"}

    def test_rank_below_one_is_an_error(self, capsys):
        for rank in ("0", "-1"):
            code, out = run(capsys, ["carlson", "--p", "3", "--rank", rank, "--degrees", "1,1"])
            assert code == 1
            assert out == {"error": "--rank must be >= 1"}

    def test_module_above_the_soft_cap_is_an_error(self, capsys, monkeypatch, tmp_path):
        from cjt import modrep

        path = tmp_path / "dim4.json"
        path.write_text(json.dumps(module_to_json(ke_mod_i2(make_field(3, 1), 3))))
        monkeypatch.setattr(modrep, "DIM_SOFT_CAP", 3)
        code, out = run(capsys, ["jordan", "--module", str(path), "--point", "1,0,0"])
        assert code == 1
        assert list(out) == ["error"] and "soft cap 3" in out["error"]

    def test_carlson_command(self, capsys):
        code, out = run(
            capsys, ["carlson", "--p", "3", "--rank", "2", "--degrees", "2,2"]
        )
        assert code == 0
        assert out["module"]["dim"] == 19
        assert out["hypothesis"]["holds_everywhere"] is True

    def test_ranks_search_found_and_not_found(self, capsys, tmp_path):
        from cjt.polymat import HomPoly, PolyMatrix

        p = 5
        x1, x2, x3 = (HomPoly.variable(p, 3, i) for i in range(3))
        m = PolyMatrix(p, 3, [[x1, x2], [x2, x3], [x3, x1]])
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(polymatrix_to_json(m)))
        code, out = run(
            capsys, ["ranks-search", "--poly", str(path), "--minor", "2", "--max-ext", "4"]
        )
        assert code == 0
        assert out["found"] is True and out["point"] == [1, 1, 1]

        m2 = PolyMatrix(p, 2, [[HomPoly.variable(p, 2, 0)], [HomPoly.variable(p, 2, 1)]])
        path2 = tmp_path / "poly2.json"
        path2.write_text(json.dumps(polymatrix_to_json(m2)))
        code, out = run(
            capsys, ["ranks-search", "--poly", str(path2), "--minor", "1", "--max-ext", "2"]
        )
        assert code == 2
        assert out["found"] is False and out["extensions_tested"] == [1, 2]

    def test_gamma_command(self, capsys, w7_file):
        code, out = run(capsys, ["gamma", "--module", w7_file, "--ext", "1"])
        assert code == 0
        assert out["generic"] == "4[3] + 1[1]"
        assert [pt["point"]["coords"] for pt in out["points"]] == [[0, 1], [1, 0]]

    def test_byte_identical_output(self, capsys, w5_file):
        execute(["check", "--module", w5_file, "--exact-rank2"])
        first = capsys.readouterr().out
        execute(["check", "--module", w5_file, "--exact-rank2"])
        second = capsys.readouterr().out
        assert first == second


class TestOptions:
    def test_cjt_jobs_environment_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("CJT_JOBS", "auto")
        code, out = run(capsys, ["zoo", "--p", "3", "--name", "W"])
        assert code == 0 and out["dim"] == 13

    @pytest.mark.parametrize("flag", ["--seed", "--jobs"])
    def test_removed_flags_are_usage_errors(self, capsys, flag):
        assert execute([flag, "2", "zoo", "--p", "3", "--name", "W"]) == 1
        assert capsys.readouterr().out == ""


    def test_pretty_output(self, capsys, w7_file):
        argv = ["jordan", "--module", w7_file, "--point", "1,1"]
        assert execute(["--pretty"] + argv) == 0
        pretty = capsys.readouterr().out
        code, compact = run(capsys, argv)
        assert pretty == json.dumps(compact, indent=2, sort_keys=True) + "\n"
        assert pretty.count("\n") > 1


# argv of each usage error; "@w5"/"@w7" name the module fixtures and "@poly"
# a polynomial-matrix file with no entries
USAGE_ERRORS = {
    "no such file": ["check", "--module", "@missing"],
    "malformed point JSON": ["jordan", "--module", "@w7", "--point", "1,]"],
    "wrong coordinate count": ["jordan", "--module", "@w7", "--point", "1,1,1"],
    "null coordinate": ["jordan", "--module", "@w7", "--point", "null,1"],
    "bad tail": ["jordan", "--module", "@w7", "--point", "1,1", "--tail", '[{"coef":1}]'],
    "no degrees": ["carlson", "--p", "3", "--rank", "2", "--degrees", ""],
    "degree outside 1, 2": ["carlson", "--p", "3", "--rank", "2", "--degrees", "1,3"],
    "malformed polynomial matrix": ["ranks-search", "--poly", "@poly", "--minor", "1"],
    "malformed params": ["zoo", "--name", "W", "--p", "5", "--params", "{r:"],
    "unknown fixture": ["zoo", "--name", "NOPE", "--p", "5"],
    "tensor over different p": ["tensor", "--a", "@w5", "--b", "@w7"],
}


class TestUsageErrors:
    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_prints_one_error_object(self, case, capsys, tmp_path, w5_file, w7_file):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"p": 3, "nvars": 2, "rows": 1, "cols": 1}))
        files = {"@w5": w5_file, "@w7": w7_file, "@poly": str(poly), "@missing": str(tmp_path / "none.json")}
        assert execute([files.get(a, a) for a in USAGE_ERRORS[case]]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        out = json.loads(lines[0])
        assert list(out) == ["error"] and out["error"]

    def test_point_coordinates_are_read_as_codes_or_coefficient_lists(self, capsys, w5_file):
        # over GF(25) the code 6 is 1 + x, the coefficient list [1, 1]
        outs = [
            run(capsys, ["jordan", "--module", w5_file, "--point", point, "--ext", "2"])
            for point in ("6,1", "[1,1],1")
        ]
        assert outs[0] == outs[1] and outs[0][0] == 0

    @pytest.mark.parametrize("message", ["", "Unable to allocate 27.8 TiB"], ids=["bare", "numpy"])
    def test_memory_error_prints_one_error_object(self, message, capsys, monkeypatch):
        from cjt import cli

        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "omega_k", exhausted)
        code, out = run(capsys, ["omega", "--p", "5", "--rank", "9", "--n", "1"])
        assert code == 1 and out == {"error": message or "MemoryError"}


class TestSingleSweeps:
    def test_carlson_builds_the_kernel_once(self, capsys, monkeypatch):
        from cjt import carlson

        calls = []
        original = carlson.kernel_of_hom_matrix

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(carlson, "kernel_of_hom_matrix", counted)
        code, out = run(capsys, ["carlson", "--p", "3", "--rank", "2", "--degrees", "2,2"])
        assert code == 0 and out["module"]["dim"] == 19
        assert len(calls) == 1

    def test_gamma_sweeps_its_level_once(self, capsys, monkeypatch, w7_file):
        from cjt import constancy

        levels = []
        original = constancy.level_types

        def counted(m, e):
            levels.append(e)
            return original(m, e)

        monkeypatch.setattr(constancy, "level_types", counted)
        code, out = run(capsys, ["gamma", "--module", w7_file, "--ext", "2"])
        assert code == 0 and levels == [2]
        f = make_field(7, 1)
        from cjt.constancy import pi_support

        assert out["support"] == [q.serialize() for q in pi_support(w_module(f), 2)]


class TestJordanTypeJson:
    def test_roundtrip(self):
        from cjt.jordan import JordanType

        t = JordanType(5, (1, 0, 3, 0, 0))
        assert jordan_type_from_json({"p": 5, "counts": [1, 0, 3, 0, 0]}) == t
        assert str(t) == "3[3] + 1[1]"


def test_console_entry_point_exits_with_the_command_code(capsys, monkeypatch, w7_file):
    monkeypatch.setattr(sys, "argv", ["cjt", "check", "--module", w7_file, "--exact-rank2"])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "NOT_CONSTANT"
