"""Command-line behavior: exit codes, reports, file round-trips."""

import json
import time

import pytest

from homyb import catalog_get, validate, verify_entry
from homyb.cli import _FLAGS, main
from homyb.constructions import CHECKS
from homyb.files import report_to_dict, structure_from_dict, structure_to_dict


@pytest.fixture()
def export(tmp_path, capsys):
    def _export(entry_id):
        path = tmp_path / f"{entry_id}.json"
        assert main(["catalog", "export", entry_id, "--out", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    return _export


class TestAxioms:
    def test_valid_structure_exits_zero(self, export, capsys):
        assert main(["axioms", export("ex2.3")]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_broken_structure_exits_one_with_witness(self, export, capsys):
        assert main(["axioms", export("ex2.5-verbatim")]) == 1
        out = capsys.readouterr().out
        assert "HA2-assoc: FAIL" in out
        assert "HA2(g,g,x)" in out

    def test_shape_error_exits_two(self, tmp_path, export, capsys):
        doc = json.loads(open(export("ex2.3")).read())
        doc["mult"] = doc["mult"][:2]  # 2 rows where dim = 3
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(doc))
        assert main(["axioms", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "mult: expected 3" in err

    @pytest.mark.parametrize("key,message", [
        ("dim", "dim: expected a positive integer"),
        ("format_version", "format_version: unsupported value True"),
    ])
    def test_boolean_integer_field_exits_two(self, tmp_path, capsys, key, message):
        # `true` would pass as the integer 1, which fits this one-dimensional file
        doc = {
            "format_version": 1, "kind": "hom-algebra", "dim": 1, "basis": ["e"],
            "parameters": [], "alpha": [["1"]], "unit": ["1"], "mult": [[["1"]]],
        }
        path = tmp_path / "one-dim.json"
        path.write_text(json.dumps(doc))
        assert main(["axioms", str(path)]) == 0
        doc[key] = True
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["axioms", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "expr", ["(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1"], ids=["parentheses", "minus"]
    )
    def test_deeply_nested_expression_exits_two(self, tmp_path, capsys, expr):
        doc = {
            "format_version": 1, "kind": "hom-algebra", "dim": 1, "basis": ["e"],
            "parameters": [], "alpha": [["1"]], "unit": [expr], "mult": [[["1"]]],
        }
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc))
        assert main(["axioms", str(path)]) == 2
        assert "unit[0]: expression nested deeper than" in capsys.readouterr().err

    def test_boolean_comult_index_exits_two(self, tmp_path, export, capsys):
        doc = json.loads(open(export("ex3.3")).read())
        j, k, expr = doc["comult"][2][0]
        assert (j, k) == (1, 1)
        doc["comult"][2][0] = [True, k, expr]  # would read as index 1
        bad = tmp_path / "bool-index.json"
        bad.write_text(json.dumps(doc))
        assert main(["axioms", str(bad)]) == 2
        assert "comult[2][0]: indices out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("parameters, message", [
        (["lam", "1x"], "parameters: invalid parameter name '1x'"),
        (["lam", "lam"], "parameters: duplicate parameter names in ('lam', 'lam')"),
    ], ids=["invalid", "duplicate"])
    def test_bad_parameter_list_exits_two(self, export, tmp_path, capsys, parameters, message):
        doc = json.loads(open(export("ex2.3")).read())
        doc["parameters"] = parameters
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        assert main(["axioms", str(path)]) == 2
        assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"

    def test_missing_file_exits_two(self, capsys):
        assert main(["axioms", "/no/such/file.json"]) == 2

    def test_json_report(self, export, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["axioms", export("ex4.3"), "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["holds"] is True
        assert doc["check"] == "hom-lie-axioms"
        assert "elapsed_ms" in doc


class TestBuild:
    def test_build_writes_square_matrix(self, export, tmp_path, capsys):
        out = tmp_path / "op.json"
        code = main(
            ["build", export("ex2.3"), "--construction", "thm2.1",
             "--lambda", "lam", "--nu", "nu", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "operator"
        assert len(doc["matrix"]) == 9
        assert all(len(row) == 9 for row in doc["matrix"])

    def test_build_warns_when_u_moves_under_alpha(self, export, tmp_path, capsys):
        out = tmp_path / "op.json"
        code = main(
            ["build", export("ex4.3"), "--construction", "thm4.1",
             "--u", "0,0,1", "--out", str(out)]
        )
        assert code == 0
        assert "alpha-invariant" in capsys.readouterr().err

    def test_system_without_out_goes_to_stdout(self, export, capsys):
        assert main(["build", export("ex3.3"), "--construction", "thm5.3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "{"
        doc = json.loads(out)
        assert doc["kind"] == "operator-system"
        assert [key for key in ("W", "Z", "X") if key in doc] == ["W", "Z", "X"]

    def test_short_u_exits_two(self, export, capsys):
        assert main(["build", export("ex4.3"), "--construction", "thm4.1", "--u", "0,0"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "error: --u: expected 3 comma-separated coordinates"

    def test_kind_mismatch_exits_two(self, export, capsys):
        assert main(["build", export("ex3.3"), "--construction", "thm2.1"]) == 2
        assert "requires a hom-algebra" in capsys.readouterr().err

    def test_strict_inverse_build_refuses_non_involutive(self, export, capsys):
        assert main(["build", export("ex2.3"), "--construction", "cor2.2"]) == 2
        assert "involutive" in capsys.readouterr().err

    def test_operator_round_trip_through_verify(self, export, tmp_path, capsys):
        op_path = tmp_path / "op.json"
        structure = export("ex2.3")
        assert main(["build", structure, "--construction", "thm2.1", "--out", str(op_path)]) == 0
        assert main(["verify", structure, "--operator", str(op_path), "--check", "hybe"]) == 0
        assert main(["verify", structure, "--operator", str(op_path), "--check", "alpha"]) == 0

    def test_an_operator_over_fewer_parameters_is_widened_to_the_structure(self, tmp_path, capsys):
        # built at λ = 2, ν = 3 the operator has no parameters; verify's default
        # --lambda lam and --nu nu add two to the structure, so the matrix is extended
        doc = {"format_version": 1, "kind": "hom-algebra", "name": "one", "dim": 1, "basis": ["e"],
               "parameters": [], "alpha": [["1"]], "unit": ["1"], "mult": [[["1"]]]}
        structure, op_path = tmp_path / "one.json", tmp_path / "op.json"
        structure.write_text(json.dumps(doc))
        assert main(["build", str(structure), "--construction", "thm2.1", "--lambda", "2", "--nu", "3",
                     "--out", str(op_path)]) == 0
        assert json.loads(op_path.read_text())["parameters"] == []
        for check, name in (("hybe", "hybe"), ("alpha", "alpha-commute")):
            capsys.readouterr()
            assert main(["verify", str(structure), "--operator", str(op_path), "--check", check]) == 0
            assert capsys.readouterr().out.splitlines() == [f"{name}: PASS"]

    def test_report_on_an_operator_file_takes_its_header(self, export, tmp_path, capsys):
        # nothing is built when --operator is given, so the report's metadata
        # takes the construction, lambda and nu from the file's header
        op_path, report_path = tmp_path / "op.json", tmp_path / "report.json"
        structure = export("ex2.3")
        argv = ["--construction", "thm2.1", "--lambda", "2", "--nu", "lam", "--out", str(op_path)]
        assert main(["build", structure, *argv]) == 0
        assert main(["verify", structure, "--operator", str(op_path), "--check", "hybe",
                     "--json", str(report_path)]) == 0
        meta = json.loads(report_path.read_text())["metadata"]
        assert meta == {"witness_count": "0", "structure": "ex2.3", "parameters": "l,lam,nu",
                        "lambda": "2", "nu": "lam", "construction": "thm2.1"}

    @pytest.mark.parametrize("check", ["alpha", "hybe"])
    @pytest.mark.parametrize("entry_id, flag, value", [
        ("ex2.3", "--construction", "thm2.4"),
        ("ex2.3", "--lambda", "3"),
        ("ex2.3", "--nu", "5"),
        ("ex4.3", "--u", "0,0,1"),
    ])
    def test_a_building_flag_beside_an_operator_file_exits_two(self, export, tmp_path, capsys,
                                                               check, entry_id, flag, value):
        # the operator comes from the file, so a flag that would build one is refused, not ignored
        structure, op_path = export(entry_id), tmp_path / "op.json"
        construction = {"ex2.3": "thm2.1", "ex4.3": "thm4.1"}[entry_id]
        build = ["--construction", construction] + ["--u", "0,0,1"] * (entry_id == "ex4.3")
        assert main(["build", structure, *build, "--out", str(op_path)]) == 0
        capsys.readouterr()
        assert main(["verify", structure, "--operator", str(op_path), "--check", check, flag, value]) == 2
        assert capsys.readouterr() == ("", f"error: {flag} is not read beside --operator, "
                                           f"whose file names the operator it holds\n")

    @pytest.mark.parametrize("key,value,message", [
        ("parameters", [1], "parameters: expected strings"),
        ("format_version", 99, "format_version: unsupported value 99"),
    ])
    def test_malformed_operator_file_exits_two(self, export, tmp_path, capsys, key, value, message):
        op_path = tmp_path / "op.json"
        structure = export("ex2.3")
        assert main(["build", structure, "--construction", "thm2.1", "--out", str(op_path)]) == 0
        doc = json.loads(op_path.read_text())
        doc[key] = value
        op_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", structure, "--operator", str(op_path), "--check", "hybe"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("lambda", "x", "lambda: unknown parameter 'x'"),
        ("lambda", None, "lambda: expected an expression string"),
        ("nu", True, "nu: expected an expression string"),
        ("nu", "lam +", "nu: unexpected end of input"),
    ], ids=["unknown-parameter", "missing", "not-a-string", "not-an-expression"])
    def test_operator_header_lambda_and_nu_are_expressions_over_its_parameters(
        self, export, tmp_path, capsys, key, value, message
    ):
        # the report's metadata takes them from the header, so they are read as the matrix is
        op_path = tmp_path / "op.json"
        structure = export("ex2.3")
        assert main(["build", structure, "--construction", "thm2.1", "--out", str(op_path)]) == 0
        doc = json.loads(op_path.read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        op_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", structure, "--operator", str(op_path), "--check", "hybe",
                     "--json", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "report.json").exists()

    def test_operator_of_another_structure_exits_two(self, export, tmp_path, capsys):
        # same dimension, so only the header tells the two structures apart
        op_path = tmp_path / "op.json"
        argv = ["--construction", "thm4.1", "--u", "0,0,1", "--out", str(op_path)]
        assert main(["build", export("ex4.3"), *argv]) == 0
        structure = export("ex2.3")
        capsys.readouterr()
        assert main(["verify", structure, "--operator", str(op_path), "--check", "hybe"]) == 2
        assert capsys.readouterr().err == (
            f"error: {op_path}: an operator of construction 'thm4.1' on structure 'ex4.3' "
            f"does not fit {structure}, a hom-algebra named 'ex2.3'\n"
        )

    @pytest.mark.parametrize("key,value", [
        ("construction", "thm3.1"), ("construction", "thm5.2"), ("construction", ["thm2.1"]),
        ("construction", None), ("structure", None),
    ], ids=["coalgebra", "system", "list", "no-construction", "no-structure"])
    def test_operator_header_must_match_the_structure(self, export, tmp_path, capsys, key, value):
        op_path = tmp_path / "op.json"
        structure = export("ex2.3")
        assert main(["build", structure, "--construction", "thm2.1", "--out", str(op_path)]) == 0
        doc = json.loads(op_path.read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        op_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", structure, "--operator", str(op_path), "--check", "alpha"]) == 2
        header = {"structure": "ex2.3", "construction": "thm2.1", key: value}
        assert capsys.readouterr().err == (
            f"error: {op_path}: an operator of construction {header['construction']!r} on "
            f"structure {header['structure']!r} does not fit {structure}, a hom-algebra named 'ex2.3'\n"
        )

    def test_first_bad_cell_of_an_operator_table_is_named(self, export, tmp_path, capsys):
        # distinct expressions are parsed once per table; a bad one is still
        # reported at its first cell in row-major order
        op_path = tmp_path / "op.json"
        structure = export("ex2.3")
        assert main(["build", structure, "--construction", "thm2.1", "--out", str(op_path)]) == 0
        doc = json.loads(op_path.read_text())
        doc["matrix"][1][4] = doc["matrix"][3][0] = "lam*(nu"
        doc["matrix"][2][2] = "2 +"
        op_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", structure, "--operator", str(op_path), "--check", "hybe"]) == 2
        assert capsys.readouterr().err == "error: matrix[1][4]: expected ')' (at position 7)\n"

    @pytest.mark.parametrize("cell", [["1"], {"1": "1"}, 1, 0.5], ids=["array", "object", "int", "float"])
    def test_a_cell_that_is_not_a_string_is_named(self, export, tmp_path, capsys, cell):
        # the bad cells come after cells already parsed, so a lookup among the
        # parsed expressions sees them first; an array or object cannot be hashed
        op_path = tmp_path / "op.json"
        structure = export("ex2.3")
        assert main(["build", structure, "--construction", "thm2.1", "--out", str(op_path)]) == 0
        doc = json.loads(op_path.read_text())
        doc["matrix"][8][7] = cell
        op_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", structure, "--operator", str(op_path), "--check", "hybe"]) == 2
        assert capsys.readouterr().err == "error: matrix[8][7]: expected an expression string\n"
        for key, path in (("alpha", (2, 2)), ("unit", (2,)), ("mult", (2, 1, 0))):
            doc = json.loads(open(structure).read())
            *outer, last = path
            table = doc[key]
            for index in outer:
                table = table[index]
            table[last] = cell
            bad = tmp_path / f"{key}.json"
            bad.write_text(json.dumps(doc))
            assert main(["axioms", str(bad)]) == 2
            where = "".join(f"[{index}]" for index in path)
            assert capsys.readouterr().err == f"error: {key}{where}: expected an expression string\n"

    def test_build_on_a_structure_failing_its_axioms_names_them(self, export, tmp_path, capsys):
        doc = json.loads(open(export("ex4.3")).read())
        doc["bracket"][2][2] = ["1", "0", "0"]  # [e3,e3] = e1 breaks the axioms
        path = tmp_path / "broken-lie.json"
        path.write_text(json.dumps(doc))
        code = main(["build", str(path), "--construction", "thm4.1", "--u", "0,0,1"])
        assert code == 2
        failing = [s.check_name for s in validate(structure_from_dict(doc), True).subreports
                   if not s.holds]
        (error,) = capsys.readouterr().err.splitlines()
        assert error == f"error: structure {doc['name']} fails axioms ({', '.join(failing)})"


class TestVerify:
    def test_braid_check_passes_on_3dim_algebra(self, export, capsys):
        code = main(
            ["verify", export("ex2.3"), "--construction", "thm2.1", "--check", "hybe"]
        )
        assert code == 0
        assert "hybe: PASS" in capsys.readouterr().out

    def test_inverse_check_fails_with_symbolic_twist_parameter(self, export, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            ["verify", export("ex2.3"), "--construction", "cor2.2",
             "--check", "inverse", "--json", str(report)]
        )
        assert code == 1
        doc = json.loads(report.read_text())
        assert doc["holds"] is False
        residuals = " ".join(w["residual"] for sub in doc["subreports"] for w in sub["witnesses"])
        assert "l^2" in residuals

    def test_system_check_passes(self, export, capsys):
        code = main(
            ["verify", export("ex2.3"), "--construction", "thm5.2", "--check", "system"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[W,W,W]: PASS" in out
        assert "[X,X,Z]: PASS" in out

    def test_braid_check_fails_on_lie_example(self, export, capsys):
        code = main(
            ["verify", export("ex4.3"), "--construction", "thm4.1",
             "--u", "0,0,1", "--check", "hybe"]
        )
        assert code == 1

    def test_lie_inverse_pair_passes(self, export, capsys):
        code = main(
            ["verify", export("ex4.3"), "--construction", "cor4.2",
             "--u", "0,0,1", "--check", "inverse"]
        )
        assert code == 0

    def test_chybe_check(self, export, capsys):
        structure = export("ex4.3")
        code = main(
            ["verify", structure, "--check", "chybe",
             "--x", "1,0,0", "--y", "0,1,0", "--u", "0,0,1", "--m", "0", "--n", "0"]
        )
        assert code == 0
        code = main(
            ["verify", structure, "--check", "chybe",
             "--x", "1,0,0", "--y", "0,1,0", "--u", "0,0,1", "--m", "-2", "--n", "-1"]
        )
        assert code == 0

    def test_concrete_parameter_values(self, export, capsys):
        # verification at lambda = 2, nu = 1/3 instead of symbols
        code = main(
            ["verify", export("ex2.3"), "--construction", "thm2.1", "--check", "hybe",
             "--lambda", "2", "--nu", "1/3"]
        )
        assert code == 0

    def test_undeclared_lambda_name_extends_the_parameters(self, export, capsys):
        # the file declares l, lam and nu; t is added for this run only
        code = main(
            ["verify", export("ex2.3"), "--construction", "thm2.1", "--check", "hybe",
             "--lambda", "t"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "hybe: PASS"

    @pytest.mark.parametrize("entry_id, argv, message", [
        ("ex2.3", ["--check", "hybe", "--construction", "thm5.2"],
         "--check hybe needs a single-operator construction"),
        ("ex2.3", ["--check", "inverse", "--construction", "thm2.1"],
         "--check inverse needs --construction among "
         "cor2.2, cor3.2, cor4.2, thm2.4-inverse, thm3.4-inverse"),
        ("ex2.3", ["--check", "system", "--construction", "thm2.1"],
         "--check system needs --construction thm5.2 or thm5.3"),
        ("ex2.3", ["--check", "chybe"], "--check chybe requires a hom-lie structure"),
        ("ex4.3", ["--check", "chybe", "--x", "1,0,0"], "--check chybe needs --x, --y and --u"),
    ], ids=["hybe-system", "inverse", "system", "chybe-algebra", "chybe-missing"])
    def test_usage_error_exits_two(self, export, capsys, entry_id, argv, message):
        assert main(["verify", export(entry_id), *argv]) == 2
        assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"

    @pytest.mark.parametrize("entry_id, build, argv", [
        ("ex2.3", ["thm2.1"], ["--check", "system", "--construction", "thm5.2"]),
        ("ex2.3", ["thm2.1"], ["--check", "inverse", "--construction", "thm2.4-inverse"]),
        ("ex4.3", ["thm4.1", "--u", "0,0,1"],
         ["--check", "chybe", "--x", "1,0,0", "--y", "0,1,0", "--u", "0,0,1"]),
    ], ids=["system", "inverse", "chybe"])
    def test_operator_on_a_check_that_does_not_read_it_exits_two(self, export, tmp_path, capsys,
                                                                 entry_id, build, argv):
        # an operator file that fits the structure, or none at all: either way the check would
        # run on what it builds itself, so --operator is refused rather than ignored
        structure, op_path = export(entry_id), tmp_path / "op.json"
        assert main(["build", structure, "--construction", *build, "--out", str(op_path)]) == 0
        for path in (str(op_path), str(tmp_path / "nonexistent.json")):
            capsys.readouterr()
            assert main(["verify", structure, *argv, "--operator", path]) == 2
            assert capsys.readouterr() == ("", f"error: --operator is read only by --check alpha and hybe, "
                                               f"not by --check {argv[1]}\n")

    @pytest.mark.parametrize("construction, check, nu, recorded", [
        ("cor4.2", "inverse", "nu", "1"),
        ("cor4.2", "hybe", "nu", "1"),
        ("cor4.2", "hybe", "1", "1"),
        ("thm4.1", "hybe", "nu*2", "nu*2"),
    ])
    def test_report_records_the_nu_the_operators_are_built_at(self, export, tmp_path, capsys,
                                                              construction, check, nu, recorded):
        # cor4.2 is built at ν = 1, as its operator file says; otherwise --nu is recorded as given
        structure, op_path, report_path = export("ex4.3"), tmp_path / "op.json", tmp_path / "report.json"
        argv = ["--construction", construction, "--u", "0,0,1", "--nu", nu]
        assert main(["build", structure, *argv, "--out", str(op_path)]) == 0
        main(["verify", structure, *argv, "--check", check, "--json", str(report_path)])
        assert json.loads(report_path.read_text())["metadata"]["nu"] == recorded
        if construction == "cor4.2":
            assert json.loads(op_path.read_text())["nu"] == recorded

    def test_chybe_report_records_no_lambda_nu_or_construction(self, export, tmp_path, capsys):
        # r = [x, y]⊗u is built from --x, --y, --u, --m and --n, so the defaults
        # of the arguments that build operators are not recorded as what chybe checked
        report_path = tmp_path / "r.json"
        assert main(["verify", export("ex4.3"), "--check", "chybe", "--x", "1,0,0", "--y", "0,1,0",
                     "--u", "0,0,1", "--json", str(report_path)]) == 0
        meta = json.loads(report_path.read_text())["metadata"]
        assert (meta["structure"], meta["parameters"]) == ("ex4.3", "lam,nu")
        assert not {"lambda", "nu", "construction"} & meta.keys()

    @pytest.mark.parametrize("entry_id, argv, message", [
        ("ex4.3", ["--check", "chybe", "--x", "1,0,0", "--y", "0,1,0", "--u", "0,0,1",
                   "--lambda", "5", "--construction", "thm4.1"],
         "--construction is read only by --check alpha, hybe, inverse and system, not by --check chybe"),
        ("ex2.3", ["--check", "hybe", "--construction", "thm2.1", "--x", "1,0,0", "--m", "3"],
         "--x is read only by --check chybe, not by --check hybe"),
        ("ex2.3", ["--check", "system", "--construction", "thm5.2", "--u", "1,0,0"],
         "--u is read only by --check alpha, hybe, inverse and chybe, not by --check system"),
        ("ex2.3", ["--check", "hybe", "--construction", "thm2.1", "--u", "1,0,0"],
         "--u is read only by the Lie constructions and --check chybe, not by --construction thm2.1"),
    ], ids=["chybe-construction", "hybe-x", "system-u", "algebra-u"])
    def test_a_flag_the_check_does_not_read_exits_two(self, export, capsys, entry_id, argv, message):
        # the check would run without the flag, so it is refused rather than ignored
        assert main(["verify", export(entry_id), *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("check", CHECKS)
    def test_every_flag_is_refused_where_its_check_does_not_read_it(self, export, capsys, check):
        # a flag given at its default value is still given, and refused
        values = {"--construction": "thm2.1", "--operator": "op.json", "--m": "0", "--n": "0"}
        unread = [flag for flag in _FLAGS if flag not in CHECKS[check].reads]
        assert unread
        for flag in unread:
            argv = ["verify", export("ex2.3"), "--check", check, flag, values.get(flag, "lam")]
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {flag} is read only by --check ")

    def test_negative_twist_power_on_a_non_involutive_alpha_exits_two(
        self, export, tmp_path, capsys
    ):
        doc = json.loads(open(export("ex4.3")).read())
        doc["alpha"][0][0] = "2"
        path = tmp_path / "stretched.json"
        path.write_text(json.dumps(doc))
        code = main(
            ["verify", str(path), "--check", "chybe",
             "--x", "1,0,0", "--y", "0,1,0", "--u", "0,0,1", "--m", "-1"]
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            "error: negative twist powers need an invertible alpha; this alpha is not involutive"
        )

    def test_chybe_refuses_a_twisted_u_that_is_not_central(self, tmp_path, capsys):
        # Heisenberg [p,q] = z with α(z) = p: the axioms hold, as α need not be
        # multiplicative, and u = z is central but α(u) = p is not
        zero, z = ["0", "0", "0"], ["0", "0", "1"]
        doc = {"format_version": 1, "kind": "hom-lie", "name": "heisenberg", "dim": 3,
               "basis": ["p", "q", "z"], "parameters": [],
               "alpha": [["1", "0", "1"], ["0", "1", "0"], ["0", "0", "0"]],
               "bracket": [[zero, z, zero], [["0", "0", "-1"], zero, zero], [zero, zero, zero]]}
        path = tmp_path / "heisenberg.json"
        path.write_text(json.dumps(doc))
        assert main(["axioms", str(path)]) == 0
        code = main(["verify", str(path), "--check", "chybe",
                     "--x", "1,0,0", "--y", "0,1,0", "--u", "0,0,1", "--n", "1"])
        assert code == 2
        assert "error: alpha^1(u) is not central" in capsys.readouterr().err

    def test_a_symbolic_denominator_exits_two(self, export, capsys):
        code = main(["verify", export("ex2.3"), "--construction", "thm2.1", "--check", "hybe",
                     "--lambda", "1/x"])
        assert code == 2
        assert "'/' requires an integer literal denominator" in capsys.readouterr().err

    def test_check_without_construction_exits_two(self, export, capsys):
        assert main(["verify", export("ex2.3"), "--check", "hybe"]) == 2

    def test_non_monomial_lambda_exits_two(self, export, capsys):
        # verify builds unchecked, but 1/(lam + nu) does not exist in the Laurent ring
        code = main(
            ["verify", export("ex2.3"), "--check", "inverse", "--construction", "cor2.2",
             "--lambda", "lam+nu"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: lambda = nu + lam is not an invertible (monomial) scalar")

    def test_warnings_are_printed_when_the_command_then_fails(self, export, tmp_path, capsys):
        doc = json.loads(open(export("ex4.3")).read())
        doc["bracket"][2][2] = ["1", "0", "0"]  # [e3,e3] = e1 breaks the axioms
        path = tmp_path / "broken-lie.json"
        path.write_text(json.dumps(doc))
        code = main(
            ["verify", str(path), "--check", "hybe", "--construction", "thm4.1",
             "--u", "1,0,0"]
        )
        assert code == 2
        warning, error = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: building on a structure that fails axioms")
        assert error.startswith("error: u is not central")


class TestFrontEndsAgree:
    """`homyb verify` on an exported entry reports what `verify_entry` reports for it."""

    U = ["--u", "0,0,1"]
    CASES = {
        "ex2.3 thm2.1 hybe": ("ex2.3", ["--construction", "thm2.1", "--check", "hybe"], "hybe"),
        "ex2.3 thm2.1 alpha": ("ex2.3", ["--construction", "thm2.1", "--check", "alpha"],
                               "alpha-commute"),
        "ex2.3 thm5.2 system": ("ex2.3", ["--construction", "thm5.2", "--check", "system"],
                                "system"),
        "ex2.3 cor2.2 inverse": ("ex2.3", ["--construction", "cor2.2", "--check", "inverse"],
                                 "inverse-symbolic"),
        "ex3.3 cor3.2 inverse": ("ex3.3", ["--construction", "cor3.2", "--check", "inverse"],
                                 "inverse"),
        "ex3.5 thm5.3 system": ("ex3.5", ["--construction", "thm5.3", "--check", "system"],
                                "system"),
        "ex4.3 thm4.1 hybe": ("ex4.3", ["--construction", "thm4.1", "--check", "hybe", *U],
                              "hybe"),
        "ex4.3 thm4.1 alpha": ("ex4.3", ["--construction", "thm4.1", "--check", "alpha", *U],
                               "alpha-commute"),
        "ex4.3 cor4.2 inverse": ("ex4.3", ["--construction", "cor4.2", "--check", "inverse", *U],
                                 "inverse"),
        "ex4.3 chybe": ("ex4.3", ["--check", "chybe", "--x", "1,0,0", "--y", "0,1,0", *U],
                        "chybe"),
    }

    @staticmethod
    def _verdict(doc):
        witnesses = [(w["row"], w["col"], w["residual"], w["label"]) for w in doc["witnesses"]]
        return doc["holds"], witnesses

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cli_matches_the_catalog(self, export, tmp_path, capsys, case):
        entry_id, argv, subcheck = self.CASES[case]
        out = tmp_path / "report.json"
        code = main(["verify", export(entry_id), *argv, "--json", str(out)])
        cli = json.loads(out.read_text())
        assert code == (0 if cli["holds"] else 1)
        subs = {sub.check_name: sub for sub in verify_entry(catalog_get(entry_id)).subreports}
        assert self._verdict(cli) == self._verdict(report_to_dict(subs[subcheck]))


class TestCatalog:
    def test_list_prints_all_ids(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        for eid in ("ex2.3", "ex2.5", "ex2.5-verbatim", "ex3.3", "ex3.5", "ex4.3"):
            assert eid in out

    def test_unknown_export_exits_two(self, capsys):
        assert main(["catalog", "export", "nope"]) == 2
        assert "unknown catalog id" in capsys.readouterr().err

    def test_export_without_out_goes_to_stdout(self, capsys):
        assert main(["catalog", "export", "ex2.3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "{"
        assert json.loads(out) == structure_to_dict(catalog_get("ex2.3").structure)

    def test_export_without_id_exits_two(self, capsys):
        assert main(["catalog", "export"]) == 2
        assert capsys.readouterr().err.splitlines()[0] == "error: catalog export needs an entry id"

    def test_export_axioms_round_trip(self, export):
        assert main(["axioms", export("ex4.3"), "--require-multiplicative"]) == 0

    def test_verify_all_exits_zero_and_lists_expected_failures(self, tmp_path, capsys):
        out = tmp_path / "all.json"
        assert main(["catalog", "verify-all", "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "axioms: FAIL (expected FAIL)" in text  # ex2.5-verbatim
        assert "hybe: FAIL (expected FAIL)" in text  # ex4.3
        assert "UNEXPECTED" not in text
        doc = json.loads(out.read_text())
        assert doc["all_as_expected"] is True
        entries = {e["entry"]: e for e in doc["entries"]}
        assert entries["ex2.3"]["report"]["holds"] is False  # raw verdicts, not masked
        assert entries["ex2.3"]["as_expected"] is True
        assert entries["ex3.3"]["report"]["holds"] is True


class TestNonAscii:
    def test_non_ascii_expression_in_a_structure_file_exits_two(self, tmp_path, capsys):
        doc = {
            "format_version": 1, "kind": "hom-algebra", "dim": 1, "basis": ["e"],
            "parameters": ["lam"], "alpha": [["1"]], "unit": ["λ"], "mult": [[["1"]]],
        }
        path = tmp_path / "lambda.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        assert main(["axioms", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unexpected character 'λ'" in err
        assert "Traceback" not in err

    def test_non_ascii_lambda_argument_exits_two(self, export, capsys):
        code = main(["build", export("ex2.3"), "--construction", "thm2.1", "--lambda", "λ"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unexpected character 'λ'" in err


class TestBounds:
    def test_huge_exponent_in_a_structure_file_exits_two(self, tmp_path, capsys):
        doc = {
            "format_version": 1, "kind": "hom-algebra", "dim": 1, "basis": ["e"],
            "parameters": [], "alpha": [["1"]], "unit": ["2^99999999999"], "mult": [[["1"]]],
        }
        path = tmp_path / "power.json"
        path.write_text(json.dumps(doc))
        assert main(["axioms", str(path)]) == 2
        assert "unit[0]: exponent 99999999999 exceeds the bound" in capsys.readouterr().err

    def test_huge_power_of_a_parameter_still_parses(self, export, tmp_path, capsys):
        # format_scalar writes lam^e for any e, so homyb must read it back
        op_path = tmp_path / "op.json"
        structure = export("ex2.3")
        code = main(["build", structure, "--construction", "thm2.1",
                     "--lambda", "lam^100000", "--out", str(op_path)])
        assert code == 0
        assert "lam^100000" in op_path.read_text()
        assert main(["verify", structure, "--operator", str(op_path), "--check", "alpha"]) == 0

    def test_huge_chybe_twist_power_exits_two(self, export, capsys):
        code = main(
            ["verify", export("ex4.3"), "--check", "chybe",
             "--x", "1,0,0", "--y", "0,1,0", "--u", "0,0,1", "--m", "1000000000"]
        )
        assert code == 2
        assert "exceed the bound" in capsys.readouterr().err

    @pytest.mark.parametrize("parameters, unit, message", [
        ([], "1" * 5000, "longer than 4300 digits"),
        ([], "2^" + "1" * 5000, "longer than 4300 digits"),
        (list("abcdef"), "(a+b+c+d+e+f)^32", "term products"),
        (list("abcd"), "(a+b+c+d)^16*(a+b+c+d)^16*(a+b+c+d)^16", "term products"),
    ])
    def test_costly_literal_in_a_structure_file_exits_two(
        self, tmp_path, capsys, parameters, unit, message
    ):
        doc = {
            "format_version": 1, "kind": "hom-algebra", "dim": 1, "basis": ["e"],
            "parameters": parameters, "alpha": [["1"]], "unit": [unit], "mult": [[["1"]]],
        }
        path = tmp_path / "costly.json"
        path.write_text(json.dumps(doc))
        started = time.perf_counter()
        assert main(["axioms", str(path)]) == 2
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert "unit[0]: " in err and message in err


class TestUndecodableFile:
    COMMANDS = {
        "axioms": ["axioms", "{bad}"],
        "verify structure": ["verify", "{bad}", "--construction", "thm2.1", "--check", "hybe"],
        "verify --operator": ["verify", "{structure}", "--operator", "{bad}", "--check", "hybe"],
    }
    CONTENTS = {
        "not UTF-8": (b'{"kind": "\xff"}', "not UTF-8 text"),
        "not JSON": (b'{"kind": ', "invalid JSON: Expecting value"),
        "nested 100000 deep": (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    }

    @pytest.mark.parametrize("content", sorted(CONTENTS))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_two_with_an_error(self, export, tmp_path, capsys, command, content):
        data, message = self.CONTENTS[content]
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        fields = {"structure": export("ex2.3"), "bad": str(bad)}
        assert main([arg.format(**fields) for arg in self.COMMANDS[command]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and message in err and err.count("\n") == 1


class TestEmptyOut:
    COMMANDS = {
        "build": ["build", "{structure}", "--construction", "thm2.1"],
        "catalog export": ["catalog", "export", "ex2.3"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_empty_out_writes_to_stdout(self, export, capsys, command):
        argv = [arg.format(structure=export("ex2.3")) for arg in self.COMMANDS[command]]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert main([*argv, "--out", ""]) == 0
        assert capsys.readouterr() == (expected, "")


class TestUnwritableOutput:
    COMMANDS = {
        "axioms --json": ["axioms", "{structure}", "--json", "{out}"],
        "build --out": ["build", "{structure}", "--construction", "thm2.1", "--out", "{out}"],
        "verify --json": ["verify", "{structure}", "--construction", "thm2.1",
                          "--check", "hybe", "--json", "{out}"],
        "catalog export --out": ["catalog", "export", "ex2.3", "--out", "{out}"],
        "catalog verify-all --json": ["catalog", "verify-all", "--json", "{out}"],
    }

    @pytest.mark.parametrize("case", ["missing directory", "directory"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_two_with_an_error(self, export, tmp_path, capsys, command, case):
        out = tmp_path / "no" / "such" / "out.json" if case == "missing directory" else tmp_path
        fields = {"structure": export("ex2.3"), "out": str(out)}
        argv = [arg.format(**fields) for arg in self.COMMANDS[command]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
