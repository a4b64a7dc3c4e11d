"""Command-line behavior: exit codes, reports, file round-trips."""

import json
import time

import pytest

from homyb.cli import main


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


class TestCatalog:
    def test_list_prints_all_ids(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        for eid in ("ex2.3", "ex2.5", "ex2.5-verbatim", "ex3.3", "ex3.5", "ex4.3"):
            assert eid in out

    def test_unknown_export_exits_two(self, capsys):
        assert main(["catalog", "export", "nope"]) == 2
        assert "unknown catalog id" in capsys.readouterr().err

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
