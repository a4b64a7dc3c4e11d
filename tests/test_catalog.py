"""Catalog entries and their documents, printed-table comparison, whole-catalog verification."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homyb.catalog
from homyb import (
    Construction,
    Matrix,
    Scalar,
    StructureError,
    UnknownEntryError,
    catalog_get,
    catalog_list,
    compare_table,
    format_scalar,
    mismatched_pairs,
    parse_scalar,
    validate,
    verify_all,
    verify_entry,
)
from homyb._record import replace
from homyb.catalog import _CHECKS, _IDS, _built, _table, all_as_expected, build_operator
from homyb.cli import main
from homyb.files import _matrix_strings, dump_json, report_to_dict, structure_from_dict, structure_to_dict
from conftest import PS2, scalars

ROOT = Path(__file__).resolve().parents[1]


def edited_ex23(edit, entry_id: str = "ex2.3") -> str:
    """The shipped document of `entry_id` (ex2.3 by default) after `edit(document)`, as JSON text."""
    doc = json.loads((homyb.catalog._ENTRIES / f"{entry_id}.json").read_text(encoding="utf-8"))
    edit(doc)
    return json.dumps(doc)


def listed_first(first: str, second: str):
    """An edit that lists check `first` before `second`, each in the place of one of the two."""
    def edit(doc):
        i, j = sorted(map(doc["checks"].index, (first, second)))
        doc["checks"][i], doc["checks"][j] = first, second
    return edit


class TestLookup:
    def test_list_has_the_six_entries_in_stable_order(self):
        ids = [eid for eid, _ in catalog_list()]
        assert ids == ["ex2.3", "ex2.5", "ex2.5-verbatim", "ex3.3", "ex3.5", "ex4.3"]

    def test_descriptions_are_one_liners(self):
        for _, description in catalog_list():
            assert description and "\n" not in description

    def test_lie_entry_data(self):
        entry = catalog_get("ex4.3")
        lie = entry.structure
        assert lie.dim == 3
        e1 = parse_scalar("1", lie.params)
        assert lie.bracket[0, 1] == e1  # [e1,e2] = e1
        assert lie.bracket[0, 3] == -e1

    def test_unknown_id(self):
        with pytest.raises(UnknownEntryError):
            catalog_get("nope")


class TestDocuments:
    """Each entry is the document `entries/<id>.json` beside the catalog module."""

    @staticmethod
    def document(entry_id):
        return json.loads((homyb.catalog._ENTRIES / f"{entry_id}.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("entry_id", _IDS)
    def test_export_writes_the_stored_structure_document(self, entry_id, tmp_path):
        stored = self.document(entry_id)["structure"]
        assert structure_to_dict(structure_from_dict(stored)) == stored
        out = tmp_path / "export.json"
        assert main(["catalog", "export", entry_id, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == dump_json(stored)  # key order included

    @pytest.mark.parametrize("entry_id", _IDS)
    def test_every_reference_resolves(self, entry_id):
        entry = catalog_get(entry_id)
        basis = entry.structure.basis
        if entry.expected_table is not None:
            assert set(entry.expected_table) == {(a, b) for a in basis for b in basis}
            for summands in entry.expected_table.values():
                for p, q, expr in summands:
                    assert p in basis and q in basis and isinstance(expr, str)
        for pair in entry.documented_mismatches:
            assert len(pair) == 2 and set(pair) <= set(basis)
        if entry.u is not None:
            assert len(entry.u) == entry.structure.dim
        assert set(entry.checks) <= set(_CHECKS)
        assert entry.expected_failures <= set(entry.check_names())
        variant = self.document(entry_id).get("variant")
        assert variant is None or variant in {c.value for c in Construction}

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read"),
        ("{", "invalid JSON"),
        ("[]", "expected a JSON object"),
        ('{"description": "d", "notes": [], "checks": []}', "missing 'structure'"),
        (edited_ex23(lambda d: d["structure"].update(kind="hom-group")), "kind: expected one of"),
        (edited_ex23(lambda d: d["table"].pop()), "one [left, right, summands] row per pair"),
        (edited_ex23(lambda d: d["table"].append(d["table"][0])), "one [left, right, summands] row"),
        (edited_ex23(lambda d: d["table"][0][2][0].__setitem__(1, "x9")), "p, q basis names"),
        (edited_ex23(lambda d: d["table"][1][2][1].pop()), "[p, q, coefficient]"),
        (edited_ex23(lambda d: d["checks"].append("nope")), "checks: expected a list of names"),
        (edited_ex23(lambda d: d.update(checks="axioms")), "checks: expected a list of names"),
        (edited_ex23(lambda d: d.update(checks=[])), "checks: expected at least one check"),
        (edited_ex23(lambda d: d.update(involutive_at={"zz": "1"})), "involutive_at: expected"),
        (edited_ex23(lambda d: d.update(involutive_at={"l": "x"})), "involutive_at: expected"),
        (edited_ex23(lambda d: d.update(involutive_at={"l": "1/0"})), "involutive_at: expected"),
        (edited_ex23(lambda d: d.pop("variant")), "variant: expected"),
        (edited_ex23(lambda d: d.update(documented_mismatches=[["x9", "x1"]])),
         "documented_mismatches: expected"),
        (edited_ex23(lambda d: d.update(expected_failures=["nope"])), "expected_failures: expected"),
        (edited_ex23(lambda d: d["u"].pop(), "ex4.3"), "u: expected 3 coordinates"),
        # the checks must fit the entry's structure and construction
        (edited_ex23(lambda d: d["checks"].append("system"), "ex4.3"),
         "checks: expected no system check on hom-lie"),
        (edited_ex23(lambda d: d["checks"].append("chybe")), "checks: expected no chybe check on hom-algebra"),
        (edited_ex23(lambda d: d.update(variant="thm5.2-W")),
         "variant: expected a single-operator construction of a hom-algebra structure"),
        (edited_ex23(lambda d: d.update(variant="thm3.1")),
         "variant: expected a single-operator construction of a hom-algebra structure"),
        (edited_ex23(lambda d: d.update(variant="cor2.2")),
         "variant: expected a construction with an inverse for the inverse checks"),
        (edited_ex23(lambda d: d.pop("u"), "ex4.3"), "u: expected a central element to build on"),
        # each field has one JSON type, and nothing is coerced into it
        (edited_ex23(lambda d: d["notes"].append(0)), "notes: expected a list of strings"),
        (edited_ex23(lambda d: d.update(notes="abc")), "notes: expected a list of strings"),
        (edited_ex23(lambda d: d.pop("table")), "table: expected a printed table to check"),
        (edited_ex23(lambda d: d["u"].__setitem__(0, 0), "ex4.3"), "u: expected a list of coordinate expressions"),
        (edited_ex23(lambda d: d.update(u="001"), "ex4.3"), "u: expected a list of coordinate expressions"),
        (edited_ex23(lambda d: d.update(involutive_at=[["l", "1"]])),
         "involutive_at: expected an object mapping"),
        (edited_ex23(lambda d: d.update(involutive_at={"l": 1})), "involutive_at: expected an object mapping"),
        (edited_ex23(lambda d: d.update(description=None)), "description: expected a string"),
        (edited_ex23(lambda d: d["table"][0].__setitem__(2, {})),
         "table: expected a list of [left, right, [[p, q, coefficient], ...]] rows"),
    ], ids=["missing", "not-json", "not-an-object", "no-structure", "bad-structure",
            "table-row-missing", "table-row-repeated", "unknown-basis-name", "two-element-summand",
            "unknown-check", "checks-not-a-list", "no-checks", "unknown-involutive-parameter",
            "involutive-value-not-a-number", "involutive-value-divides-by-zero", "no-variant",
            "mismatch-not-in-basis", "unknown-expected-failure", "short-u", "system-on-a-lie-entry",
            "chybe-on-an-algebra-entry", "system-member-variant", "variant-of-another-kind",
            "inverse-check-without-an-inverse", "lie-entry-without-u", "note-not-a-string",
            "notes-a-string", "table-check-without-a-table", "u-coordinate-not-a-string", "u-a-string",
            "involutive-at-pairs", "involutive-value-a-number", "description-null", "summands-an-object"])
    def test_a_bad_document_exits_two_and_is_named(self, content, message, tmp_path, monkeypatch,
                                                   capsys):
        path = tmp_path / "ex2.3.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        monkeypatch.setattr(homyb.catalog, "_ENTRIES", tmp_path)
        monkeypatch.setattr(homyb.catalog, "_CACHE", {})
        assert main(["catalog", "list"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and message in err

    @pytest.mark.parametrize("edit, entry_id, message", [
        (lambda d: d.pop("involutive_at"), "ex2.3", "alpha is not involutive"),
        # a checked inverse takes no pair built with its preconditions skipped
        (lambda d: listed_first("inverse-symbolic", "inverse")(d) or d.pop("involutive_at"), "ex2.3",
         "alpha is not involutive"),
        (lambda d: d["u"].__setitem__(0, "x"), "ex4.3", "unknown parameter 'x'"),
        (lambda d: d["structure"]["parameters"].remove("lam"), "ex2.3", "unknown parameter 'lam'"),
    ], ids=["not-involutive-there", "not-involutive-unchecked-first", "u-not-an-expression", "no-lam"])
    def test_an_error_met_only_by_a_check_names_the_document(self, edit, entry_id, message, tmp_path,
                                                             monkeypatch, capsys):
        path = tmp_path / f"{entry_id}.json"
        path.write_text(edited_ex23(edit, entry_id), encoding="utf-8")
        monkeypatch.setattr(homyb.catalog, "_ENTRIES", tmp_path)
        monkeypatch.setattr(homyb.catalog, "_IDS", (entry_id,))
        monkeypatch.setattr(homyb.catalog, "_CACHE", {})
        assert main(["catalog", "list"]) == 0  # λ, ν, u and α's involution are read by the checks
        assert main(["catalog", "verify-all"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

    @pytest.mark.parametrize("first, second", [("inverse", "hybe-inverse"), ("hybe-inverse", "inverse")])
    def test_the_order_of_the_lie_inverse_checks_changes_no_verdict(self, first, second, tmp_path, monkeypatch,
                                                                      capsys):
        # the pair (thm4.1, cor4.2) is built at nu = 1 whichever of the two checks builds it first
        (tmp_path / "ex4.3.json").write_text(edited_ex23(listed_first(first, second), "ex4.3"), encoding="utf-8")
        monkeypatch.setattr(homyb.catalog, "_ENTRIES", tmp_path)
        monkeypatch.setattr(homyb.catalog, "_IDS", ("ex4.3",))
        monkeypatch.setattr(homyb.catalog, "_CACHE", {})
        assert main(["catalog", "verify-all"]) == 0
        out = capsys.readouterr().out
        assert "  inverse: PASS (expected PASS)\n" in out and "  hybe-inverse: FAIL (expected FAIL)\n" in out

    def test_every_document_is_package_data(self):
        tomllib = pytest.importorskip("tomllib")
        config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        package = homyb.catalog._ENTRIES.parent
        shipped = {p for pattern in config["tool"]["setuptools"]["package-data"]["homyb"]
                   for p in package.glob(pattern)}
        documents = set(homyb.catalog._ENTRIES.iterdir())
        assert documents == {homyb.catalog._ENTRIES / f"{eid}.json" for eid in _IDS}
        assert documents <= shipped


class TestCompareTable:
    def test_3dim_algebra_table_fully_matches(self, ex23):
        rows = compare_table(ex23)
        assert len(rows) == 9
        assert all(r.match for r in rows)

    def test_4dim_algebra_mismatch_rows_are_the_documented_ones(self, ex25):
        rows = compare_table(ex25)
        assert mismatched_pairs(rows) == {
            ("1", "y"),
            ("x", "g"),
            ("y", "g"),
            ("x", "x"),
            ("x", "y"),
            ("y", "x"),
            ("y", "y"),
        }

    def test_4dim_algebra_leg_swap_detail(self, ex25):
        # printed B(1⊗y) puts lam*kk on 1⊗y, the operator puts it on y⊗1
        row = next(
            r for r in compare_table(ex25) if (r.left_name, r.right_name) == ("1", "y")
        )
        params = ex25.structure.params
        d = ex25.structure.dim
        one = ex25.structure.basis_index("1")
        y = ex25.structure.basis_index("y")
        coeff = parse_scalar("lam*kk", params)
        assert row.expected[one * d + y] == coeff
        assert row.computed[y * d + one] == coeff

    def test_3dim_coalgebra_swapped_rows(self, ex33):
        rows = compare_table(ex33)
        assert mismatched_pairs(rows) == {("a2", "a"), ("a2", "a2")}
        by_pair = {(r.left_name, r.right_name): r for r in rows}
        # the two printed rows are each other's computed values
        assert by_pair[("a2", "a")].expected == by_pair[("a2", "a2")].computed
        assert by_pair[("a2", "a2")].expected == by_pair[("a2", "a")].computed
        assert by_pair[("a", "a")].match

    def test_4dim_coalgebra_mismatches(self, ex35):
        rows = compare_table(ex35)
        assert mismatched_pairs(rows) == {
            ("g", "y"),
            ("x", "x"),
            ("x", "y"),
            ("y", "x"),
            ("y", "y"),
        }

    def test_lie_table_fully_matches(self, ex43):
        rows = compare_table(ex43)
        assert len(rows) == 9
        assert all(r.match for r in rows)

    def test_comparison_is_stable(self, ex25):
        first = [(r.left, r.right, r.match) for r in compare_table(ex25)]
        second = [(r.left, r.right, r.match) for r in compare_table(ex25)]
        assert first == second


TABLED = [entry_id for entry_id in _IDS if catalog_get(entry_id).expected_table is not None]


@pytest.mark.filterwarnings("ignore:u is not alpha-invariant")
class TestTableCheck:
    """The table check against an entry whose documented mismatches or operator are edited."""

    @staticmethod
    def table(entry, documented):
        edited = replace(entry, documented_mismatches=frozenset(documented))
        report = next(s for s in verify_entry(edited).subreports if s.check_name == "table")
        return report, [(w.row, w.col, str(w.residual), w.label) for w in report.witnesses]

    def test_undocumented_mismatches_fail(self, ex33):
        report, witnesses = self.table(ex33, ())
        assert not report.holds
        assert witnesses == [
            (7, 0, "1", "B(a2⊗a): undocumented mismatch"),
            (8, 0, "1", "B(a2⊗a2): undocumented mismatch"),
        ]
        assert report.metadata == {"mismatches": "(a2,a), (a2,a2)", "documented": "none"}

    def test_a_documented_row_that_matches_fails(self, ex33):
        report, witnesses = self.table(ex33, ex33.documented_mismatches | {("1", "1")})
        assert not report.holds
        assert witnesses == [(0, 0, "1", "B(1⊗1): documented row now matches")]
        assert report.metadata["documented"] == "(1,1), (a2,a), (a2,a2)"

    @pytest.mark.parametrize("entry_id", TABLED)
    def test_the_check_finds_the_pairs_the_comparison_does(self, entry_id):
        entry = catalog_get(entry_id)
        expected = sorted(mismatched_pairs(compare_table(entry)))
        report = _table(entry, None)
        assert report.metadata["mismatches"] == (", ".join(f"({a},{b})" for a, b in expected) or "none")

    @pytest.mark.parametrize("entry_id", TABLED)
    def test_one_changed_entry_is_exactly_one_undocumented_mismatch(self, entry_id, monkeypatch):
        entry = replace(catalog_get(entry_id))  # a copy that keeps no operator yet
        op, s = build_operator(replace(entry)), entry.structure  # built on a copy, so `entry` keeps none
        d, basis = s.dim, s.basis
        # the first column whose printed row matches, with one entry moved off it
        c = next(c for c in range(d * d) if (basis[c // d], basis[c % d]) not in entry.documented_mismatches)
        bump = Matrix.from_rows(s.params, [[parse_scalar("lam^3" if (i, j) == (d - 1, c) else "0", s.params)
                                           for j in range(d * d)] for i in range(d * d)])
        changed = replace(op, matrix=op.matrix + bump)
        monkeypatch.setattr(homyb.catalog, "build_many", lambda *args, **kwargs: [changed])
        report = _table(entry, None)
        pair = (basis[c // d], basis[c % d])
        assert not report.holds
        assert [(w.row, w.col, str(w.residual), w.label) for w in report.witnesses] == [
            (c, 0, "1", f"B({pair[0]}⊗{pair[1]}): undocumented mismatch")]
        assert mismatched_pairs(compare_table(entry)) == set(entry.documented_mismatches) | {pair}

    @pytest.mark.parametrize("entry_id", ["ex2.3", "ex4.3"])
    def test_a_table_that_matches_decodes_nothing(self, entry_id, monkeypatch):
        entry = catalog_get(entry_id)
        _built(entry, (entry.variant,), entry.structure)
        decoded = []
        entries = Matrix._entries
        monkeypatch.setattr(Matrix, "_entries", lambda m, row: decoded.append(row) or entries(m, row))
        assert _table(entry, None).holds and decoded == []

    def test_an_entry_without_a_printed_table_is_refused(self, ex25_verbatim):
        with pytest.raises(UnknownEntryError, match="ex2.5-verbatim has no printed table"):
            compare_table(ex25_verbatim)


class TestVerifyAll:
    def test_every_entry_behaves_as_documented(self):
        reports = verify_all()
        assert all_as_expected(reports)

    def test_expected_failures_actually_fail(self, ex43, ex25_verbatim, ex23):
        by_name = {
            sub.check_name: sub.holds for sub in verify_entry(ex43).subreports
        }
        assert by_name["alpha-commute"] is False
        assert by_name["hybe"] is False
        assert by_name["hybe-inverse"] is False
        assert by_name["inverse"] is True
        assert by_name["chybe"] is True
        assert by_name["table"] is True

        verbatim = verify_entry(ex25_verbatim)
        assert [s.check_name for s in verbatim.subreports] == ["axioms"]
        assert not verbatim.subreports[0].holds

        ex23_reports = {
            sub.check_name: sub.holds for sub in verify_entry(ex23).subreports
        }
        assert ex23_reports["inverse@l=1"] is True
        assert ex23_reports["inverse-symbolic"] is False

    def test_each_structure_is_validated_once_per_entry(self, monkeypatch):
        import homyb.structures

        calls, original = [], homyb.structures._check

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(homyb.structures, "_check", counting)
        for eid in _IDS:
            entry = catalog_get(eid)
            entry = replace(entry, structure=replace(entry.structure))  # keeps no verdict yet
            calls.clear()
            verify_entry(entry)
            # the structure once with the entry's validator flag, its involutive
            # specialisation once, and the unmultiplicative check of chybe_r once
            assert len(calls) == 1 + bool(entry.involutive_at) + ("chybe" in entry.checks), eid
        assert all_as_expected(verify_all())

    def test_each_operator_is_built_once_per_entry(self, monkeypatch):
        import homyb.catalog

        original = homyb.catalog.build_many
        calls = []  # holds every structure and operator, so no structure's id is reused

        def recording(structure, constructions, *args, unchecked=False, **kwargs):
            ops = original(structure, constructions, *args, unchecked=unchecked, **kwargs)
            calls[-1].append((structure, tuple(constructions), unchecked, ops))
            return ops

        monkeypatch.setattr(homyb.catalog, "build_many", recording)
        for eid, _ in catalog_list():
            calls.append([])
            verify_entry(replace(catalog_get(eid)))  # a copy that keeps no operator yet
        for entry_calls in calls:
            keys = [(id(s), constructions, unchecked) for s, constructions, unchecked, _ in entry_calls]
            assert len(keys) == len(set(keys))
        # the Lie operator alone at the entry's nu, then each set holding cor4.2 at nu = 1
        lie = [([c.value for c in constructions], [str(op.nu) for op in ops])
               for _, constructions, _, ops in calls[-1]]
        assert lie == [(["thm4.1"], ["nu"]), (["thm4.1", "cor4.2"], ["1", "1"]), (["cor4.2"], ["1"])]
        every = [call for entry_calls in calls for call in entry_calls]
        assert (len(every), sum(len(ops) for *_, ops in every)) == (16, 30)

    def test_check_names_match_expectations_keys(self):
        for eid, _ in catalog_list():
            entry = catalog_get(eid)
            report = verify_entry(entry)
            assert [s.check_name for s in report.subreports] == list(entry.check_names())


def _outcome(report) -> dict:
    """The report as its document, with every `elapsed_ms` dropped."""
    doc = {k: v for k, v in report_to_dict(report).items() if k != "elapsed_ms"}
    return {**doc, "subreports": [_outcome(sub) for sub in report.subreports]}


class TestDerivedInputs:
    """λ, ν, u, the structure at `involutive_at` and the printed table's matrix, kept on the entry."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """name -> the first argument of each call of `validate`, `parse_scalar` or `substitute`."""
        import homyb.files
        import homyb.structures

        seen = {"validate": [], "parse_scalar": [], "substitute": []}

        def counting(name, original):
            return lambda first, *args, **kwargs: seen[name].append(first) or original(first, *args, **kwargs)

        validate_ = counting("validate", homyb.structures.validate)
        parse = counting("parse_scalar", parse_scalar)
        for module in (homyb.catalog, homyb.structures):
            monkeypatch.setattr(module, "validate", validate_)
        for module in (homyb.catalog, homyb.files):
            monkeypatch.setattr(module, "parse_scalar", parse)
        base = homyb.structures._StructureBase
        monkeypatch.setattr(base, "substitute", counting("substitute", base.substitute))
        return seen

    def test_a_second_pass_derives_nothing_and_validates_only_the_axioms(self, calls, monkeypatch):
        monkeypatch.setattr(homyb.catalog, "_CACHE", {})  # every entry and structure loaded afresh
        entries = [catalog_get(eid) for eid in _IDS]
        counts = []
        for _ in range(2):
            for seen in calls.values():
                seen.clear()
            assert all_as_expected(verify_all())
            counts.append({name: len(seen) for name, seen in calls.items()})
        assert counts == [{"validate": 10, "parse_scalar": 49, "substitute": 3},
                          {"validate": 6, "parse_scalar": 0, "substitute": 0}]
        # the axioms checks, on each entry's own structure
        assert [id(s) for s in calls["validate"]] == [id(entry.structure) for entry in entries]

    @pytest.mark.parametrize("entry_id, edit", [
        ("ex2.3", "involutive_at"),
        ("ex3.3", "table"),
        ("ex2.5", "table"),
    ])
    def test_an_edited_entry_derives_its_own_inputs(self, entry_id, edit, tmp_path, monkeypatch):
        original = catalog_get(entry_id)
        before = _outcome(verify_entry(original))  # the original keeps its derived inputs
        if edit == "involutive_at":  # α = diag(1, 1, -1), involutive too
            changes = {"involutive_at": {"l": "-1"}}

            def edit_document(doc):
                doc["involutive_at"] = {"l": "-1"}
        else:  # the first printed row that matches gains a summand lam^5·e_0⊗e_0, and is documented
            pair = next(p for p in original.expected_table if p not in original.documented_mismatches)
            summand = (*[original.structure.basis[0]] * 2, "lam^5")
            table = dict(original.expected_table)
            table[pair] = [*table[pair], summand]
            changes = {"expected_table": table,
                       "documented_mismatches": original.documented_mismatches | {pair}}

            def edit_document(doc):
                next(row for row in doc["table"] if tuple(row[:2]) == pair)[2].append(list(summand))
                doc["documented_mismatches"] = [*doc.get("documented_mismatches", []), list(pair)]
        edited = replace(original, **changes)
        (tmp_path / f"{entry_id}.json").write_text(edited_ex23(edit_document, entry_id), encoding="utf-8")
        monkeypatch.setattr(homyb.catalog, "_ENTRIES", tmp_path)
        fresh = homyb.catalog._load(entry_id)
        got = _outcome(verify_entry(edited))
        assert got == _outcome(verify_entry(fresh)) and got != before
        assert _outcome(verify_entry(original)) == before
        assert edited.involutive == fresh.involutive and edited.printed_matrix == fresh.printed_matrix
        assert (edited.involutive == original.involutive) == (edit != "involutive_at")
        assert (edited.printed_matrix == original.printed_matrix) == (edit != "table")

    def test_a_replaced_entry_starts_with_no_kept_operators(self):
        entry = catalog_get("ex4.3")
        verify_entry(entry)
        kept = dict(entry._operators)
        copy = replace(entry)
        assert kept and copy._operators == {}
        verify_entry(copy)  # builds its own, equal to the original's
        assert copy._operators == kept and entry._operators == kept
        assert all(copy._operators[key] is not op for key, op in kept.items())


class TestExportRoundTrip:
    @pytest.mark.parametrize(
        "entry_id", ["ex2.3", "ex2.5", "ex2.5-verbatim", "ex3.3", "ex3.5", "ex4.3"]
    )
    def test_export_then_load_preserves_everything(self, entry_id):
        entry = catalog_get(entry_id)
        doc = structure_to_dict(entry.structure)
        loaded = structure_from_dict(doc)
        original = validate(entry.structure, entry.structure.kind == "hom-lie")
        reloaded = validate(loaded, entry.structure.kind == "hom-lie")
        assert loaded == entry.structure
        assert original.holds == reloaded.holds
        assert [s.holds for s in original.subreports] == [s.holds for s in reloaded.subreports]
        if entry.variant is not None:
            assert build_operator(entry).matrix == build_operator(replace(entry, structure=loaded)).matrix

    def test_comult_triples_are_summed_and_exported_in_order(self):
        doc = {
            "kind": "hom-coalgebra", "name": "c", "dim": 2, "basis": ["a", "b"],
            "parameters": ["lam"], "alpha": [["1", "0"], ["0", "1"]], "counit": ["1", "0"],
            "comult": [
                [[1, 1, "lam"], [0, 0, "1"], [1, 1, "2*lam"], [0, 1, "0"]],
                [[1, 0, "1"], [0, 1, "lam"], [1, 0, "-1"]],
            ],
        }
        coalgebra = structure_from_dict(doc)
        one, lam = (parse_scalar(x, coalgebra.params) for x in ("1", "lam"))
        # Δ(a) = a⊗a + 3·lam·b⊗b and Δ(b) = lam·a⊗b: rows j·2 + k, one column each
        assert list(coalgebra.delta.nonzero()) == [(0, 0, one), (1, 1, lam), (3, 0, 3 * lam)]
        assert structure_to_dict(coalgebra)["comult"] == [
            [[0, 0, "1"], [1, 1, "3*lam"]],
            [[0, 1, "lam"]],
        ]

    def test_export_is_byte_stable(self):
        from homyb.files import dump_json

        entry = catalog_get("ex4.3")
        a = dump_json(structure_to_dict(entry.structure))
        b = dump_json(structure_to_dict(entry.structure))
        assert a == b

    @settings(max_examples=60)
    @given(st.data())
    def test_only_nonzero_cells_are_formatted(self, data):
        # the dense form formats every cell, zeros included, and is the oracle
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        zero = Scalar.zero(PS2)
        cells = data.draw(st.lists(st.one_of(st.just(zero), scalars(PS2, max_terms=3)),
                                   min_size=rows * cols, max_size=rows * cols))
        for i in data.draw(st.sets(st.integers(0, rows - 1))):
            cells[i * cols:(i + 1) * cols] = [zero] * cols
        matrix = Matrix(rows, cols, PS2, cells)
        dense = [format_scalar(s) for s in matrix.data]
        assert _matrix_strings(matrix) == [dense[i:i + cols] for i in range(0, len(dense), cols)]


def _strings(value):
    """Every string in a nested document, in order."""
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return [s for item in value for s in _strings(item)]
    return []


class TestParseOnce:
    """A document or printed table repeats a few expressions; each is parsed once per call."""

    @pytest.fixture
    def parses(self, monkeypatch):
        import homyb.catalog
        import homyb.files

        seen = []

        def counting(expr, params):
            seen.append(expr)
            return parse_scalar(expr, params)

        for module in (homyb.catalog, homyb.files):
            monkeypatch.setattr(module, "parse_scalar", counting)
        return seen

    @pytest.mark.parametrize("entry_id", ["ex2.5", "ex3.5", "ex4.3"])
    def test_structure_cells_are_parsed_once_per_document(self, entry_id, parses):
        doc = structure_to_dict(catalog_get(entry_id).structure)
        cells = [s for key in ("alpha", "unit", "mult", "counit", "comult", "bracket")
                 for s in _strings(doc.get(key, []))]
        for _ in range(2):  # nothing is remembered from one document to the next
            parses.clear()
            assert structure_from_dict(doc) == catalog_get(entry_id).structure
            assert sorted(parses) == sorted(set(cells)) and len(cells) > len(parses)

    @pytest.mark.parametrize("cell, where, message", [
        ("1 +", "mult[1][0][1]", "unexpected end"),
        (5, "mult[1][0][1]", "expected an expression string"),
    ])
    def test_a_bad_cell_is_named_by_its_first_position(self, cell, where, message):
        mult = [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]
        mult[1][0][1] = mult[1][1][0] = cell
        doc = {"kind": "hom-algebra", "dim": 2, "basis": ["a", "b"], "parameters": [],
               "alpha": [["1", "0"], ["0", "1"]], "unit": ["1", "0"], "mult": mult}
        with pytest.raises(StructureError) as info:
            structure_from_dict(doc)
        assert str(info.value).startswith(f"{where}: ") and message in str(info.value)

    @pytest.mark.parametrize("entry_id", ["ex2.5", "ex3.5"])
    def test_compare_table_parses_each_printed_expression_once(self, entry_id, parses):
        entry = replace(catalog_get(entry_id))  # a copy that keeps no derived input yet
        build_operator(entry)  # reads λ, ν and u
        printed = [expr for summands in entry.expected_table.values() for *_, expr in summands]
        for distinct in (set(printed), set()):  # the entry keeps its table's matrix
            parses.clear()
            compare_table(entry)
            assert sorted(parses) == sorted(distinct) and len(printed) > len(parses)

    @pytest.mark.parametrize("entry_id", ["ex2.5", "ex3.5"])
    def test_the_table_check_parses_each_printed_expression_once(self, entry_id, parses):
        entry = replace(catalog_get(entry_id))  # a copy that keeps no derived input yet
        printed = [expr for summands in entry.expected_table.values() for *_, expr in summands]
        for distinct in (set(printed), set()):  # the entry keeps its table's matrix
            _built(entry, (entry.variant,), entry.structure)  # reads λ, ν and u
            parses.clear()
            _table(entry, None)
            assert sorted(parses) == sorted(distinct) and len(printed) > len(parses)
