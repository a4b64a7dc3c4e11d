"""Catalog entries, printed-table comparison, whole-catalog verification."""

import pytest

from homyb import (
    UnknownEntryError,
    catalog_get,
    catalog_list,
    compare_table,
    mismatched_pairs,
    parse_scalar,
    validate,
    verify_all,
    verify_entry,
)
from homyb.catalog import all_as_expected, build_operator
from homyb.files import structure_from_dict, structure_to_dict


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

    def test_check_names_match_expectations_keys(self):
        for eid, _ in catalog_list():
            entry = catalog_get(eid)
            report = verify_entry(entry)
            assert [s.check_name for s in report.subreports] == list(entry.check_names())


class TestExportRoundTrip:
    @pytest.mark.parametrize(
        "entry_id", ["ex2.3", "ex2.5", "ex2.5-verbatim", "ex3.3", "ex3.5", "ex4.3"]
    )
    def test_export_then_load_preserves_everything(self, entry_id):
        entry = catalog_get(entry_id)
        doc = structure_to_dict(entry.structure)
        loaded = structure_from_dict(doc)
        original = validate(entry.structure, entry.kind == "hom-lie")
        reloaded = validate(loaded, entry.kind == "hom-lie")
        assert loaded == entry.structure
        assert original.holds == reloaded.holds
        assert [s.holds for s in original.subreports] == [s.holds for s in reloaded.subreports]
        if entry.variant is not None:
            assert build_operator(entry).matrix == build_operator(entry, loaded).matrix

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
