"""Axiom validators for the three structure kinds, on good and broken inputs."""

from dataclasses import fields, replace

import pytest

from homyb import (
    HomAlgebra,
    HomCoalgebra,
    HomLieAlgebra,
    Matrix,
    ParamSet,
    Scalar,
    StructureError,
    is_alpha_invariant,
    is_central,
    parse_scalar,
    validate_hom_algebra,
    validate_hom_coalgebra,
    validate_hom_lie,
)
from conftest import structure


def sub_report(report, name):
    return next(s for s in report.subreports if s.check_name == name)


class TestHomAlgebra:
    def test_published_3dim_example_passes(self, ex23):
        report = validate_hom_algebra(ex23.structure)
        assert report.holds
        assert all(sub.holds for sub in report.subreports)

    def test_plain_associative_unital_algebra_passes(self):
        # k[t]/(t^2) with identity twist: the axioms collapse to the classical ones
        dual = structure(
            HomAlgebra,
            name="dual-numbers",
            basis=["1", "t"],
            parameters=["lam"],
            unit=["1", "0"],
            mult=[[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
            alpha=[["1", "0"], ["0", "1"]],
        )
        assert validate_hom_algebra(dual).holds

    def test_verbatim_4dim_table_fails_twisted_associativity(self, ex25_verbatim):
        report = validate_hom_algebra(ex25_verbatim.structure)
        assert not report.holds
        ha2 = sub_report(report, "HA2-assoc")
        assert not ha2.holds
        first = ha2.witnesses[0]
        assert first.label.startswith("HA2(g,g,x)")
        # alpha(g)(gx) = kk^2 x while (gg)alpha(x) = kk^2 y
        structure = ex25_verbatim.structure
        kk2 = parse_scalar("kk^2", structure.params)
        x_comp = structure.basis_index("x")
        y_comp = structure.basis_index("y")
        g = structure.basis_index("g")
        d = structure.dim
        row = (g * d + g) * d + x_comp
        residuals = {w.col: w.residual for w in ha2.witnesses if w.row == row}
        assert residuals[x_comp] == kk2
        assert residuals[y_comp] == -kk2

    def test_corrected_4dim_table_passes(self, ex25):
        assert validate_hom_algebra(ex25.structure).holds

    def test_exhaustive_tuple_counts(self, ex23):
        report = validate_hom_algebra(ex23.structure)
        assert sub_report(report, "HA2-assoc").metadata["tuples"] == "27"
        assert sub_report(report, "HA1-mult").metadata["tuples"] == "9"

    def test_shape_validation(self):
        with pytest.raises(StructureError, match="mult"):
            structure(
                HomAlgebra,
                name="broken",
                basis=["a", "b"],
                parameters=[],
                unit=["1", "0"],
                mult=[[["1", "0"], ["0", "1"]]],
                alpha=[["1", "0"], ["0", "1"]],
            )


class TestHomCoalgebra:
    def test_published_3dim_example_passes(self, ex33):
        report = validate_hom_coalgebra(ex33.structure)
        assert report.holds

    def test_group_like_passes(self):
        grouplike = structure(
            HomCoalgebra,
            name="group-like",
            basis=["g"],
            parameters=[],
            counit=["1"],
            comult=[[[0, 0, "1"]]],
            alpha=[["1"]],
        )
        assert validate_hom_coalgebra(grouplike).holds

    def test_alternative_twist_reading_breaks_comult_compat(self):
        # alpha(a2) = a2 instead of the forced alpha(a2) = a
        alt = structure(
            HomCoalgebra,
            name="alt",
            basis=["1", "a", "a2"],
            parameters=["lam", "nu"],
            counit=["1", "1", "1"],
            comult=[[[0, 0, "1"]], [[2, 2, "1"]], [[1, 1, "1"]]],
            alpha=[["1", "0", "0"], ["0", "0", "0"], ["0", "1", "1"]],
        )
        report = validate_hom_coalgebra(alt)
        hc1 = sub_report(report, "HC1-comult")
        assert not hc1.holds
        a = alt.basis_index("a")
        # witness on basis vector a: Delta(alpha(a)) = a⊗a but (alpha⊗alpha)Delta(a) = a2⊗a2
        assert any(w.row == a for w in hc1.witnesses)

    def test_4dim_example_passes(self, ex35):
        assert validate_hom_coalgebra(ex35.structure).holds


class TestHomLie:
    def test_published_example_passes_with_multiplicativity(self, ex43):
        report = validate_hom_lie(ex43.structure, require_multiplicative=True)
        assert report.holds
        names = [s.check_name for s in report.subreports]
        assert "alpha-multiplicative" in names

    def test_abelian_bracket_passes(self):
        abelian = structure(
            HomLieAlgebra,
            name="abelian",
            basis=["x", "y"],
            parameters=["lam", "nu"],
            bracket=[[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
            alpha=[["1", "2"], ["0", "1"]],
        )
        assert validate_hom_lie(abelian, require_multiplicative=True).holds

    def test_antisymmetry_violation_is_caught(self):
        broken = structure(
            HomLieAlgebra,
            name="broken",
            basis=["e1", "e2"],
            parameters=["lam", "nu"],
            bracket=[[["0", "0"], ["1", "0"]], [["0", "1"], ["0", "0"]]],
            alpha=[["1", "0"], ["0", "1"]],
        )
        report = validate_hom_lie(broken)
        hl1 = sub_report(report, "HL1-antisym")
        assert not hl1.holds
        assert hl1.witnesses[0].label.startswith("HL1(e1,e2)")

    def test_tuple_counts(self, ex43):
        report = validate_hom_lie(ex43.structure)
        assert sub_report(report, "HL2-jacobi").metadata["tuples"] == "27"
        assert sub_report(report, "HL1-antisym").metadata["tuples"] == "9"


class TestElementPredicates:
    def test_e3_is_central_but_not_invariant(self, ex43):
        lie = ex43.structure
        e3 = lie.basis_vec(2)
        assert is_central(lie, e3)
        assert not is_alpha_invariant(lie, e3)

    def test_zero_vector_is_central_and_invariant(self, ex43):
        lie = ex43.structure
        zero = tuple(Scalar.zero(lie.params) for _ in range(3))
        assert is_central(lie, zero)
        assert is_alpha_invariant(lie, zero)

    def test_non_central_element(self, ex43):
        lie = ex43.structure
        assert not is_central(lie, lie.basis_vec(0))


# the maps of a one-dimensional structure of each kind, besides α, each the entry a
_ONE_DIM = {
    HomAlgebra: {"mult": [[["a"]]], "unit": ["a"]},
    HomCoalgebra: {"comult": [[[0, 0, "a"]]], "counit": ["a"]},
    HomLieAlgebra: {"bracket": [[["a"]]]},
}


def one_dim(cls):
    return structure(cls, name="one", basis=["e"], parameters=["a"], alpha=[["a"]], **_ONE_DIM[cls])


class TestParameterMaps:
    @pytest.mark.parametrize("cls", list(_ONE_DIM), ids=lambda cls: cls.kind)
    def test_substitute_and_extend_reach_every_map(self, cls):
        s = one_dim(cls)
        maps = [f.name for f in fields(s) if isinstance(getattr(s, f.name), Matrix)]
        assert maps == {
            HomAlgebra: ["alpha", "mu", "eta"],
            HomCoalgebra: ["alpha", "delta", "epsilon"],
            HomLieAlgebra: ["alpha", "bracket"],
        }[cls]
        wider = ParamSet(["a", "b"])
        substituted, extended = s.substitute({"a": 2}), s.extend(wider)
        assert extended.params == wider
        for name in maps:
            m = getattr(s, name)
            assert getattr(substituted, name) == m.substitute({"a": 2}) != m
            assert getattr(extended, name) == m.extend(wider) != m

    def test_maps_are_checked_against_the_basis_and_the_params(self):
        lie = one_dim(HomLieAlgebra)
        with pytest.raises(StructureError, match="bracket: expected 1x1, got 1x2"):
            replace(lie, bracket=Matrix.zeros(1, 2, lie.params))
        with pytest.raises(StructureError, match="alpha: matrix over a different parameter set"):
            replace(lie, alpha=lie.alpha.extend(ParamSet(["a", "b"])))
