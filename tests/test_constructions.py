"""Operator builders: published table values, preconditions, warnings."""

import warnings

import pytest

import homyb.constructions
import homyb.structures
import homyb.tensor
from homyb import (
    Construction,
    ConstructionWarning,
    DimensionError,
    HomAlgebra,
    HomCoalgebra,
    HomLieAlgebra,
    ParamSet,
    PreconditionError,
    Scalar,
    algebra_solution,
    algebra_solution_inverse,
    build,
    build_many,
    catalog_get,
    chybe_r,
    coalgebra_solution,
    lie_solution,
    lie_solution_inverse,
    parse_scalar,
    system_algebra,
    system_coalgebra,
    tensor2,
    validate,
)
from homyb._record import replace
from homyb.constructions import SYSTEMS
from homyb.files import structure_from_dict, structure_to_dict
from conftest import PS2, structure


def column_of(op, i, j):
    d = op.source.dim
    return op.matrix.column(i * d + j)


def tensor_entry(op, out_pair, in_pair):
    d = op.source.dim
    (p, q), (i, j) = out_pair, in_pair
    return op.matrix[p * d + q, i * d + j]


def symbols(structure):
    return (
        parse_scalar("lam", structure.params),
        parse_scalar("nu", structure.params),
    )


class TestAlgebraSolution:
    def test_published_values_on_3dim_example(self, ex23):
        a = ex23.structure
        lam, nu = symbols(a)
        op = algebra_solution(a, Construction.ALG21, lam, nu)
        # B(x3⊗x3) = -lam*l^2 x3⊗x3
        assert tensor_entry(op, (2, 2), (2, 2)) == parse_scalar("-lam*l^2", a.params)
        # B(x1⊗x1) = nu x1⊗x1; the lam terms cancel because x1 is the unit
        col = column_of(op, 0, 0)
        assert col[0] == parse_scalar("nu", a.params)
        assert sum(1 for s in col if s.terms) == 1

    def test_published_value_on_4dim_example(self, ex25):
        a = ex25.structure
        lam, nu = symbols(a)
        op = algebra_solution(a, Construction.ALG24, lam, nu)
        # B(1⊗x) = lam*kk x⊗1; the two nu terms cancel
        x = a.basis_index("x")
        one = a.basis_index("1")
        col = column_of(op, one, x)
        assert col[x * a.dim + one] == parse_scalar("lam*kk", a.params)
        assert sum(1 for s in col if s.terms) == 1

    def test_variants_coincide_when_coefficients_agree(self, ex23):
        a = ex23.structure
        lam, _ = symbols(a)
        one = algebra_solution(a, Construction.ALG21, lam, lam)
        other = algebra_solution(a, Construction.ALG24, lam, lam)
        assert one.matrix == other.matrix

    def test_builders_are_deterministic(self, ex23):
        a = ex23.structure
        lam, nu = symbols(a)
        assert (
            algebra_solution(a, Construction.ALG21, lam, nu).matrix
            == algebra_solution(a, Construction.ALG21, lam, nu).matrix
        )

    def test_unvalidated_structure_is_refused(self, ex25_verbatim):
        a = ex25_verbatim.structure
        lam, nu = symbols(a)
        with pytest.raises(PreconditionError, match="axioms"):
            algebra_solution(a, Construction.ALG24, lam, nu)
        with pytest.warns(ConstructionWarning):
            algebra_solution(a, Construction.ALG24, lam, nu, unchecked=True)


class TestAlgebraInverse:
    def test_one_dimensional_collapse(self):
        ground = structure(
            HomAlgebra, name="ground", basis=["1"], parameters=["lam", "nu"],
            unit=["1"], mult=[[["1"]]], alpha=[["1"]],
        )
        lam, nu = symbols(ground)
        b = algebra_solution(ground, Construction.ALG21, lam, nu)
        binv = algebra_solution_inverse(ground, Construction.ALG_INV22, lam, nu)
        assert b.matrix[0, 0] == nu
        assert binv.matrix[0, 0] == nu ** -1

    def test_non_involutive_twist_is_refused(self, ex23):
        a = ex23.structure
        lam, nu = symbols(a)
        with pytest.raises(PreconditionError, match="involutive"):
            algebra_solution_inverse(a, Construction.ALG_INV22, lam, nu)

    def test_non_monomial_coefficient_is_refused(self, ex23):
        a = ex23.structure.substitute({"l": 1})
        lam, nu = symbols(ex23.structure)
        with pytest.raises(PreconditionError, match="monomial"):
            algebra_solution_inverse(a, Construction.ALG_INV22, lam + nu, nu)

    def test_non_monomial_coefficient_is_refused_unchecked(self, ex23):
        # unchecked waives the axioms and involutivity, not the existence of 1/lambda
        lam, nu = symbols(ex23.structure)
        with pytest.raises(PreconditionError, match=r"lambda = nu \+ lam is not an invertible"):
            build(ex23.structure, Construction.ALG_INV22, lam + nu, nu, unchecked=True)


class TestCoalgebraSolution:
    def test_published_values_on_3dim_example(self, ex33):
        c = ex33.structure
        lam, nu = symbols(c)
        op = coalgebra_solution(c, Construction.COALG31, lam, nu)
        a = c.basis_index("a")
        a2 = c.basis_index("a2")
        one = c.basis_index("1")
        # B(a⊗a) = nu a2⊗a2, the two lam terms cancel
        col = column_of(op, a, a)
        assert col[a2 * c.dim + a2] == nu
        assert sum(1 for s in col if s.terms) == 1
        # B(1⊗1) = nu 1⊗1
        assert tensor_entry(op, (one, one), (one, one)) == nu

    def test_published_value_on_4dim_example(self, ex35):
        c = ex35.structure
        lam, nu = symbols(c)
        op = coalgebra_solution(c, Construction.COALG34, lam, nu)
        x = c.basis_index("x")
        g = c.basis_index("g")
        one = c.basis_index("1")
        # B(x⊗1) = nu*kk g⊗x
        col = column_of(op, x, one)
        assert col[g * c.dim + x] == parse_scalar("nu*kk", c.params)
        assert sum(1 for s in col if s.terms) == 1


class TestLieSolution:
    def test_published_values(self, ex43):
        lie = ex43.structure
        lam, nu = symbols(lie)
        with pytest.warns(ConstructionWarning, match="alpha-invariant"):
            op = lie_solution(lie, ex43.u_vector(), lam, nu)
        # B(e1⊗e2) = lam e1⊗e3 - nu e2⊗e1
        col = column_of(op, 0, 1)
        assert col[0 * 3 + 2] == lam
        assert col[1 * 3 + 0] == -nu
        # B(e1⊗e3) = nu e3⊗e1: the bracket term vanishes, alpha flips the sign
        col = column_of(op, 0, 2)
        assert col[2 * 3 + 0] == nu
        assert sum(1 for s in col if s.terms) == 1

    def test_abelian_bracket_gives_scaled_twisted_flip(self):
        abelian = structure(
            HomLieAlgebra,
            name="abelian",
            basis=["x", "y"],
            parameters=["lam", "nu"],
            bracket=[[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
            alpha=[["1", "0"], ["0", "-1"]],
        )
        lam, nu = symbols(abelian)
        u = (Scalar.one(PS2), Scalar.zero(PS2))
        op = lie_solution(abelian, u, lam, nu)
        alpha_cols = [abelian.alpha.column(i) for i in range(2)]
        for i in range(2):
            for j in range(2):
                expected = tuple(-nu * s for s in tensor2(alpha_cols[j], alpha_cols[i]))
                assert column_of(op, i, j) == expected

    def test_non_central_u_is_refused(self, ex43):
        lie = ex43.structure
        lam, nu = symbols(lie)
        with pytest.raises(PreconditionError, match="central"):
            lie_solution(lie, lie.basis_vec(0), lam, nu)

    def test_inverse_builder_fixes_nu_to_one(self, ex43):
        lie = ex43.structure
        lam, _ = symbols(lie)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstructionWarning)
            binv = lie_solution_inverse(lie, ex43.u_vector(), lam)
        assert binv.nu == Scalar.one(lie.params)
        assert binv.construction is Construction.LIE_INV42


_C = Construction

# each call builds on a structure that fails a hypothesis, with the warning
# raised from a different depth inside the constructions module
WARNING_PATHS = {
    "build-axioms": ("ex2.5-verbatim", lambda s, lam, nu, u: build(
        s, _C.ALG24, lam, nu, unchecked=True)),
    "build_many-axioms": ("ex2.5-verbatim", lambda s, lam, nu, u: build_many(
        s, (_C.ALG24,), lam, nu, unchecked=True)),
    "inverse-axioms": ("ex2.5-verbatim", lambda s, lam, nu, u: algebra_solution_inverse(
        s, _C.ALG_INV24, lam, nu, unchecked=True)),
    "build-involutive": ("ex2.3", lambda s, lam, nu, u: build(
        s, _C.ALG_INV22, lam, nu, unchecked=True)),
    "build_many-involutive": ("ex2.3", lambda s, lam, nu, u: build_many(
        s, (_C.ALG_INV22,), lam, nu, unchecked=True)),
    "inverse-involutive": ("ex2.3", lambda s, lam, nu, u: algebra_solution_inverse(
        s, _C.ALG_INV22, lam, nu, unchecked=True)),
    "build-invariant-u": ("ex4.3", lambda s, lam, nu, u: build(s, _C.LIE41, lam, nu, u=u)),
    "lie_solution-invariant-u": ("ex4.3", lambda s, lam, nu, u: lie_solution(s, u, lam, nu)),
}


@pytest.mark.parametrize("path", WARNING_PATHS)
def test_a_construction_warning_names_the_callers_line(path):
    entry_id, call = WARNING_PATHS[path]
    entry = catalog_get(entry_id)
    s = entry.structure
    lam, nu = symbols(s)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(s, lam, nu, entry.u_vector())
    assert caught and all(issubclass(w.category, ConstructionWarning) for w in caught)
    assert caught[0].filename == __file__
    assert {w.filename for w in caught} == {__file__}


class TestChybeR:
    def test_rank_one_tensor_from_bracket(self, ex43):
        lie = ex43.structure
        e1, e2 = lie.basis_vec(0), lie.basis_vec(1)
        u = ex43.u_vector()
        r = chybe_r(lie, e1, e2, u, 0, 0)
        # r = [e1,e2]⊗e3 = e1⊗e3, flat index 0*3+2
        assert r[2] == 1
        assert sum(1 for s in r if s.terms) == 1

    def test_twist_power_flips_sign(self, ex43):
        lie = ex43.structure
        e1, e2 = lie.basis_vec(0), lie.basis_vec(1)
        r = chybe_r(lie, e1, e2, ex43.u_vector(), 0, 1)
        assert r[2] == Scalar.constant(lie.params, -1)

    def test_antisymmetry_kills_equal_arguments(self, ex43):
        lie = ex43.structure
        e1 = lie.basis_vec(0)
        r = chybe_r(lie, e1, e1, ex43.u_vector(), 0, 0)
        assert all(not s.terms for s in r)

    def test_negative_power_needs_inverse(self, ex43):
        lie = ex43.structure
        e1, e2 = lie.basis_vec(0), lie.basis_vec(1)
        with pytest.raises(PreconditionError, match="inverse"):
            chybe_r(lie, e1, e2, ex43.u_vector(), -1, 0)

    def test_wrong_inverse_is_rejected(self, ex43):
        lie = ex43.structure
        e1, e2 = lie.basis_vec(0), lie.basis_vec(1)
        not_inverse = lie.alpha.scale(2)
        with pytest.raises(PreconditionError, match="not an inverse"):
            chybe_r(lie, e1, e2, ex43.u_vector(), -1, 0, alpha_inverse=not_inverse)

    def test_a_structure_failing_its_axioms_is_refused_by_name(self, ex43):
        doc = structure_to_dict(ex43.structure)
        doc["bracket"][2][2] = ["1", "0", "0"]  # [e3,e3] = e1 breaks the axioms
        lie = structure_from_dict(doc)
        failing = [sub.check_name for sub in validate(lie).subreports if not sub.holds]
        assert failing
        with pytest.raises(PreconditionError, match="fails axioms") as raised:
            chybe_r(lie, lie.basis_vec(0), lie.basis_vec(1), ex43.u_vector(), 0, 0)
        message = str(raised.value)
        assert all(name in message for name in failing)
        assert "unchecked" not in message  # chybe_r has no way to build anyway


class TestSystems:
    def test_unit_pair_column_of_w(self, ex23):
        a = ex23.structure
        lam, nu = symbols(a)
        w, z, x = system_algebra(a, lam, nu)
        # W(x1⊗x1) = x1x1⊗x1 + lam x1⊗x1x1 - alpha(x1)⊗alpha(x1) = lam x1⊗x1
        col = column_of(w, 0, 0)
        assert col[0] == lam
        assert sum(1 for s in col if s.terms) == 1

    def test_x_specializes_both_ways(self, ex23):
        a = ex23.structure
        lam, nu = symbols(a)
        w, z, x = system_algebra(a, lam, nu)
        assert w.matrix.substitute({"lam": 1}) == x.matrix
        assert z.matrix.substitute({"nu": 1}) == x.matrix

    def test_group_like_coalgebra_collapses_to_scalar(self):
        grouplike = structure(
            HomCoalgebra, name="group-like", basis=["g"], parameters=["lam", "nu"],
            counit=["1"], comult=[[[0, 0, "1"]]], alpha=[["1"]],
        )
        lam, nu = symbols(grouplike)
        w, z, x = system_coalgebra(grouplike, lam, nu)
        assert w.matrix[0, 0] == lam
        assert z.matrix[0, 0] == nu
        assert x.matrix[0, 0] == 1


class TestMalformedArguments:
    def test_short_u_is_refused(self, ex43):
        lie = ex43.structure
        lam, nu = symbols(lie)
        with pytest.raises(DimensionError, match="u must have length 3, got 2"):
            lie_solution(lie, ex43.u_vector()[:2], lam, nu)

    def test_algebra_builder_refuses_an_inverse_construction(self, ex23):
        a = ex23.structure
        lam, nu = symbols(a)
        message = "expected construction thm2.1 or thm2.4, got cor2.2"
        with pytest.raises(PreconditionError, match=message):
            algebra_solution(a, Construction.ALG_INV22, lam, nu)

    def test_chybe_r_refuses_a_short_x(self, ex43):
        lie = ex43.structure
        e1, e2 = lie.basis_vec(0), lie.basis_vec(1)
        with pytest.raises(DimensionError, match="x, y, u must have length 3"):
            chybe_r(lie, e1[:2], e2, ex43.u_vector(), 0, 0)

    def test_chybe_r_refuses_a_non_central_u(self, ex43):
        lie = ex43.structure
        e1, e2 = lie.basis_vec(0), lie.basis_vec(1)
        with pytest.raises(PreconditionError, match="u is not central"):
            chybe_r(lie, e1, e2, e1, 0, 0)


def test_build_many_checks_every_construction_before_it_builds(ex23, ex43, monkeypatch):
    calls = {"is_central": 0, "kron": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(homyb.constructions, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(homyb.constructions, name, counted)
    lie = ex43.structure
    lam, nu = symbols(lie)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstructionWarning)
        build_many(lie, (_C.LIE41, _C.LIE_INV42), lam, nu, u=ex43.u_vector())
    assert calls["is_central"] == 1  # u is checked once for the pair
    a = ex23.structure
    lam, nu = symbols(a)
    calls["kron"] = 0
    with pytest.raises(PreconditionError, match="lambda = 1 \\+ lam is not an invertible"):
        build_many(a, (_C.ALG21, _C.ALG_INV22), lam + 1, nu)
    assert calls["kron"] == 0  # thm2.1 is not built before cor2.2 is refused


@pytest.mark.parametrize("entry_id", ["ex2.3", "ex3.5", "ex4.3"])
def test_each_operator_is_summed_in_one_kernel_call(entry_id, monkeypatch):
    entry = catalog_get(entry_id)
    s, lam, nu = entry.structure, entry.lam(), entry.nu()
    legs = homyb.constructions._kind_legs(s, entry.u_vector())
    want = homyb.constructions._two_term_operator(legs, (lam, nu, lam * nu))
    calls = []
    for name in ("_accumulate", "_products"):
        def counted(*args, _name=name, _original=getattr(homyb.tensor, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(homyb.tensor, name, counted)
    got = homyb.constructions._two_term_operator(legs, (lam, nu, lam * nu))
    assert calls == ["_accumulate"]
    assert got == want == legs[0].scale(lam) + legs[1].scale(nu) - legs[2].scale(lam * nu)


# -- the axiom verdict a structure keeps -------------------------------------------


def counted_checks(monkeypatch) -> list:
    """A list that gains the report name of every run of the axiom checker `structures._check`."""
    calls, original = [], homyb.structures._check

    def counting(name, *args):
        calls.append(name)
        return original(name, *args)

    monkeypatch.setattr(homyb.structures, "_check", counting)
    return calls


def scaled_alpha(ex23):
    """ex2.3 with α scaled by a fresh parameter p: HA1 fails for symbolic p and holds at p = 1."""
    s = ex23.structure.extend(ParamSet((*ex23.structure.params.names, "p")))
    return replace(s, name="ex2.3-p", alpha=s.alpha.scale(parse_scalar("p", s.params)))


FAILS = "structure ex2.3-p fails axioms (HA1-mult, HA1-unit, HA2-unit)"


@pytest.mark.parametrize("validated_first", [True, False], ids=["validated", "unvalidated"])
def test_a_structure_is_validated_once_for_all_its_builds(ex23, validated_first, monkeypatch):
    a = ex23.structure.substitute({"l": 1})  # a new structure, with an involutive α
    lam, nu = symbols(a)
    calls = counted_checks(monkeypatch)
    if validated_first:
        assert validate(a).holds
    build(a, _C.ALG21, lam, nu)
    build(a, _C.ALG24, lam, nu)
    build_many(a, SYSTEMS["thm5.2"], lam, nu)
    build_many(a, (_C.ALG21, _C.ALG_INV22), lam, nu)
    assert calls == ["hom-algebra-axioms"]


@pytest.mark.parametrize("failing_first", [True, False], ids=["failing-first", "passing-first"])
def test_a_verdict_never_crosses_structures(ex23, failing_first, monkeypatch):
    scaled = scaled_alpha(ex23)
    at_one = scaled.substitute({"p": 1})
    lam, nu = symbols(scaled)
    calls = counted_checks(monkeypatch)
    for _ in range(2):
        for s in (scaled, at_one) if failing_first else (at_one, scaled):
            if s is scaled:
                with pytest.raises(PreconditionError) as raised:
                    build(s, _C.ALG21, lam, nu)
                assert str(raised.value) == FAILS
            else:
                assert build(s, _C.ALG21, lam, nu).source is at_one
    assert len(calls) == 2  # each structure once, whichever is built on first


def test_a_failing_verdict_is_kept_as_a_failure(ex23, monkeypatch):
    scaled = scaled_alpha(ex23)
    lam, nu = symbols(scaled)
    calls = counted_checks(monkeypatch)
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build(scaled, _C.ALG21, lam, nu, unchecked=True)
        assert [(w.category, str(w.message)) for w in caught] == [
            (ConstructionWarning, "building on a structure that fails axioms (HA1-mult, HA1-unit, HA2-unit)")
        ]
    for _ in range(2):
        with pytest.raises(PreconditionError) as raised:
            build(scaled, _C.ALG21, lam, nu)
        assert str(raised.value) == FAILS
    assert len(calls) == 1
