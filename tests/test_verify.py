"""Identity checkers: braid form, inverse laws, commutators, classical condition."""

import random
import re
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import homyb.verify
from homyb import (
    Construction,
    ConstructionWarning,
    DimensionError,
    HomLieAlgebra,
    Matrix,
    ParamSet,
    Scalar,
    Witness,
    algebra_solution,
    algebra_solution_inverse,
    build,
    build_many,
    catalog_get,
    chybe_holds,
    chybe_r,
    commutes_with_alpha,
    flip,
    hybe_holds,
    inverse_holds,
    kron,
    leg12,
    leg13,
    leg23,
    lie_solution,
    lie_solution_inverse,
    parse_scalar,
    product_difference,
    system_algebra,
    system_coalgebra,
    system_holds,
    tensor2,
    validate,
    verify_entry,
    yb_commutator,
)
from homyb._record import replace
from homyb.constructions import INVERSE, RECIPES, SYSTEMS
from homyb.files import structure_from_dict
from homyb.tensor import permute_rows
from homyb.verify import _braid, _report
from conftest import PS2, in_skewed_basis, random_assignment, structure


def build_ex23_operator(ex23):
    a = ex23.structure
    lam = parse_scalar("lam", a.params)
    nu = parse_scalar("nu", a.params)
    return algebra_solution(a, Construction.ALG21, lam, nu)


def build_ex43_operator(ex43, nu_expr="nu"):
    lie = ex43.structure
    lam = parse_scalar("lam", lie.params)
    nu = parse_scalar(nu_expr, lie.params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstructionWarning)
        return lie_solution(lie, ex43.u_vector(), lam, nu)


class TestCommutesWithAlpha:
    def test_identity_always_commutes(self, ex23):
        alpha = ex23.structure.alpha
        b = Matrix.identity(9, ex23.structure.params)
        assert commutes_with_alpha(b, alpha).holds

    def test_algebra_operator_commutes_symbolically(self, ex23):
        op = build_ex23_operator(ex23)
        assert commutes_with_alpha(op.matrix, ex23.structure.alpha).holds

    def test_flip_commutes_with_any_twist_square(self):
        # tau(f⊗f) = (f⊗f)tau holds identically, even for non-diagonalizable f
        alpha = Matrix.from_rows(
            PS2, [[Scalar.one(PS2), Scalar.one(PS2)], [Scalar.zero(PS2), Scalar.one(PS2)]]
        )
        assert commutes_with_alpha(flip(2, 2, PS2), alpha).holds

    def test_failure_carries_a_witness(self):
        alpha = Matrix.from_rows(
            PS2, [[Scalar.one(PS2), Scalar.one(PS2)], [Scalar.zero(PS2), Scalar.one(PS2)]]
        )
        e01 = Matrix.zeros(4, 4, PS2)
        data = list(e01.data)
        data[0 * 4 + 1] = Scalar.one(PS2)
        b = Matrix(4, 4, PS2, data)
        report = commutes_with_alpha(b, alpha)
        assert not report.holds
        assert any((w.row, w.col) == (0, 3) for w in report.witnesses)

    def test_lie_operator_fails_when_twist_moves_u(self, ex43):
        op = build_ex43_operator(ex43)
        assert not commutes_with_alpha(op.matrix, ex43.structure.alpha).holds


def z6_document():
    """k[Z_6] twisted by g ↦ g^5, over λ and ν only, as a structure file document."""
    n = 6

    def delta(i, j):
        return "1" if i == j else "0"

    return {
        "format_version": 1, "kind": "hom-algebra", "name": "Z6", "dim": n,
        "basis": [f"e{i}" for i in range(n)], "parameters": ["lam", "nu"],
        "alpha": [[delta(r, 5 * i % n) for i in range(n)] for r in range(n)],
        "unit": [delta(i, 0) for i in range(n)],
        "mult": [[[delta(r, 5 * (i + j) % n) for r in range(n)] for j in range(n)]
                 for i in range(n)],
    }


class TestHybe:
    def test_keys_of_the_cube_fit_one_digit(self, monkeypatch):
        # CPython keeps an int of absolute value below 2^30 in one digit; every
        # wider packed key makes each add, hash and probe of the kernels slower
        s = structure_from_dict(z6_document())
        lam, nu = parse_scalar("lam", s.params), parse_scalar("nu", s.params)
        operands = []

        def recorded(*matrices):
            operands.extend(matrices)
            return product_difference(*matrices)

        monkeypatch.setattr(homyb.verify, "product_difference", recorded)
        for construction in (Construction.ALG21, Construction.ALG24):
            assert hybe_holds(build(s, construction, lam, nu).matrix, s.alpha).holds
        # the operands are P, α⊗B, B⊗α and P again, with P = (α⊗B)(B⊗α)
        assert len(operands) == 8 and {m.rows for m in operands} == {216}
        keys = [k for m in operands for row in m._rows for k in row]
        assert keys and all(-(2 ** 30) < k < 2 ** 30 for k in keys)

    def test_identity_operator(self, ex23):
        # with B = id the two composites are alpha^2⊗1⊗alpha and alpha⊗1⊗alpha^2:
        # equal for idempotent or identity twists, not in general
        params = ex23.structure.params
        assert hybe_holds(Matrix.identity(9, params), Matrix.identity(3, params)).holds
        report = hybe_holds(Matrix.identity(9, params), ex23.structure.alpha)
        assert not report.holds
        assert any(
            (w.row, w.col) == (2, 2) and w.residual == parse_scalar("l - l^2", params)
            for w in report.witnesses
        )

    def test_a_passing_residual_stores_each_row_as_a_fresh_empty_dict(self, ex25):
        # every row of the cube cancels; an emptied dict would keep the table it grew to
        b = build(ex25.structure, ex25.variant, ex25.lam(), ex25.nu()).matrix
        residual = _braid(b, b, b, ex25.structure.alpha)
        assert residual.is_zero() and residual.rows == 64
        assert all(sys.getsizeof(row) == sys.getsizeof({}) for row in residual._rows)

    def test_3dim_algebra_operator_symbolically(self, ex23):
        op = build_ex23_operator(ex23)
        assert hybe_holds(op.matrix, ex23.structure.alpha).holds

    def test_lie_operator_with_moved_u_fails_at_two_entries(self, ex43):
        # independent hand computation: the residual is supported on exactly the
        # entries (e1⊗e3⊗e3 ; e1⊗e2⊗e2) and (e1⊗e3⊗e3 ; e2⊗e1⊗e2), with values
        # +-2*lam^2*nu
        op = build_ex43_operator(ex43)
        report = hybe_holds(op.matrix, ex43.structure.alpha, witness_cap=None)
        assert not report.holds
        params = ex43.structure.params
        expected = {
            (8, 4): parse_scalar("2*lam^2*nu", params),
            (8, 10): parse_scalar("-2*lam^2*nu", params),
        }
        assert {(w.row, w.col): w.residual for w in report.witnesses} == expected

    def test_lie_operator_passes_when_twist_fixes_u(self, ex43):
        # same bracket, identity twist: the invariance hypothesis holds
        lie = ex43.structure
        fixed = structure(
            HomLieAlgebra,
            name="control",
            basis=list(lie.basis),
            parameters=list(lie.params.names),
            bracket=[
                [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]],
                [["-1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            ],
            alpha=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        )
        lam = parse_scalar("lam", lie.params)
        nu = parse_scalar("nu", lie.params)
        op = lie_solution(fixed, fixed.basis_vec(2), lam, nu)
        assert hybe_holds(op.matrix, fixed.alpha).holds
        assert commutes_with_alpha(op.matrix, fixed.alpha).holds

    def test_basis_independence_under_commuting_conjugation(self, ex23):
        # conjugate by P⊗P for an invertible P with P·alpha = alpha·P
        a = ex23.structure
        params = a.params
        op = build_ex23_operator(ex23)
        p = Matrix.from_rows(
            params,
            [
                [parse_scalar(x, params) for x in row]
                for row in (["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"])
            ],
        )
        p_inv = Matrix.from_rows(
            params,
            [
                [parse_scalar(x, params) for x in row]
                for row in (["1", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1/3"])
            ],
        )
        assert p @ a.alpha == a.alpha @ p
        pp = kron(p, p)
        pp_inv = kron(p_inv, p_inv)
        conjugated = pp @ op.matrix @ pp_inv
        assert hybe_holds(conjugated, a.alpha).holds == hybe_holds(op.matrix, a.alpha).holds


class TestInverse:
    def test_flip_is_self_inverse(self):
        f = flip(3, 3, PS2)
        assert inverse_holds(f, f).holds

    def test_lie_pair_on_published_example(self, ex43):
        lie = ex43.structure
        lam = parse_scalar("lam", lie.params)
        b = build_ex43_operator(ex43, nu_expr="1")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstructionWarning)
            binv = lie_solution_inverse(lie, ex43.u_vector(), lam)
        report = inverse_holds(b.matrix, binv.matrix)
        assert report.holds
        assert [s.check_name for s in report.subreports] == [
            "inverse:B∘Binv",
            "inverse:Binv∘B",
        ]

    def test_algebra_pair_fails_without_involutivity(self, ex23):
        a = ex23.structure
        lam = parse_scalar("lam", a.params)
        nu = parse_scalar("nu", a.params)
        b = algebra_solution(a, Construction.ALG21, lam, nu)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstructionWarning)
            binv = algebra_solution_inverse(
                a, Construction.ALG_INV22, lam, nu, unchecked=True
            )
        report = inverse_holds(b.matrix, binv.matrix, witness_cap=None)
        assert not report.holds
        for w in report.witnesses:
            assert w.residual.substitute({"l": 1}).is_zero()
            assert w.residual.substitute({"l": -1}).is_zero()

    def test_witnesses_sorted_and_capped(self, ex23):
        a = ex23.structure
        lam = parse_scalar("lam", a.params)
        nu = parse_scalar("nu", a.params)
        b = algebra_solution(a, Construction.ALG21, lam, nu)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstructionWarning)
            binv = algebra_solution_inverse(
                a, Construction.ALG_INV22, lam, nu, unchecked=True
            )
        report = inverse_holds(b.matrix, binv.matrix, witness_cap=3)
        assert len(report.witnesses) == 3
        keys = [(w.row, w.col) for w in report.witnesses]
        assert keys == sorted(keys)


class TestCommutatorAndSystems:
    def test_all_identities_give_zero(self):
        n = 2
        i_n = Matrix.identity(n, PS2)
        i_nn = Matrix.identity(n * n, PS2)
        assert yb_commutator(i_nn, i_nn, i_nn, (n, n, n), i_n, i_n, i_n).is_zero()

    def test_flip_satisfies_classical_commutator(self):
        n = 2
        f = flip(n, n, PS2)
        i_n = Matrix.identity(n, PS2)
        assert yb_commutator(f, f, f, (n, n, n), i_n, i_n, i_n).is_zero()

    def test_algebra_system_on_3dim_example(self, ex23):
        a = ex23.structure
        lam = parse_scalar("lam", a.params)
        nu = parse_scalar("nu", a.params)
        w, z, x = system_algebra(a, lam, nu)
        report = system_holds(w, z, x, a.alpha)
        assert report.holds
        assert [s.check_name for s in report.subreports] == [
            "[W,W,W]",
            "[Z,Z,Z]",
            "[W,X,X]",
            "[X,X,Z]",
        ]
        www = yb_commutator(
            w.matrix, w.matrix, w.matrix, (3, 3, 3), a.alpha, a.alpha, a.alpha
        )
        assert www.is_zero()

    def test_coalgebra_system_on_3dim_example(self, ex33):
        c = ex33.structure
        lam = parse_scalar("lam", c.params)
        nu = parse_scalar("nu", c.params)
        w, z, x = system_coalgebra(c, lam, nu)
        assert system_holds(w, z, x, c.alpha).holds

    def test_a_failing_system_matches_its_left_associated_commutators(self, ex23):
        # ex2.3's thm5.2 triple with X replaced by the thm2.1 operator fails
        # [W,X,X] and [X,X,Z]; the report keeps every witness of R¹²S¹³ times T²³
        # minus T²³S¹³ times R¹², in the order the left-associated residual gives
        a, lam, nu = ex23.structure, ex23.lam(), ex23.nu()
        w, z, _ = (op.matrix for op in build_many(a, SYSTEMS["thm5.2"], lam, nu))
        x = build(a, Construction.ALG21, lam, nu).matrix
        alpha, n = a.alpha, a.dim
        report = system_holds(w, z, x, alpha, witness_cap=None)
        expected = []
        for name, (r, s, t) in system_commutators(w, z, x):
            r12, s13, t23 = leg12(r, alpha), leg13(s, alpha, n, n), leg23(t, alpha)
            residual = product_difference(r12 @ s13, t23, t23 @ s13, r12)
            expected.append((name, [Witness(i, j, v, name) for i, j, v in residual.nonzero()]))
        assert [len(witnesses) for _, witnesses in expected] == [0, 0, 80, 92]
        assert [(p.check_name, p.witnesses) for p in report.subreports] == expected
        assert [p.metadata["witness_count"] for p in report.subreports] == ["0", "0", "80", "92"]
        assert not report.holds
        assert report.witnesses == sorted(
            (w for _, witnesses in expected for w in witnesses),
            key=lambda w: (w.row, w.col, w.label),
        )

    def test_each_leg_embedding_is_built_once(self, ex23, monkeypatch):
        # the four conditions share their legs α⊗τX and τX⊗α: six kron embeddings
        # for W, Z and X, two when one operator stands for all three, and no leg13;
        # sharing them changes no subreport of the failing triple above
        a, lam, nu = ex23.structure, ex23.lam(), ex23.nu()
        w, z, _ = (op.matrix for op in build_many(a, SYSTEMS["thm5.2"], lam, nu))
        x = build(a, Construction.ALG21, lam, nu).matrix
        n, alpha = a.dim, a.alpha
        expected = [
            (name, _report(name, yb_commutator(r, s, t, (n, n, n), alpha, alpha, alpha), None,
                           label=name).witnesses)
            for name, (r, s, t) in system_commutators(w, z, x)
        ]
        calls = []
        kron_ = homyb.verify.kron
        monkeypatch.setattr(homyb.verify, "kron", lambda p, q: calls.append((p, q)) or kron_(p, q))
        for leg in ("leg12", "leg13", "leg23"):
            monkeypatch.setattr(homyb.verify, leg, lambda *args, leg=leg: pytest.fail(f"{leg} called"))
        tau = flip(n, n, a.params)

        def embedded(ops):
            # which of `ops` the embeddings flip: each flipped operator once on each side
            lefts = [q for p, q in calls if p is alpha]
            rights = [p for p, q in calls if q is alpha]
            assert len(calls) == 2 * len(ops) == len(lefts) + len(rights)
            assert sorted(map(id, lefts)) == sorted(map(id, rights))
            return sorted(next(i for i, op in enumerate(ops) if tau @ op == b) for b in lefts)

        report = system_holds(w, z, x, alpha, witness_cap=None)
        assert embedded((w, z, x)) == [0, 1, 2]
        assert [(p.check_name, p.witnesses) for p in report.subreports] == expected
        calls.clear()
        assert system_holds(w, w, w, alpha).holds
        assert embedded((w,)) == [0]

    def test_identity_system(self):
        i2 = Matrix.identity(2, PS2)
        i4 = Matrix.identity(4, PS2)
        assert system_holds(i4, i4, i4, i2).holds


class TestChybe:
    def test_bracket_tensor_from_published_example(self, ex43):
        lie = ex43.structure
        r = chybe_r(lie, lie.basis_vec(0), lie.basis_vec(1), ex43.u_vector(), 0, 0)
        report = chybe_holds(r, lie)
        assert report.holds
        assert "typo_readings" in report.metadata

    def test_the_middle_legs_are_swapped_with_no_product(self, ex43, monkeypatch):
        # r⊗r's middle legs are swapped by moving its rows, not by the product (I⊗τ⊗I)·(r⊗r)
        lie = ex43.structure
        r = chybe_r(lie, lie.basis_vec(0), lie.basis_vec(1), ex43.u_vector(), 0, 0)
        calls = []
        matmul = Matrix.__matmul__
        monkeypatch.setattr(Matrix, "__matmul__", lambda a, c: calls.append(1) or matmul(a, c))
        assert chybe_holds(r, lie).holds
        assert calls == []

    def test_zero_tensor_holds(self, ex43):
        lie = ex43.structure
        zero = tuple(Scalar.zero(lie.params) for _ in range(9))
        assert chybe_holds(zero, lie).holds

    def test_non_solution_fails_with_predicted_witness(self, ex43):
        lie = ex43.structure
        r = tensor2(lie.basis_vec(0), lie.basis_vec(1))
        report = chybe_holds(r, lie)
        assert not report.holds
        # middle bracket contributes alpha(e1)⊗[e2,e1]⊗alpha(e2) = -e1⊗e1⊗e2,
        # flat index (0*3+0)*3+1 = 1
        assert len(report.witnesses) == 1
        w = report.witnesses[0]
        assert (w.row, w.col) == (1, 0)
        assert w.residual == Scalar.constant(lie.params, -1)


def heisenberg(alpha_diagonal):
    """h3 with [e1,e2] = e3 over Q[s^±, lam, nu], twisted by a diagonal α."""
    zero = ["0", "0", "0"]
    bracket = [[zero, ["0", "0", "1"], zero], [["0", "0", "-1"], zero, zero], [zero] * 3]
    alpha = [[x if i == j else "0" for j in range(3)] for i, x in enumerate(alpha_diagonal)]
    return structure(
        HomLieAlgebra, name="h3", basis=["e1", "e2", "e3"], parameters=["s", "lam", "nu"],
        bracket=bracket, alpha=alpha,
    )


class TestHeisenberg:
    """The Heisenberg algebra, a Lie family beyond the catalog, with u = e3."""

    def build(self, lie, *constructions):
        lam, nu = (parse_scalar(x, lie.params) for x in ("lam", "nu"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstructionWarning)  # α(u) = -u
            return build_many(lie, constructions, lam, nu, u=lie.basis_vec(2))

    def test_alpha_fixing_the_centre_satisfies_thm41_and_chybe(self):
        lie = heisenberg(["s", "s^-1", "1"])
        assert validate(lie, True).holds
        (b,) = self.build(lie, Construction.LIE41)
        assert hybe_holds(b, lie.alpha).holds
        assert commutes_with_alpha(b, lie.alpha).holds
        inverse = heisenberg(["s^-1", "s", "1"]).alpha
        e1, e2, e3 = (lie.basis_vec(i) for i in range(3))
        for m, n in ((0, 0), (1, 2), (2, 1), (-1, -2)):
            r = chybe_r(lie, e1, e2, e3, m, n, alpha_inverse=inverse)
            assert chybe_holds(r, lie).holds, (m, n)

    def test_alpha_negating_the_centre_breaks_only_alpha_commute(self):
        # unlike ex4.3, where α(u) = -u also breaks hybe, hybe still holds here
        lie = heisenberg(["1", "-1", "-1"])
        assert validate(lie, True).holds
        (b,) = self.build(lie, Construction.LIE41)
        assert inverse_holds(*self.build(lie, Construction.LIE41, Construction.LIE_INV42)).holds
        assert not commutes_with_alpha(b, lie.alpha).holds
        assert hybe_holds(b, lie.alpha).holds


class TestSymbolicEvaluationAgreement:
    CASES = 5

    def _agrees(self, make_report, params):
        symbolic = make_report(lambda m: m).holds
        rng = random.Random(987654321)
        for _ in range(self.CASES):
            point = random_assignment(params, rng)
            evaluated = make_report(lambda m: m.substitute(point)).holds
            assert evaluated == symbolic

    def test_hybe_agreement(self, ex23):
        a = ex23.structure
        op = build_ex23_operator(ex23)
        self._agrees(
            lambda ev: hybe_holds(ev(op.matrix), ev(a.alpha)), a.params
        )

    def test_commutes_agreement(self, ex23):
        a = ex23.structure
        op = build_ex23_operator(ex23)
        self._agrees(
            lambda ev: commutes_with_alpha(ev(op.matrix), ev(a.alpha)), a.params
        )

    def test_failing_inverse_agreement(self, ex23):
        # generic rational points avoid l = +-1, so the verdict stays False
        a = ex23.structure
        lam = parse_scalar("lam", a.params)
        nu = parse_scalar("nu", a.params)
        b = algebra_solution(a, Construction.ALG21, lam, nu)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstructionWarning)
            binv = algebra_solution_inverse(
                a, Construction.ALG_INV22, lam, nu, unchecked=True
            )
        self._agrees(
            lambda ev: inverse_holds(ev(b.matrix), ev(binv.matrix)), a.params
        )

    def test_system_agreement(self, ex33):
        c = ex33.structure
        lam = parse_scalar("lam", c.params)
        nu = parse_scalar("nu", c.params)
        w, z, x = system_coalgebra(c, lam, nu)
        self._agrees(
            lambda ev: system_holds(
                ev(w.matrix), ev(z.matrix), ev(x.matrix), ev(c.alpha)
            ),
            c.params,
        )

    def test_chybe_agreement(self, ex23, ex43):
        lie = ex43.structure
        r = tensor2(lie.basis_vec(0), lie.basis_vec(1))
        symbolic = chybe_holds(r, lie).holds
        rng = random.Random(24680)
        for _ in range(self.CASES):
            point = random_assignment(lie.params, rng)
            evaluated = chybe_holds(
                tuple(s.substitute(point) for s in r), lie.substitute(point)
            ).holds
            assert evaluated == symbolic


# -- the fused residuals against the identities written out with @ and - ------------


def unfused(residual, label=""):
    return [Witness(i, j, s, label) for i, j, s in residual.nonzero()]


def system_commutators(w, z, x):
    return (("[W,W,W]", (w, w, w)), ("[Z,Z,Z]", (z, z, z)),
            ("[W,X,X]", (w, x, x)), ("[X,X,Z]", (x, x, z)))


# (check, construction) pairs that must fail, so that failing witness lists are compared
FAILING = {
    "ex2.3": {("inverse", Construction.ALG21)},
    "ex2.5-verbatim": {("hybe", Construction.ALG21)},
    "ex4.3": {("hybe", Construction.LIE41), ("alpha-commute", Construction.LIE41)},
}


class TestFusedResidualsMatchTheFormulas:
    @pytest.mark.parametrize("entry_id", ["ex2.3", "ex2.5", "ex2.5-verbatim", "ex3.3", "ex3.5", "ex4.3"])
    def test_every_construction_on_every_entry(self, entry_id):
        entry = catalog_get(entry_id)
        s = entry.structure
        alpha, n = s.alpha, s.dim
        lam, nu, u = entry.lam(), entry.nu(), entry.u_vector()
        in_systems = {c for triple in SYSTEMS.values() for c in triple}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstructionWarning)
            ops = {
                c: build(s, c, lam, nu, u=u, unchecked=True).matrix
                for c, recipe in RECIPES.items()
                if isinstance(s, recipe.kind) and c not in in_systems
            }
            systems = [
                [op.matrix for op in build_many(s, triple, lam, nu, unchecked=True)]
                for triple in SYSTEMS.values() if isinstance(s, RECIPES[triple[0]].kind)
            ]
        failed = set()
        aa = kron(alpha, alpha)
        for c, b in ops.items():
            ab, ba = kron(alpha, b), kron(b, alpha)
            for check, report, formula in (
                ("hybe", hybe_holds(b, alpha, witness_cap=None), ab @ ba @ ab - ba @ ab @ ba),
                ("alpha-commute", commutes_with_alpha(b, alpha, witness_cap=None), aa @ b - b @ aa),
            ):
                assert report.witnesses == unfused(formula), (check, c)
                if report.witnesses:
                    failed.add((check, c))
        ident = Matrix.identity(n * n, s.params)
        for forward, inverse in INVERSE.items():
            if forward not in ops:
                continue
            b, binv = ops[forward], ops[inverse]
            report = inverse_holds(b, binv, witness_cap=None)
            expected = [unfused(b @ binv - ident, "B∘Binv"), unfused(binv @ b - ident, "Binv∘B")]
            assert [part.witnesses for part in report.subreports] == expected, forward
            if not report.holds:
                failed.add(("inverse", forward))
        for w, z, x in systems:
            report = system_holds(w, z, x, alpha, witness_cap=None)
            expected = []
            for name, (r, s13, t) in system_commutators(w, z, x):
                r12, s13, t23 = leg12(r, alpha), leg13(s13, alpha, n, n), leg23(t, alpha)
                expected.append(unfused(r12 @ s13 @ t23 - t23 @ s13 @ r12, name))
            assert [part.witnesses for part in report.subreports] == expected
        assert FAILING.get(entry_id, set()) <= failed

    def test_a_passing_check_decodes_no_entry(self, monkeypatch):
        # entries are packed term maps; a Scalar is built only where an entry is
        # read, so a check that passes builds none, whatever the cube size: not
        # through the decoder `_new`, nor through the ring and its constructor
        checks = {}
        for entry_id, triple in (("ex2.3", "thm5.2"), ("ex2.5", "thm5.2"),
                                 ("ex3.3", "thm5.3"), ("ex3.5", "thm5.3")):
            entry = catalog_get(entry_id)
            s, lam, nu = entry.structure, entry.lam(), entry.nu()
            b = build(s, entry.variant, lam, nu).matrix
            w, z, x = build_many(s, SYSTEMS[triple], lam, nu)
            checks[entry_id, s.dim] = (
                lambda b=b, alpha=s.alpha: hybe_holds(b, alpha),
                lambda w=w, z=z, x=x, alpha=s.alpha: system_holds(w, z, x, alpha),
            )
        new, init = Scalar._new, Scalar.__init__
        made = []

        def counted(cls, params, terms):
            made.append(len(terms))
            return new(params, terms)

        def counted_init(self, params, terms):
            made.append(len(terms))
            init(self, params, terms)

        monkeypatch.setattr(Scalar, "_new", classmethod(counted))
        monkeypatch.setattr(Scalar, "__init__", counted_init)
        counts = {}
        for key, (hybe, system) in checks.items():
            for name, check in (("hybe", hybe), ("system", system)):
                made.clear()
                assert check().holds, (key, name)
                counts[key + (name,)] = len(made)
        assert {n for _, n in checks} == {3, 4}
        assert set(counts.values()) == {0}, counts

    def test_hybe_shares_its_middle_product_and_system_each_of_its_conditions(self, ex33, monkeypatch):
        # hybe's P = (α⊗B)(B⊗α), and in each condition the product of the two
        # neighbouring legs of the same flipped operator: one `@` each
        c = ex33.structure
        lam, nu = ex33.lam(), ex33.nu()
        b = build(c, Construction.COALG31, lam, nu).matrix
        w, z, x = system_coalgebra(c, lam, nu)
        calls = []
        matmul = Matrix.__matmul__

        def counted(self, other):
            calls.append((self.rows, other.cols))
            return matmul(self, other)

        monkeypatch.setattr(Matrix, "__matmul__", counted)
        assert hybe_holds(b, c.alpha).holds
        assert len(calls) == 1
        calls.clear()
        assert system_holds(w, z, x, c.alpha).holds
        assert len(calls) == 4


PS1 = ParamSet(["t"])


def laurent_matrix(rng, n, zeros):
    """An n×n matrix over t: each entry zero with probability `zeros`, else one to three terms."""
    def terms():
        if rng.random() < zeros:
            return {}
        return {(rng.randint(-2, 2),): rng.choice((-2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3))}
    return Matrix(n, n, PS1, [Scalar(PS1, terms()) for _ in range(n * n)])


def kron_leg_witnesses(b, w, z, x, alpha):
    """The hybe witnesses and the four system subreports' witnesses, from the kron-leg formulas."""
    n = alpha.rows
    ab, ba = kron(alpha, b), kron(b, alpha)
    system = []
    for name, (r, s, t) in system_commutators(w, z, x):
        r12, s13, t23 = leg12(r, alpha), leg13(s, alpha, n, n), leg23(t, alpha)
        system.append(unfused(r12 @ s13 @ t23 - t23 @ s13 @ r12, name))
    return unfused(ab @ ba @ ab - ba @ ab @ ba), system


class TestPaddedLegs:
    # an alpha with more terms than rows is multiplied into the operators, which
    # then embed on identity-padded legs; the residual is the kron-leg one, so
    # the witnesses and their order are too
    @pytest.mark.parametrize("n, seed", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1)])
    def test_padded_residuals_equal_the_kron_leg_residuals(self, n, seed):
        rng = random.Random(100 * n + seed)
        alpha = laurent_matrix(rng, n, zeros=0)
        assert alpha.term_count() > n
        b, w, z, x = (laurent_matrix(rng, n * n, zeros=0.75) for _ in range(4))
        hybe, system = kron_leg_witnesses(b, w, z, x, alpha)
        report = hybe_holds(b, alpha, witness_cap=None)
        assert report.witnesses == hybe and not report.holds
        report = system_holds(w, z, x, alpha, witness_cap=None)
        assert [part.witnesses for part in report.subreports] == system
        assert not report.holds

    @pytest.mark.parametrize("alpha, products", [
        ([["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]], (1, 4)),
        ([["t", "0", "0"], ["0", "-2*t^-1", "0"], ["0", "0", "1/3"]], (1, 4)),
        # (α⊗I)τB, (I⊗α)τB, S″ and S‴ of each operator, then two cube products per word
        ([["1", "t", "0"], ["0", "1", "0"], ["2", "0", "t^-1"]], (6, 20)),
    ], ids=["permutation", "monomial-diagonal", "dense"])
    def test_the_twist_alone_picks_the_legs(self, alpha, products, monkeypatch):
        # a monomial alpha keeps the kron legs and their shared middle products
        alpha = Matrix.from_rows(PS1, [[parse_scalar(e, PS1) for e in row] for row in alpha])
        rng = random.Random(5)
        b, w, z, x = (laurent_matrix(rng, 9, zeros=0.7) for _ in range(4))
        hybe, system = kron_leg_witnesses(b, w, z, x, alpha)
        calls = []
        matmul = Matrix.__matmul__
        monkeypatch.setattr(Matrix, "__matmul__", lambda a, c: calls.append(1) or matmul(a, c))
        assert hybe_holds(b, alpha, witness_cap=None).witnesses == hybe
        hybe_calls = len(calls)
        report = system_holds(w, z, x, alpha, witness_cap=None)
        assert (hybe_calls, len(calls) - hybe_calls) == products
        assert [part.witnesses for part in report.subreports] == system

    @pytest.mark.parametrize("entry_id", ["ex2.3", "ex2.5", "ex3.3", "ex3.5", "ex4.3"])
    def test_verdicts_survive_a_change_of_basis(self, entry_id):
        # `in_skewed_basis` takes each entry's alpha off monomial form, onto the padded legs
        entry = catalog_get(entry_id)
        kept = ("axioms", "alpha-commute", "hybe", "system")
        entry = replace(entry, checks=tuple(c for c in entry.checks if c in kept))
        moved = in_skewed_basis(entry)
        assert moved.structure.alpha.term_count() > entry.structure.dim
        verdicts = [{r.check_name: r.holds for r in verify_entry(e).subreports} for e in (entry, moved)]
        assert verdicts[1] == verdicts[0] == {c: c not in entry.expected_failures for c in entry.checks}
        assert len(verdicts[0]) == (3 if isinstance(entry.structure, HomLieAlgebra) else 4)


COEFFICIENT = st.sampled_from((-2, -1, 1, 2, 3, Fraction(1, 3)))


def monomial_twists():
    """A permutation of three coordinates times monomials in t."""
    entries = st.lists(st.tuples(st.integers(-2, 2), COEFFICIENT), min_size=3, max_size=3)
    return st.builds(
        lambda perm, mono: Matrix(3, 3, PS1, [
            Scalar(PS1, {(mono[i][0],): mono[i][1]} if perm[i] == j else {})
            for i in range(3) for j in range(3)]),
        st.permutations(range(3)), entries)


def dense_twists():
    """A monomial twist plus one more monomial: more terms than rows, so the words run on
    identity-padded legs."""
    def plus(alpha, i, j, e, c):
        extra = Matrix(3, 3, PS1, [Scalar(PS1, {(e,): c} if (r, k) == (i, j) else {})
                                   for r in range(3) for k in range(3)])
        return alpha + extra
    cell = st.integers(0, 2)
    return st.builds(plus, monomial_twists(), cell, cell, st.integers(-2, 2), COEFFICIENT).filter(
        lambda alpha: alpha.term_count() > 3)


DENSE = Matrix.from_rows(PS1, [[parse_scalar(e, PS1) for e in row]
                               for row in (["1", "t", "0"], ["0", "1", "0"], ["2", "0", "t^-1"])])


class TestBraidWords:
    # on either kind of alpha, [R,S,T] = P₁₃·braid(τR, τS, τT); the left-associated
    # R-form of `yb_commutator` is the oracle, witness for witness.  A smaller seed
    # draws unrelated matrices, not smaller ones, so shrinking would only cost time.
    @settings(max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.integers(0, 2 ** 32), st.one_of(monomial_twists(), dense_twists()))
    @example(0, DENSE)
    def test_flipped_braid_words_equal_the_commutators(self, seed, alpha):
        rng = random.Random(seed)
        w, z, x = (laurent_matrix(rng, 9, zeros=0.7) for _ in range(3))

        def oracle(name, r, s, t):
            return _report(name, yb_commutator(r, s, t, (3, 3, 3), alpha, alpha, alpha), None,
                           label=name).witnesses

        # [X,X,Z] has R is S, [W,X,X] has S is T, and [W,W,W] and [Z,Z,Z] all three
        report = system_holds(w, z, x, alpha, witness_cap=None)
        expected = [oracle(name, *ops) for name, ops in system_commutators(w, z, x)]
        assert [part.witnesses for part in report.subreports] == expected
        assert expected[2] and expected[3]
        # and three distinct operators, which no system condition has
        tau = [j * 3 + i for i in range(3) for j in range(3)]
        p13 = [(k * 3 + j) * 3 + i for i in range(3) for j in range(3) for k in range(3)]
        braid = _braid(*(permute_rows(op, tau) for op in (w, z, x)), alpha)
        distinct = oracle("[W,Z,X]", w, z, x)
        assert distinct and _report("[W,Z,X]", permute_rows(braid, p13), None,
                                    label="[W,Z,X]").witnesses == distinct


class TestErrorPaths:
    @pytest.mark.parametrize("call, message", [
        (lambda i2, i3, i4: commutes_with_alpha(i4, Matrix.zeros(2, 3, PS2)), "twist map must be square"),
        (lambda i2, i3, i4: hybe_holds(i3, i2), "operator must be square of size 2^2=4, got 3x3"),
        (lambda i2, i3, i4: inverse_holds(i4, i2), "inverse check needs equal square matrices"),
        (lambda i2, i3, i4: yb_commutator(i4, i4, i2, (2, 2, 2), i2, i2, i2),
         "commutator operand sizes do not match dims"),
        (lambda i2, i3, i4: yb_commutator(i4, i4, i4, (2, 2, 2), i2, i2, i3),
         "twist map sizes do not match dims"),
        (lambda i2, i3, i4: chybe_holds(i4.column(0), catalog_get("ex4.3").structure),
         "r must have length 9, got 4"),
    ], ids=["twist-not-square", "operator-size", "inverse-shapes", "commutator-operands",
            "commutator-twists", "chybe-r-length"])
    def test_each_size_mismatch_is_refused(self, call, message):
        with pytest.raises(DimensionError, match=re.escape(message)):
            call(*(Matrix.identity(n, PS2) for n in (2, 3, 4)))
