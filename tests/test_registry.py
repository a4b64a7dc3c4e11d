"""The construction registry and the catalog check lists are consistent by construction."""

import pytest

from homyb import (
    Construction,
    ConstructionWarning,
    HomAlgebra,
    HomCoalgebra,
    PreconditionError,
    Scalar,
    build,
    build_many,
    catalog_get,
    catalog_list,
    parse_scalar,
    verify_entry,
)
from homyb.catalog import _CHECKS
from homyb.cli import _build_parser
from homyb.constructions import CHECKS, INVERSE, RECIPES, SYSTEMS


def test_every_construction_has_exactly_one_recipe():
    assert list(RECIPES) == list(Construction)


def test_every_inverse_names_a_forward_recipe_of_the_same_kind():
    inverses = {c: r for c, r in RECIPES.items() if r.inverts is not None}
    assert len(inverses) == 5
    for construction, recipe in inverses.items():
        forward = RECIPES[recipe.inverts]
        assert forward.inverts is None
        assert forward.kind is recipe.kind
        assert INVERSE[recipe.inverts] is construction


def test_systems_are_flipped_triples_of_one_kind():
    for name, triple in SYSTEMS.items():
        recipes = [RECIPES[c] for c in triple]
        assert [c.value for c in triple] == [f"{name}-{t}" for t in "WZX"]
        assert all(r.flipped and r.kind is recipes[0].kind for r in recipes)
    assert {RECIPES[t[0]].kind for t in SYSTEMS.values()} == {HomAlgebra, HomCoalgebra}


@pytest.mark.parametrize("construction", [Construction.ALG_INV22, Construction.ALG_INV24])
def test_an_inverse_power_needs_a_monomial(ex23, construction):
    a = ex23.structure.substitute({"l": 1})
    lam, nu = parse_scalar("lam", a.params), parse_scalar("nu", a.params)
    with pytest.raises(PreconditionError, match="nu = nu \\+ lam is not an invertible"):
        build(a, construction, lam, lam + nu)
    build(a, construction, lam, nu)


def test_the_lie_inverse_takes_any_lambda(ex43):
    lie = ex43.structure
    lam_plus_one = parse_scalar("lam + 1", lie.params)
    with pytest.warns(ConstructionWarning, match="alpha-invariant"):
        binv = build(lie, Construction.LIE_INV42, lam_plus_one, lam_plus_one, u=ex43.u_vector())
    assert binv.lam == lam_plus_one


@pytest.mark.parametrize("entry_id", [eid for eid, _ in catalog_list()])
def test_check_list_yields_exactly_the_expectations(entry_id):
    entry = catalog_get(entry_id)
    assert all(check in _CHECKS for check in entry.checks)
    assert tuple(entry.expectations()) == entry.check_names()
    assert entry.expected_failures <= set(entry.check_names())
    report = verify_entry(entry)
    assert [sub.check_name for sub in report.subreports] == list(entry.expectations())


def test_the_cli_offers_exactly_the_shared_checks():
    verify = next(a for a in _build_parser()._actions if a.dest == "command").choices["verify"]
    assert next(a for a in verify._actions if a.dest == "check").choices == tuple(CHECKS)


def test_build_refuses_a_structure_of_another_kind(ex33):
    c = ex33.structure
    lam = parse_scalar("lam", c.params)
    with pytest.raises(PreconditionError, match="requires a hom-algebra structure, not hom-co"):
        build(c, Construction.ALG21, lam, lam)


def test_lie_pair_is_built_at_nu_one(ex43):
    lie = ex43.structure
    lam, nu = parse_scalar("lam", lie.params), parse_scalar("nu", lie.params)
    with pytest.warns(ConstructionWarning, match="alpha-invariant"):
        b, binv = build_many(
            lie, (Construction.LIE41, Construction.LIE_INV42), lam, nu, u=ex43.u_vector()
        )
    one = Scalar.one(lie.params)
    assert b.nu == one and binv.nu == one
    with pytest.raises(PreconditionError, match="requires a central element u"):
        build(lie, Construction.LIE41, lam, nu)
