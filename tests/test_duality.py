"""Duality: a finite-dimensional Hom-coalgebra is the dual of a Hom-algebra.

The dual transposes α and swaps μ with Δ and η with ε.  Each coalgebra
construction is then the transpose of an algebra construction on the dual,
with λ and ν swapped for the single operators and inverses, and at the same
(λ, ν) for the Thm 5.2/5.3 systems.  So in finite dimension Thm 3.1, 3.4,
Cor 3.2 and Thm 5.3 follow from Thm 2.1, 2.4, Cor 2.2 and Thm 5.2.
"""

import warnings

import pytest

from homyb import HomAlgebra, build, build_many, catalog_get, validate
from homyb.constructions import SYSTEMS, Construction
from homyb.errors import ConstructionWarning

from families import dual, transpose

ENTRIES = ("ex2.3", "ex2.5", "ex2.5-verbatim", "ex3.3", "ex3.5")

# algebra axiom -> the coalgebra axiom it becomes on the dual
DUAL_AXIOM = {"HA1-mult": "HC1-comult", "HA1-unit": "HC1-counit",
              "HA2-assoc": "HC2-coassoc", "HA2-unit": "HC2-counit"}

# coalgebra construction at (λ, ν) -> the algebra construction whose transpose it is at (ν, λ)
TRANSPOSE_OF = {"thm3.4": "thm2.1", "thm3.1": "thm2.4",
                "cor3.2": "thm2.4-inverse", "thm3.4-inverse": "cor2.2"}


def pair(entry_id):
    """(algebra, coalgebra, λ, ν): the entry's structure and its dual, the algebra first."""
    entry = catalog_get(entry_id)
    s = entry.structure
    algebra, coalgebra = (s, dual(s)) if isinstance(s, HomAlgebra) else (dual(s), s)
    return algebra, coalgebra, entry.lam(), entry.nu()


@pytest.fixture(autouse=True)
def _quiet():
    # inverses are built unchecked where α is not involutive, and ex2.5-verbatim fails its axioms
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstructionWarning)
        yield


@pytest.mark.parametrize("entry_id", ENTRIES)
def test_the_dual_of_the_dual_is_the_structure(entry_id):
    s = catalog_get(entry_id).structure
    back = dual(dual(s))
    assert type(back) is type(s)
    assert all(getattr(back, key) == getattr(s, key) for key in s._maps)


@pytest.mark.parametrize("entry_id", ENTRIES)
def test_axiom_verdicts_agree_subcheck_by_subcheck(entry_id):
    algebra, coalgebra, _, _ = pair(entry_id)
    verdicts = {DUAL_AXIOM[sub.check_name]: sub.holds for sub in validate(algebra).subreports}
    assert verdicts == {sub.check_name: sub.holds for sub in validate(coalgebra).subreports}
    assert validate(algebra).holds == (entry_id != "ex2.5-verbatim")


@pytest.mark.parametrize("coalgebra_construction", TRANSPOSE_OF)
@pytest.mark.parametrize("entry_id", ENTRIES)
def test_a_coalgebra_operator_is_an_algebra_operator_transposed(entry_id, coalgebra_construction):
    algebra, coalgebra, lam, nu = pair(entry_id)
    c = build(coalgebra, Construction(coalgebra_construction), lam, nu, unchecked=True)
    a = build(algebra, Construction(TRANSPOSE_OF[coalgebra_construction]), nu, lam, unchecked=True)
    assert c.matrix == transpose(a.matrix)


@pytest.mark.parametrize("entry_id", ENTRIES)
def test_the_thm53_system_is_the_thm52_system_transposed(entry_id):
    algebra, coalgebra, lam, nu = pair(entry_id)
    coalgebra_triple = build_many(coalgebra, SYSTEMS["thm5.3"], lam, nu, unchecked=True)
    algebra_triple = build_many(algebra, SYSTEMS["thm5.2"], lam, nu, unchecked=True)
    assert [op.matrix for op in coalgebra_triple] == [transpose(op.matrix) for op in algebra_triple]
