"""The paper's two-term operators are Hom-Hecke, and invert each other up to T².

Write T = α⊗α, B₂.₁ = thm2.1(λ, ν) = λL + νR − λT and
B₂.₄ = thm2.4(λ, ν) = λL + νR − νT, and the same for thm3.1 and thm3.4 on
coalgebras.  These identities are not claims of the paper; the exact checker
found them, and each holds with λ, ν and every parameter of the entry symbolic:

- the Hecke relations (B₂.₁ − νT)(B₂.₁ + λT) = 0 and (B₂.₄ − λT)(B₂.₄ + νT) = 0;
- B₂.₁·B₂.₄ = B₂.₄·B₂.₁ = λν·T², an inverse for any invertible twist, of which
  the involutive inverses (Cor 2.2, Cor 3.2) are the case T² = id.

ex2.5-verbatim fails the HA2-assoc axiom, yet obeys both: they rest on fewer
axioms than the HYBE.
"""

import warnings

import pytest

from homyb import ConstructionWarning, Matrix, build, catalog_get, kron
from homyb.constructions import Construction

PAIRS = {
    "ex2.3": (Construction.ALG21, Construction.ALG24),
    "ex2.5": (Construction.ALG21, Construction.ALG24),
    "ex2.5-verbatim": (Construction.ALG21, Construction.ALG24),
    "ex3.3": (Construction.COALG31, Construction.COALG34),
    "ex3.5": (Construction.COALG31, Construction.COALG34),
}


def operators(entry_id):
    """B₂.₁ and B₂.₄ (or B₃.₁ and B₃.₄) of the entry, T = α⊗α, λ and ν."""
    entry = catalog_get(entry_id)
    s, lam, nu = entry.structure, entry.lam(), entry.nu()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstructionWarning)  # ex2.5-verbatim fails an axiom
        b1, b4 = (build(s, c, lam, nu, unchecked=True).matrix for c in PAIRS[entry_id])
    return b1, b4, kron(s.alpha, s.alpha), lam, nu


@pytest.mark.parametrize("entry_id", PAIRS)
def test_hecke_relations(entry_id):
    b1, b4, t, lam, nu = operators(entry_id)
    assert ((b1 - t.scale(nu)) @ (b1 + t.scale(lam))).is_zero()
    assert ((b4 - t.scale(lam)) @ (b4 + t.scale(nu))).is_zero()
    # with λ and ν swapped the relation fails, so the check above is not vacuous
    assert not ((b1 - t.scale(lam)) @ (b1 + t.scale(nu))).is_zero()


@pytest.mark.parametrize("entry_id", PAIRS)
def test_the_two_operators_invert_each_other_up_to_t_squared(entry_id):
    b1, b4, t, lam, nu = operators(entry_id)
    square = (t @ t).scale(lam * nu)
    assert b1 @ b4 == square
    assert b4 @ b1 == square


def test_the_inverse_is_not_the_identity_where_t_squared_is_not():
    # ex2.3 has α = diag(1, 1, l), so T² ≠ id, and B₂.₁·B₂.₄ is λν·T², not λν·I
    b1, b4, t, lam, nu = operators("ex2.3")
    ident = Matrix.identity(t.rows, t.params)
    assert t @ t != ident
    assert b1 @ b4 != ident.scale(lam * nu)
