"""The paper's two-term operators Baxterize to a spectral pencil.

With T = α⊗α, B₂.₁ = thm2.1(λ, ν) and B₂.₄ = thm2.4(λ, ν), write
B(t) = B₂.₁ − t·B₂.₄ = (1 − t)(λL + νR) − (λ − νt)T, and the same with
thm3.1 and thm3.4 on coalgebras.  These identities are not claims of the
paper; the exact checker found them, and each holds with λ, ν, x, y and every
parameter of the entry symbolic:

- the Hom spectral braid equation
  (α⊗B(y))(B(xy)⊗α)(α⊗B(x)) = (B(x)⊗α)(α⊗B(xy))(B(y)⊗α), the braid word
  of three distinct operators;
- B(1) = (ν − λ)T, so the pencil is regular;
- B(x)·B(x⁻¹) = (λ − νx)(λ − νx⁻¹)·T², so it is unitary.

ex2.5-verbatim, which fails the HA2-assoc axiom and hybe, fails the spectral
equation too.
"""

import warnings

import pytest

from homyb import ConstructionWarning, build, catalog_get, kron, parse_scalar
from homyb.constructions import Construction
from homyb.verify import _braid
from conftest import in_skewed_basis

ENDS = {
    "ex2.3": (Construction.ALG21, Construction.ALG24),
    "ex2.5": (Construction.ALG21, Construction.ALG24),
    "ex2.5-verbatim": (Construction.ALG21, Construction.ALG24),
    "ex3.3": (Construction.COALG31, Construction.COALG34),
    "ex3.5": (Construction.COALG31, Construction.COALG34),
}
HOLDS = [entry_id for entry_id in ENDS if entry_id != "ex2.5-verbatim"]


def pencil(entry):
    """t ↦ B(t) over the entry's parameters plus x and y, with α, T and a parser for them."""
    s = entry.structure
    s = s.extend(s.params.union(["x", "y"]))

    def scalar(text):
        return parse_scalar(text, s.params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstructionWarning)  # ex2.5-verbatim fails an axiom
        b1, b4 = (build(s, c, scalar("lam"), scalar("nu"), unchecked=True).matrix for c in ENDS[entry.id])
    return (lambda t: b1 - b4.scale(t)), s.alpha, kron(s.alpha, s.alpha), scalar


def spectral_word(entry):
    """The residual of the Hom spectral braid equation, the braid word of B(y), B(xy), B(x)."""
    b, alpha, _, scalar = pencil(entry)
    return _braid(b(scalar("y")), b(scalar("x*y")), b(scalar("x")), alpha)


@pytest.mark.parametrize("entry_id", HOLDS)
def test_the_pencil_satisfies_the_spectral_braid_equation(entry_id):
    assert spectral_word(catalog_get(entry_id)).is_zero()


@pytest.mark.parametrize("entry_id", ["ex2.3", "ex3.5"])
def test_the_spectral_equation_holds_on_padded_legs(entry_id):
    # off monomial form the three distinct operators run on the identity-padded legs
    entry = in_skewed_basis(catalog_get(entry_id))
    assert entry.structure.alpha.term_count() > entry.structure.dim
    assert spectral_word(entry).is_zero()


def test_the_spectral_equation_fails_where_hybe_does():
    assert len(list(spectral_word(catalog_get("ex2.5-verbatim")).nonzero())) == 30


@pytest.mark.parametrize("entry_id", ["ex2.3", "ex3.5"])
def test_the_spectral_word_is_not_vacuous(entry_id):
    # the parameters multiply: with B(x + y) in the middle the word does not vanish
    b, alpha, _, scalar = pencil(catalog_get(entry_id))
    assert not _braid(b(scalar("y")), b(scalar("x + y")), b(scalar("x")), alpha).is_zero()


@pytest.mark.parametrize("entry_id", ENDS)
def test_the_pencil_is_regular(entry_id):
    b, _, t, scalar = pencil(catalog_get(entry_id))
    assert b(scalar("1")) == t.scale(scalar("nu - lam"))


@pytest.mark.parametrize("entry_id", ENDS)
def test_the_pencil_is_unitary(entry_id):
    b, _, t, scalar = pencil(catalog_get(entry_id))
    factor = scalar("(lam - nu*x)*(lam - nu*x^-1)")
    assert b(scalar("x")) @ b(scalar("x^-1")) == (t @ t).scale(factor)
