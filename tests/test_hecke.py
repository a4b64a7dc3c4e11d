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

On the Lie side, B₄.₁ = thm4.1(λ, ν) = λL − ν·T∘τ and its partner
λR − ν·T∘τ multiply to ν²·T² in both orders, so Cor 4.2, built at ν = 1,
extends to every ν.  It holds on ex4.3, although there α(u) = −u, and on
ex4.3 plus a central line c with α(c) = c and u = c.
"""

import warnings

import pytest

from homyb import ConstructionWarning, Matrix, build, catalog_get, flip, kron, parse_scalar
from homyb.constructions import Construction, _kind_legs, _two_term_operator
from homyb.files import structure_from_dict

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


def with_central_line():
    """ex4.3's bracket and α plus a basis vector c with [c, ·] = 0 and α(c) = c, and u = c."""
    zero, s = "0", catalog_get("ex4.3").structure
    alpha = [[str(s.alpha[i, j]) for j in range(3)] + [zero] for i in range(3)] + [[zero] * 3 + ["1"]]
    bracket = [[[str(x) for x in s.bracket.column(i * 3 + j)] + [zero] if i < 3 and j < 3 else [zero] * 4
                for j in range(4)] for i in range(4)]
    lie = structure_from_dict({"kind": "hom-lie", "dim": 4, "basis": ["e1", "e2", "e3", "c"],
                               "parameters": ["lam", "nu"], "alpha": alpha, "bracket": bracket})
    return lie, tuple(parse_scalar(x, lie.params) for x in ("0", "0", "0", "1"))


def lie_pair(lie, u, partner_twist="nu", flipped=True):
    """B₄.₁, the partner λR − twist·T∘τ (T∘τ unflipped on request), T = α⊗α and ν, as built."""
    lam, nu, twist = (parse_scalar(x, lie.params) for x in ("lam", "nu", partner_twist))
    left, right, t = _kind_legs(lie, u)
    t_tau = t @ flip(lie.dim, lie.dim, lie.params)
    b = _two_term_operator((left, right, t_tau), (lam, None, nu))
    partner = _two_term_operator((left, right, t_tau if flipped else t), (None, lam, twist))
    return b, partner, t, nu


LIE = {"ex4.3": lambda: (catalog_get("ex4.3").structure, catalog_get("ex4.3").u_vector()),
       "ex4.3+c": with_central_line}


@pytest.mark.parametrize("name", LIE)
def test_the_lie_operator_inverts_at_every_nu(name):
    lie, u = LIE[name]()
    b, partner, t, nu = lie_pair(lie, u)
    square = (t @ t).scale(nu * nu)
    assert b @ partner == square
    assert partner @ b == square
    lam = parse_scalar("lam", lie.params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstructionWarning)  # ex4.3 has α(u) = −u
        assert build(lie, Construction.LIE41, lam, nu, u=u).matrix == b
        # Cor 4.2 is the partner at ν = 1
        cor42 = build(lie, Construction.LIE_INV42, lam, nu, u=u).matrix
    assert partner.substitute({"nu": 1}) == cor42


@pytest.mark.parametrize("twist, flipped, entries", [("lam", True, (11, 11)), ("nu", False, (14, 16))],
                         ids=["partner-twist-lam", "t-unflipped"])
def test_the_lie_inverse_needs_its_twist_and_its_flip(twist, flipped, entries):
    b, partner, t, nu = lie_pair(*LIE["ex4.3"](), twist, flipped)
    square = (t @ t).scale(nu * nu)
    residuals = (b @ partner - square, partner @ b - square)
    assert tuple(len(list(r.nonzero())) for r in residuals) == entries
