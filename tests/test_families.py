"""The paper's identities on Mₙ(Q) twisted by conjugation, and on its dual coalgebra.

α(E_ij) = s_i·s_j⁻¹·E_ij is involutive only where every s_i·s_j⁻¹ squares to 1,
so the inverse laws fail symbolically and hold at s = (1, −1, 1, …).
"""

import warnings
from functools import cache

import pytest

from homyb import build_many, parse_scalar, validate
from homyb.constructions import CHECKS
from homyb.errors import ConstructionWarning
from homyb.files import structure_from_dict

from families import dual, matrix_algebra

# side -> (its single-operator constructions, its system, its inverse pair)
CONSTRUCTIONS = {"algebra": (("thm2.1", "thm2.4"), "thm5.2", "cor2.2"),
                 "dual": (("thm3.1", "thm3.4"), "thm5.3", "cor3.2")}
CASES = [(n, side) for n in (2, 3) for side in CONSTRUCTIONS]


@cache
def family(n: int, side: str):
    """Mₙ(Q) or its dual, the structure loaded once per test session."""
    algebra = structure_from_dict(matrix_algebra(n))
    return algebra if side == "algebra" else dual(algebra)


def holds(structure, check: str, name: str, unchecked: bool = False) -> bool:
    """Row `check` of `CHECKS` on what `name` builds at the symbols λ and ν."""
    lam, nu = (parse_scalar(symbol, structure.params) for symbol in ("lam", "nu"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstructionWarning)
        ops = build_many(structure, CHECKS[check].builds[name], lam, nu, unchecked=unchecked)
    return CHECKS[check].report(structure, ops, 1).holds


@pytest.mark.parametrize("n, side", CASES)
def test_the_axioms_hold(n, side):
    assert validate(family(n, side)).holds


@pytest.mark.parametrize("check", ["alpha", "hybe"])
@pytest.mark.parametrize("n, side", CASES)
def test_each_single_operator_commutes_with_alpha_and_solves_the_hybe(n, side, check):
    singles, _, _ = CONSTRUCTIONS[side]
    assert all(holds(family(n, side), check, name) for name in singles)


@pytest.mark.parametrize("n, side", CASES)
def test_the_system_holds(n, side):
    _, system, _ = CONSTRUCTIONS[side]
    assert holds(family(n, side), "system", system)


@pytest.mark.parametrize("n, side", CASES)
def test_the_inverse_law_holds_exactly_where_alpha_is_involutive(n, side):
    _, _, inverse = CONSTRUCTIONS[side]
    structure = family(n, side)
    assert not holds(structure, "inverse", inverse, unchecked=True)
    involutive = structure.substitute({f"s{i}": (-1) ** i for i in range(n)})
    assert holds(involutive, "inverse", inverse)
