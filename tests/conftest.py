"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from homyb import HomAlgebra, HomCoalgebra, Matrix, ParamSet, Scalar, catalog_get, format_scalar, kron
from homyb._record import replace
from homyb.files import structure_from_dict


PS2 = ParamSet(["lam", "nu"])
PS3 = ParamSet(["l", "lam", "nu"])


def structure(cls: type, **doc):
    """A structure-file document, given all but its kind and dim, loaded as a file is."""
    return structure_from_dict({"kind": cls.kind, "dim": len(doc["basis"]), **doc})


def elementary(params, n, i, j, c):
    """I + c·e_ij, the row operation that adds c times row j to row i."""
    return Matrix.from_rows(params, [[Scalar.constant(params, (r == k) + c * ((r, k) == (i, j)))
                                      for k in range(n)] for r in range(n)])


def conjugated(entry, p, p_inv):
    """The entry in the basis of P's columns: each map conjugated by P, and u sent to P⁻¹u."""
    s = entry.structure
    maps = {"alpha": p_inv @ s.alpha @ p}
    if isinstance(s, HomCoalgebra):
        maps.update(delta=kron(p_inv, p_inv) @ s.delta @ p, epsilon=s.epsilon @ p)
    else:
        product = "mu" if isinstance(s, HomAlgebra) else "bracket"
        maps[product] = p_inv @ getattr(s, product) @ kron(p, p)
        if isinstance(s, HomAlgebra):
            maps["eta"] = p_inv @ s.eta
    u = entry.u and tuple(format_scalar(c) for c in p_inv.apply(entry.u_vector()))
    return replace(entry, structure=replace(s, **maps), u=u)


def in_skewed_basis(entry):
    """The entry in the basis P that adds the last row to the first, then the first to the
    second: unimodular, and it takes each catalog entry's alpha off monomial form."""
    n, params = entry.structure.dim, entry.structure.params
    p = elementary(params, n, 1, 0, 1) @ elementary(params, n, 0, n - 1, 1)
    p_inv = elementary(params, n, 0, n - 1, -1) @ elementary(params, n, 1, 0, -1)
    assert p @ p_inv == Matrix.identity(n, params)
    return conjugated(entry, p, p_inv)


# Every nonzero fraction in [-5, 5] with denominator at most 4, smallest first.
# Sampling them draws no zero to throw away, unlike filtering `st.fractions`,
# whose rejected draws made input generation slow enough to fail a health check.
COEFFICIENTS = sorted(
    {Fraction(p, q) for q in range(1, 5) for p in range(-5 * q, 5 * q + 1) if p},
    key=lambda c: (abs(c), c < 0),
)


def scalars(params: ParamSet = PS2, max_terms: int = 4, exp_range: int = 3):
    """Random Laurent polynomials with small exponents and small coefficients."""
    n = len(params)
    coeff = st.sampled_from(COEFFICIENTS)
    exps = st.tuples(*([st.integers(-exp_range, exp_range)] * n))
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: Scalar(params, terms)
    )


def monomials(params: ParamSet = PS2):
    n = len(params)
    coeff = st.sampled_from(COEFFICIENTS)
    exps = st.tuples(*([st.integers(-3, 3)] * n))
    return st.builds(lambda e, c: Scalar(params, {e: c}), exps, coeff)


def square_matrices(n: int = 2, params: ParamSet = PS2):
    return st.lists(
        scalars(params, max_terms=2, exp_range=2), min_size=n * n, max_size=n * n
    ).map(lambda data: Matrix(n, n, params, data))


def is_canonical(s: Scalar) -> bool:
    """Every stored coefficient is a nonzero int or a Fraction that is not integral."""
    return all(
        (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)
        for c in s.terms.values()
    )


def random_assignment(params: ParamSet, rng: random.Random) -> dict[str, Fraction]:
    """A nonzero rational value per parameter, away from the roots 0 and ±1."""
    out = {}
    for name in params.names:
        value = Fraction(0)
        while abs(value) in (0, 1):
            num = rng.randint(-9, 9)
            den = rng.randint(1, 7)
            value = Fraction(num, den)
        out[name] = value
    return out


@pytest.fixture(scope="session")
def ex23():
    return catalog_get("ex2.3")


@pytest.fixture(scope="session")
def ex25():
    return catalog_get("ex2.5")


@pytest.fixture(scope="session")
def ex25_verbatim():
    return catalog_get("ex2.5-verbatim")


@pytest.fixture(scope="session")
def ex33():
    return catalog_get("ex3.3")


@pytest.fixture(scope="session")
def ex35():
    return catalog_get("ex3.5")


@pytest.fixture(scope="session")
def ex43():
    return catalog_get("ex4.3")
