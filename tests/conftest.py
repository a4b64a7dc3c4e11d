"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from homyb import Matrix, ParamSet, Scalar, catalog_get
from homyb.catalog import _structure as structure  # a document loaded as a file is


PS2 = ParamSet(["lam", "nu"])
PS3 = ParamSet(["l", "lam", "nu"])


def scalars(params: ParamSet = PS2, max_terms: int = 4, exp_range: int = 3):
    """Random Laurent polynomials with small exponents and small coefficients."""
    n = len(params)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    exps = st.tuples(*([st.integers(-exp_range, exp_range)] * n))
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: Scalar(params, terms)
    )


def monomials(params: ParamSet = PS2):
    n = len(params)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
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
