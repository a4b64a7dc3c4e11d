"""Exact scalar ring: arithmetic, evaluation, parsing, printing."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homyb import (
    EvalError,
    NonInvertibleError,
    ParamMismatchError,
    ParamSet,
    ParseError,
    Scalar,
    format_scalar,
    parse_scalar,
)
from homyb.scalar import expression_names
from conftest import PS2, PS3, is_canonical, monomials, random_assignment, scalars

import random


def S(text, params=PS3):
    return parse_scalar(text, params)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert S("lam + nu") * S("lam - nu") == S("lam^2 - nu^2")

    def test_monomial_inverse_cancels(self):
        l = Scalar.variable(PS3, "l")
        assert l ** -2 == S("l^-2")
        assert (l ** -2) * (l ** 2) == Scalar.one(PS3)

    def test_two_term_laurent_sum(self):
        # lam*nu^-1 + lam^-1*nu, term map built by hand
        got = S("lam") * (S("nu") ** -1) + S("nu") * (S("lam") ** -1)
        assert got.terms == {
            (0, 1, -1): Fraction(1),
            (0, -1, 1): Fraction(1),
        }

    def test_neg_and_sub(self):
        a = S("2*lam - 3")
        assert a + (-a) == Scalar.zero(PS3)
        assert a - a == Scalar.zero(PS3)

    def test_int_pow_zero_and_positive(self):
        a = S("lam + 1")
        assert a ** 0 == Scalar.one(PS3)
        assert a ** 3 == a * a * a

    def test_negative_power_of_polynomial_rejected(self):
        with pytest.raises(NonInvertibleError):
            S("lam + 1") ** -1

    def test_param_set_mismatch(self):
        with pytest.raises(ParamMismatchError):
            S("lam", PS2) + S("lam", PS3)

    def test_int_coercion(self):
        assert 2 * S("lam") == S("2*lam")
        assert S("lam") + 1 == S("lam + 1")


class TestExactness:
    @pytest.mark.parametrize("value", [3, 0, -1, Fraction(1, 2), Fraction(-7, 3)])
    def test_a_constant_hashes_like_the_value_it_equals(self, value):
        c = Scalar.constant(PS2, value)
        assert c == value
        assert hash(c) == hash(value)
        assert len({c, value}) == 1

    @settings(max_examples=100)
    @given(scalars(), scalars())
    def test_equal_scalars_hash_equally(self, a, b):
        assert hash(a + b) == hash(b + a)
        assert hash(a * b) == hash(b * a)
        assert hash(a - a) == hash(Scalar.zero(PS2)) == hash(0)

    def test_float_coefficients_are_refused(self):
        with pytest.raises(TypeError):
            Scalar(PS2, {(0, 0): 0.1})
        with pytest.raises(TypeError):
            Scalar.constant(PS2, 0.5)

    def test_float_assignments_are_refused(self):
        with pytest.raises(TypeError):
            S("lam").evaluate({"lam": 0.1})
        with pytest.raises(TypeError):
            S("lam").substitute({"lam": 0.1})

    def test_exact_coefficients_still_accepted(self):
        assert Scalar(PS2, {(1, 0): 2, (0, 1): Fraction(1, 3)}) == parse_scalar("2*lam + 1/3*nu", PS2)
        assert Scalar.constant(PS2, Fraction(1, 10)).terms == {(0, 0): Fraction(1, 10)}


class TestEvaluate:
    def test_direct_substitution(self):
        assert S("-lam*l^2").evaluate({"lam": 1, "l": 2}) == -4

    def test_zero_polynomial(self):
        assert Scalar.zero(PS3).evaluate({}) == 0

    def test_zero_at_negative_exponent(self):
        a = S("lam") * (S("nu") ** -1)
        with pytest.raises(EvalError):
            a.evaluate({"lam": 3, "nu": 0})

    def test_missing_assignment(self):
        with pytest.raises(EvalError):
            S("lam*nu").evaluate({"lam": 1})

    def test_unused_parameter_not_required(self):
        assert S("lam^2").evaluate({"lam": Fraction(1, 2)}) == Fraction(1, 4)

    def test_only_occurring_parameters_are_read(self):
        # a value for a parameter that does not occur is ignored, even a float
        # or a name outside the ParamSet
        assert S("lam").evaluate({"lam": 1, "nu": 0.5}) == 1
        assert S("lam").evaluate({"lam": 1, "zz": 2}) == 1

    def test_substitute_is_partial(self):
        a = S("lam*l^2 + nu")
        assert a.substitute({"l": 1}) == S("lam + nu")
        assert a.substitute({"l": 0}) == S("nu")

    def test_extend(self):
        small = parse_scalar("lam*nu", PS2)
        assert small.extend(PS3) == S("lam*nu")


class TestParser:
    def test_negated_square(self):
        got = S("-l^2")
        assert got.terms == {(2, 0, 0): Fraction(-1)}

    def test_rational_and_negative_exponent(self):
        ps = ParamSet(["k"])
        got = parse_scalar("1/2*k^-1 + 3", ps)
        assert got.terms == {(-1,): Fraction(1, 2), (0,): Fraction(3)}

    def test_commutativity_cancellation(self):
        assert parse_scalar("lam*nu - nu*lam", PS2).is_zero()

    def test_parentheses_and_unary_minus(self):
        assert S("-(lam - nu)") == S("nu - lam")
        assert S("(-l)^2") == S("l^2")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown parameter"):
            S("zz + 1")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            S("lam + ")
        assert err.value.position == 6
        with pytest.raises(ParseError) as err:
            S("lam + ) + nu")
        assert err.value.position == 6

    def test_slash_outside_rational_literal(self):
        with pytest.raises(ParseError, match="rational literal"):
            S("lam/2")

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError, match="integer"):
            S("l^lam")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            S("2 lam")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            S("1/0")

    def test_nesting_is_bounded(self):
        for opening in ("(", "-", "-("):
            closing = ")" * opening.count("(")
            assert parse_scalar(opening * 25 + "lam" + closing * 25, PS3) in (S("lam"), S("-lam"))
            with pytest.raises(ParseError, match="nested deeper than 50"):
                parse_scalar(opening * 3000 + "lam" + closing * 3000, PS3)
        assert parse_scalar("-" * 50 + "lam", PS3) == S("lam")
        with pytest.raises(ParseError):
            parse_scalar("-" * 51 + "lam", PS3)

    @pytest.mark.parametrize("text, char", [
        ("λ", "λ"), ("lam + λ", "λ"), ("lamλ", "λ"), ("2²", "²"), ("lam^²", "²"), ("٣", "٣"),
    ])
    def test_non_ascii_letter_or_digit_is_an_unexpected_character(self, text, char):
        # only ASCII digits and identifiers are lexed; "٣" must not read as 3
        with pytest.raises(ParseError, match=f"unexpected character '{char}'"):
            parse_scalar(text, ParamSet(["lam"]))
        with pytest.raises(ParseError, match=f"unexpected character '{char}'"):
            expression_names(text)

    @pytest.mark.parametrize("text", ["1" * 5000, "lam^" + "1" * 5000, "1/" + "7" * 5000])
    def test_overlong_integer_literal_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="longer than 4300 digits"):
            S(text)

    def test_longest_integer_literal_still_parses(self):
        assert S("9" * 4300) == Scalar.constant(PS3, 10 ** 4300 - 1)

    @pytest.mark.parametrize("text", [
        "(lam + nu + l + 1 + lam^-1 + nu^-1)^32",
        "(l + lam + nu + 1)^16 * (l + lam + nu + 1)^16 * (l + lam + nu + 1)^16",
    ])
    def test_costly_product_is_refused_at_once(self, text):
        started = time.perf_counter()
        with pytest.raises(ParseError, match="term products"):
            S(text)
        assert time.perf_counter() - started < 1.0

    def test_powers_of_sums_within_the_bound_agree_with_the_ring(self):
        base = S("lam + nu + 1")
        assert S("(lam + nu + 1)^12") == base ** 12
        assert S("(lam + nu + 1)^0") == Scalar.one(PS3)
        assert S("(lam + nu)^32") == S("lam + nu") ** 32

    def test_negative_power_of_sum_rejected_at_parse_time(self):
        with pytest.raises(NonInvertibleError):
            S("(1 + l)^-1")

    def test_format_examples(self):
        assert format_scalar(Scalar.zero(PS3)) == "0"
        assert format_scalar(S("-l^2")) == "-l^2"
        ps = ParamSet(["k"])
        assert format_scalar(parse_scalar("3 + 1/2*k^-1", ps)) == "1/2*k^-1 + 3"


class TestProperties:
    @settings(max_examples=150)
    @given(scalars(), scalars(), scalars())
    def test_ring_laws(self, a, b, c):
        zero = Scalar.zero(PS2)
        one = Scalar.one(PS2)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero

    @given(monomials())
    def test_monomial_laurent_inverse(self, m):
        assert m * (m ** -1) == Scalar.one(PS2)

    @settings(max_examples=100)
    @given(scalars(), scalars(), scalars(), st.integers(0, 2 ** 32))
    def test_evaluation_is_ring_homomorphism(self, a, b, c, seed):
        point = random_assignment(PS2, random.Random(seed))
        lhs = (a * b + c).evaluate(point)
        assert lhs == a.evaluate(point) * b.evaluate(point) + c.evaluate(point)

    @settings(max_examples=200)
    @given(scalars(PS3))
    def test_parser_round_trip(self, s):
        assert parse_scalar(format_scalar(s), PS3) == s


class TestCanonicalForm:
    def test_integral_results_are_stored_as_int(self):
        product = S("1/2*lam") * 2
        assert product.terms == {(0, 1, 0): 1} and type(product.terms[(0, 1, 0)]) is int
        total = S("1/3*nu") + S("2/3*nu")
        assert type(total.terms[(0, 0, 1)]) is int
        assert S("4/2").terms == {(0, 0, 0): 2} and type(S("4/2").terms[(0, 0, 0)]) is int
        assert all(type(c) is int for c in (S("1/2*l") ** -1).terms.values())
        assert Scalar(PS2, {(1, 0): Fraction(6, 3)}).terms == {(1, 0): 2}

    def test_constant_value_is_a_fraction(self):
        for text in ("3", "0", "1/2", "2/2"):
            value = S(text).constant_value()
            assert type(value) is Fraction and value == Fraction(text)

    @settings(max_examples=150)
    @given(scalars(PS3), scalars(PS3), st.integers(-2, 3), st.integers(0, 2 ** 32))
    def test_every_operation_keeps_the_stored_form(self, a, b, k, seed):
        wide = ParamSet(["a", "l", "lam", "nu", "z"])
        point = random_assignment(ParamSet(["lam"]), random.Random(seed))
        results = [
            a, parse_scalar(format_scalar(a), PS3), a + b, a - b, b - a, -a, a * b, a * 2,
            Fraction(1, 2) * a, 3 - a, a + Fraction(1, 3), a.substitute(point), a.extend(wide),
        ]
        if a.is_monomial() or k >= 0:
            results.append(a ** k)
        for s in results:
            assert is_canonical(s)


# -- an independent oracle: the same operations in sympy -----------------------------


class TestAgainstSympy:
    @staticmethod
    def to_sympy(s, symbols):
        import sympy

        total = sympy.Integer(0)
        for exps, c in s.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for sym, e in zip(symbols, exps):
                term *= sym ** e
            total += term
        return total

    @staticmethod
    def terms_of(expr, symbols):
        """The {exponents: Fraction} map of an expanded sympy Laurent polynomial."""
        import sympy

        out = {}
        for mono, coeff in sympy.expand(expr).as_coefficients_dict().items():
            if coeff == 0 or mono == 0:
                continue
            powers = mono.as_powers_dict()
            assert set(powers) <= set(symbols) | {sympy.Integer(1)}
            exps = tuple(int(powers.get(sym, 0)) for sym in symbols)
            out[exps] = out.get(exps, 0) + Fraction(int(coeff.p), int(coeff.q))
        return {e: c for e, c in out.items() if c}

    @settings(max_examples=150, deadline=None)
    @given(scalars(PS3), scalars(PS3), st.integers(0, 3), monomials(PS3), st.integers(-3, -1))
    def test_ring_operations_match_sympy(self, a, b, k, m, negative):
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols(PS3.names)
        sa, sb, sm = (self.to_sympy(x, symbols) for x in (a, b, m))
        cases = [
            (a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb), (-a, -sa),
            (a ** k, sa ** k), (m ** negative, sm ** negative),
        ]
        for got, expected in cases:
            assert got.terms == self.terms_of(expected, symbols)


class TestErrorPaths:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: PS2.index("zz"), KeyError, "unknown parameter 'zz'"),
        (lambda: Scalar(PS2, {(1,): 1}), ParamMismatchError, r"exponent vector \(1,\) does not match 2"),
        (lambda: S("lam + 1").constant_value(), EvalError, "is not a constant"),
        (lambda: S("lam") ** 1.5, TypeError, "Scalar exponent must be an integer"),
        (lambda: S("1/lam"), ParseError, "'/' requires an integer literal denominator"),
    ], ids=["unknown-parameter", "exponent-width", "not-a-constant", "fractional-power",
            "symbolic-denominator"])
    def test_each_misuse_is_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()
