"""Exact coefficient ring: sparse multivariate Laurent polynomials over Q.

A Scalar is a finite map from exponent vectors (one integer per parameter,
negative exponents allowed) to nonzero rational coefficients.  The map is kept
canonical -- no zero coefficient is ever stored -- so two Scalars over the same
ParamSet are equal iff they denote the same Laurent polynomial.  This makes
"identity holds for all parameter values" a finite dictionary comparison.

A coefficient is stored as a Python `int` when it is integral and as a reduced
`fractions.Fraction` otherwise, so a Fraction with denominator 1 is never
stored.  The constructor alone makes that form: it drops zeros, stores
integral coefficients as ints and refuses floats, and every ring operation
returns its accumulated term map through it.  The ring serves the boundary
(files, expressions, witnesses); the identity checks run on `tensor`'s packed
rows and build no Scalar.  `constant_value` and `evaluate` return Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .errors import EvalError, NonInvertibleError, ParamMismatchError, ParseError

Rational = Fraction

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ParamSet:
    """Ordered collection of distinct parameter names.

    The order is fixed at creation and defines the exponent-vector layout of
    every Scalar built over this set.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid parameter name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names!r}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, ParamSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"ParamSet({', '.join(self.names)})"

    def union(self, extra: Iterable[str]) -> "ParamSet":
        """This set extended by any new names, in their order of appearance."""
        names = list(self.names)
        for name in extra:
            if name not in self._index and name not in names[len(self.names):]:
                names.append(name)
        return ParamSet(names)


def _rational(value) -> Fraction:
    """An exact rational; floats are refused rather than read as binary fractions."""
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not an exact coefficient; use an int or a Fraction")
    return value if isinstance(value, Fraction) else Fraction(value)


class Scalar:
    """A Laurent polynomial in the parameters of a ParamSet.

    Immutable by convention: no operation mutates `terms` after construction.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: ParamSet, terms: Mapping[tuple[int, ...], int | Fraction]):
        clean: dict[tuple[int, ...], int | Fraction] = {}
        width = len(params.names)
        for exps, coeff in terms.items():
            if coeff.__class__ is not int:
                coeff = _rational(coeff)
                if coeff.denominator == 1:
                    coeff = coeff.numerator
            if not coeff:
                continue
            if len(exps) != width:
                raise ParamMismatchError(
                    f"exponent vector {exps!r} does not match {width} parameters"
                )
            clean[tuple(exps)] = coeff
        self.params = params
        self.terms = clean

    @classmethod
    def _new(cls, params: ParamSet, terms: dict[tuple[int, ...], int | Fraction]) -> "Scalar":
        """A Scalar over canonical terms of the right width; nothing is re-checked."""
        s = object.__new__(cls)
        s.params = params
        s.terms = terms
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: ParamSet) -> "Scalar":
        return cls(params, {})

    @classmethod
    def constant(cls, params: ParamSet, value) -> "Scalar":
        return cls(params, {(0,) * len(params): value})

    @classmethod
    def one(cls, params: ParamSet) -> "Scalar":
        return cls.constant(params, 1)

    @classmethod
    def variable(cls, params: ParamSet, name: str) -> "Scalar":
        exps = [0] * len(params)
        exps[params.index(name)] = 1
        return cls(params, {tuple(exps): 1})

    @classmethod
    def monomial(cls, params: ParamSet, coeff, exponents: Mapping[str, int]) -> "Scalar":
        exps = [0] * len(params)
        for name, e in exponents.items():
            exps[params.index(name)] = e
        return cls(params, {tuple(exps): coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        zero_exp = (0,) * len(self.params)
        return all(e == zero_exp for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant Scalar as a Fraction."""
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise EvalError(f"{self} is not a constant")
        return Fraction(next(iter(self.terms.values())))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.params != self.params:
                raise ParamMismatchError(
                    f"parameter sets differ: {self.params} vs {other.params}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.constant(self.params, other)
        return NotImplemented

    def __add__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return Scalar(self.params, out)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(self.params, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> "Scalar":
        return (-self) + other

    def __mul__(self, other) -> "Scalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                out[exps] = out.get(exps, 0) + c1 * c2
        return Scalar(self.params, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            raise TypeError("Scalar exponent must be an integer")
        if exponent == 0:
            return Scalar.one(self.params)
        if exponent < 0:
            if len(self.terms) != 1:
                raise NonInvertibleError(
                    f"negative power of a non-monomial: {self}"
                )
            (exps, coeff), = self.terms.items()
            inverse = Scalar(self.params, {tuple(-e for e in exps): 1 / Fraction(coeff)})
            return inverse ** (-exponent)
        result = Scalar.one(self.params)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.constant(self.params, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __hash__(self) -> int:
        # a constant equals its value (see __eq__), so it must hash like it too
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.params, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, assignment: Mapping[str, Fraction | int]) -> Fraction:
        """Exact value at a full assignment of the parameters that occur.

        Every parameter that appears with a nonzero exponent must be assigned;
        parameters occurring with a negative exponent must be nonzero.  Values
        for any other name are not read.
        """
        occurring = [
            name for i, name in enumerate(self.params.names)
            if any(exps[i] for exps in self.terms)
        ]
        for name in occurring:
            if name not in assignment:
                raise EvalError(f"missing assignment for parameter {name!r}")
        return self.substitute({name: assignment[name] for name in occurring}).constant_value()

    def substitute(self, assignment: Mapping[str, Fraction | int]) -> "Scalar":
        """Partial evaluation: replace some parameters by exact rationals.

        The result lives over the same ParamSet (the substituted exponents
        become zero), which keeps mixed-matrix arithmetic well-typed.
        """
        if not assignment:
            return self
        positions = {self.params.index(name): _rational(v) for name, v in assignment.items()}
        out: dict[tuple[int, ...], int | Fraction] = {}
        for exps, coeff in self.terms.items():
            value = coeff
            new_exps = list(exps)
            for idx, v in positions.items():
                e = exps[idx]
                if e == 0:
                    continue
                if v == 0 and e < 0:
                    name = self.params.names[idx]
                    raise EvalError(
                        f"zero assigned to parameter {name!r} at negative exponent"
                    )
                value *= v ** e
                new_exps[idx] = 0
            key = tuple(new_exps)
            out[key] = out.get(key, 0) + value
        return Scalar(self.params, out)

    def extend(self, params: ParamSet) -> "Scalar":
        """Reinterpret over a larger ParamSet containing all current names."""
        if params == self.params:
            return self
        mapping = [params.index(name) for name in self.params.names]
        width = len(params)
        out: dict[tuple[int, ...], int | Fraction] = {}
        for exps, coeff in self.terms.items():
            new_exps = [0] * width
            for old_idx, e in enumerate(exps):
                new_exps[mapping[old_idx]] = e
            out[tuple(new_exps)] = coeff
        return Scalar(params, out)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"


def format_scalar(s: Scalar) -> str:
    """Canonical printed form; `parse_scalar` maps it back to an equal Scalar.

    Terms are sorted by exponent vector lexicographically and coefficients are
    printed as reduced fractions, so the output is stable across runs.
    """
    if not s.terms:
        return "0"
    chunks: list[str] = []
    names = s.params.names
    for exps in sorted(s.terms):
        coeff = s.terms[exps]
        factors = []
        for idx, e in enumerate(exps):
            if e == 0:
                continue
            factors.append(names[idx] if e == 1 else f"{names[idx]}^{e}")
        if not factors:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(coeff))] + factors)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


# -- expression parser ---------------------------------------------------------
#
# expr     := term (('+' | '-') term)*
# term     := factor ('*' factor)*
# factor   := '-' factor | power
# power    := atom ('^' exponent)?
# atom     := INT ('/' INT)? | NAME | '(' expr ')'
# exponent := '-'? INT
#
# Implicit multiplication is not accepted; '/' only forms rational literals.
# The parser recurses once per unary minus and per pair of parentheses, so
# their nesting is bounded: deeper input is a ParseError rather than an
# exhausted interpreter recursion limit.  The cost of a power grows with its
# exponent, so exponents are bounded too, except on a monomial with
# coefficient ±1 (such as lam^e, which `format_scalar` writes for any e): its
# power only multiplies the exponents.  A power of a many-term base, or a
# product of such powers, still grows with the number of terms, so each
# product the parser performs (a power is taken as repeated products) is
# refused before it starts when it would multiply more than _MAX_PRODUCT pairs
# of terms.  An integer literal is at most _MAX_DIGITS digits long, the
# interpreter's default limit for converting between int and str: every
# integer `format_scalar` can print is read back, and a longer one is a
# ParseError rather than a ValueError.

_MAX_NESTING = 50
_MAX_EXPONENT = 32
_MAX_PRODUCT = 10_000
_MAX_DIGITS = 4300

# ASCII only: any other letter or digit is an unexpected character
_INT_RE = re.compile(r"[0-9]+")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if m := _INT_RE.match(text, pos):
            if m.end() - pos > _MAX_DIGITS:
                raise ParseError(f"integer literal longer than {_MAX_DIGITS} digits", pos)
            tokens.append(("int", m.group(), pos))
            pos = m.end()
        elif m := _IDENT_RE.match(text, pos):
            tokens.append(("name", m.group(), pos))
            pos = m.end()
        elif ch in _OPS:
            tokens.append(("op", ch, pos))
            pos += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, params: ParamSet):
        self.tokens = _tokenize(text)
        self.params = params
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Scalar:
        value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self) -> Scalar:
        value = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                value = self.product(value, self.factor(), pos)
            elif kind == "op" and text == "/":
                raise ParseError("'/' is only allowed inside rational literals", pos)
            else:
                return value

    def product(self, left: Scalar, right: Scalar, pos: int) -> Scalar:
        if len(left.terms) * len(right.terms) > _MAX_PRODUCT:
            raise ParseError(
                f"product of {len(left.terms)} by {len(right.terms)} terms exceeds "
                f"the bound of {_MAX_PRODUCT} term products", pos
            )
        return left * right

    def nest(self, pos: int) -> None:
        if self.depth == _MAX_NESTING:
            raise ParseError(f"expression nested deeper than {_MAX_NESTING} levels", pos)
        self.depth += 1

    def factor(self) -> Scalar:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            self.nest(pos)
            value = -self.factor()
            self.depth -= 1
            return value
        return self.power()

    def power(self) -> Scalar:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.exponent()
            cheap = base.is_monomial() and abs(next(iter(base.terms.values()))) == 1
            if abs(exponent) > _MAX_EXPONENT and not cheap:
                raise ParseError(f"exponent {exponent} exceeds the bound {_MAX_EXPONENT}", pos)
            if exponent <= 1 or base.is_monomial():
                return base ** exponent
            value = base
            for _ in range(exponent - 1):
                value = self.product(value, base, pos)
            return value
        return base

    def exponent(self) -> int:
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, pos = self.peek()
        if kind != "int":
            raise ParseError("exponent must be an integer literal", pos)
        self.advance()
        return sign * int(text)

    def atom(self) -> Scalar:
        kind, text, pos = self.advance()
        if kind == "int":
            numerator = int(text)
            k2, t2, p2 = self.peek()
            if k2 == "op" and t2 == "/":
                self.advance()
                k3, t3, p3 = self.peek()
                if k3 != "int":
                    raise ParseError("'/' requires an integer literal denominator", p3)
                self.advance()
                if int(t3) == 0:
                    raise ParseError("zero denominator", p3)
                return Scalar.constant(self.params, Fraction(numerator, int(t3)))
            return Scalar.constant(self.params, numerator)
        if kind == "name":
            if text not in self.params:
                raise ParseError(f"unknown parameter {text!r}", pos)
            return Scalar.variable(self.params, text)
        if kind == "op" and text == "(":
            self.nest(pos)
            value = self.expr()
            self.depth -= 1
            k2, t2, p2 = self.peek()
            if not (k2 == "op" and t2 == ")"):
                raise ParseError("expected ')'", p2)
            self.advance()
            return value
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse_scalar(text: str, params: ParamSet) -> Scalar:
    """Parse an expression in the scalar mini-language over the given parameters."""
    parser = _Parser(text, params)
    value = parser.expr()
    kind, tok, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {tok!r}", pos)
    return value


def expression_names(text: str) -> list[str]:
    """The identifiers an expression mentions, in order of first appearance."""
    seen: list[str] = []
    for kind, tok, _ in _tokenize(text):
        if kind == "name" and tok not in seen:
            seen.append(tok)
    return seen
