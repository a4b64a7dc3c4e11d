"""Builders that turn a validated structure into explicit solution operators.

Each builder assembles the dim²×dim² matrix of one closed-form operator,
column by column: column (i·dim + j) holds the coordinates of the image of
e_i⊗e_j.  Builders are deterministic and make no claims -- the identities the
operators are supposed to satisfy are checked downstream by `verify`.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ConstructionWarning, DimensionError, PreconditionError
from .scalar import ParamSet, Scalar
from .structures import (
    HomAlgebra,
    HomCoalgebra,
    HomLieAlgebra,
    HomStructure,
    is_alpha_invariant,
    is_central,
    validate,
)
from .tensor import Matrix, Vector, tensor2, vec_add, vec_scale, vec_sub


class Construction(enum.Enum):
    """The closed-form operator families, keyed by their command-line names."""

    ALG21 = "thm2.1"
    ALG24 = "thm2.4"
    ALG_INV22 = "cor2.2"
    ALG_INV24 = "thm2.4-inverse"
    COALG31 = "thm3.1"
    COALG34 = "thm3.4"
    COALG_INV32 = "cor3.2"
    COALG_INV34 = "thm3.4-inverse"
    LIE41 = "thm4.1"
    LIE_INV42 = "cor4.2"
    SYS_W52 = "thm5.2-W"
    SYS_Z52 = "thm5.2-Z"
    SYS_X52 = "thm5.2-X"
    SYS_W53 = "thm5.3-W"
    SYS_Z53 = "thm5.3-Z"
    SYS_X53 = "thm5.3-X"


@dataclass(frozen=True)
class SolutionOperator:
    """An operator on the tensor square plus the recipe that produced it."""

    matrix: Matrix
    construction: Construction
    lam: Scalar
    nu: Scalar
    source: HomStructure

    @property
    def dim(self) -> int:
        return self.source.dim


@dataclass(frozen=True)
class RMatrix:
    """An element r ∈ L⊗L as a dim² coordinate vector."""

    coords: Vector
    source: HomLieAlgebra


def _operator_matrix(
    dim: int, params: ParamSet, column: Callable[[int, int], Sequence[Scalar]]
) -> Matrix:
    return Matrix.from_cols(params, (column(i, j) for i in range(dim) for j in range(dim)))


def _require_param(structure: HomStructure, value: Scalar, what: str) -> Scalar:
    if value.params != structure.params:
        value = value.extend(structure.params)
    return value


def _require_valid(structure: HomStructure, unchecked: bool, multiplicative: bool = False) -> None:
    report = validate(structure, multiplicative)
    if report.holds:
        return
    failing = ", ".join(sub.check_name for sub in report.subreports if not sub.holds)
    if unchecked:
        warnings.warn(
            f"building on a structure that fails axioms ({failing})",
            ConstructionWarning,
            stacklevel=3,
        )
        return
    raise PreconditionError(
        f"structure {structure.name or '<unnamed>'} fails axioms ({failing}); "
        "pass unchecked=True to build anyway"
    )


def _require_involutive(structure: HomStructure, unchecked: bool) -> None:
    square = structure.alpha @ structure.alpha
    if square == Matrix.identity(structure.dim, structure.params):
        return
    if unchecked:
        warnings.warn("alpha is not involutive", ConstructionWarning, stacklevel=3)
        return
    raise PreconditionError("alpha is not involutive (alpha^2 != identity)")


def _require_monomial(value: Scalar, name: str, unchecked: bool) -> None:
    if value.is_monomial():
        return
    if unchecked:
        warnings.warn(
            f"{name} is not a monomial; its inverse does not exist in the Laurent ring",
            ConstructionWarning,
            stacklevel=3,
        )
        return
    raise PreconditionError(f"{name} = {value} is not an invertible (monomial) scalar")


# -- twisted-algebra operators (tensor of products with the unit) -------------------


def algebra_solution(
    a: HomAlgebra,
    variant: Construction,
    lam: Scalar,
    nu: Scalar,
    *,
    unchecked: bool = False,
) -> SolutionOperator:
    """B(a⊗b) = λ·ab⊗1 + ν·1⊗ab − c·α(a)⊗α(b), with c = λ or ν by variant."""
    if variant not in (Construction.ALG21, Construction.ALG24):
        raise PreconditionError(f"not an algebra solution variant: {variant.value}")
    lam = _require_param(a, lam, "lambda")
    nu = _require_param(a, nu, "nu")
    _require_valid(a, unchecked)
    twist_coeff = lam if variant is Construction.ALG21 else nu
    alpha_cols = [a.alpha.column(i) for i in range(a.dim)]

    def column(i: int, j: int) -> Vector:
        prod = a.mult[i][j]
        out = vec_scale(lam, tensor2(prod, a.unit))
        out = vec_add(out, vec_scale(nu, tensor2(a.unit, prod)))
        return vec_sub(out, vec_scale(twist_coeff, tensor2(alpha_cols[i], alpha_cols[j])))

    matrix = _operator_matrix(a.dim, a.params, column)
    return SolutionOperator(matrix, variant, lam, nu, a)


def algebra_solution_inverse(
    a: HomAlgebra,
    variant: Construction,
    lam: Scalar,
    nu: Scalar,
    *,
    unchecked: bool = False,
) -> SolutionOperator:
    """Closed-form inverse: 1/ν·ab⊗1 + 1/λ·1⊗ab − c·α(a)⊗α(b), c = 1/λ or 1/ν.

    Requires invertible (monomial) λ, ν and an involutive twist; with
    `unchecked` those become warnings so the failure of the inverse law can be
    exhibited downstream.
    """
    if variant not in (Construction.ALG_INV22, Construction.ALG_INV24):
        raise PreconditionError(f"not an algebra inverse variant: {variant.value}")
    lam = _require_param(a, lam, "lambda")
    nu = _require_param(a, nu, "nu")
    _require_valid(a, unchecked)
    _require_monomial(lam, "lambda", unchecked)
    _require_monomial(nu, "nu", unchecked)
    _require_involutive(a, unchecked)
    inv_lam = lam ** -1
    inv_nu = nu ** -1
    twist_coeff = inv_lam if variant is Construction.ALG_INV22 else inv_nu
    alpha_cols = [a.alpha.column(i) for i in range(a.dim)]

    def column(i: int, j: int) -> Vector:
        prod = a.mult[i][j]
        out = vec_scale(inv_nu, tensor2(prod, a.unit))
        out = vec_add(out, vec_scale(inv_lam, tensor2(a.unit, prod)))
        return vec_sub(out, vec_scale(twist_coeff, tensor2(alpha_cols[i], alpha_cols[j])))

    matrix = _operator_matrix(a.dim, a.params, column)
    return SolutionOperator(matrix, variant, lam, nu, a)


# -- twisted-coalgebra operators (counit-weighted comultiplications) ------------------


def coalgebra_solution(
    c: HomCoalgebra,
    variant: Construction,
    lam: Scalar,
    nu: Scalar,
    *,
    unchecked: bool = False,
) -> SolutionOperator:
    """B(a⊗b) = λ·ε(a)Δ(b) + ν·ε(b)Δ(a) − c·α(a)⊗α(b), with c = λ or ν by variant."""
    if variant not in (Construction.COALG31, Construction.COALG34):
        raise PreconditionError(f"not a coalgebra solution variant: {variant.value}")
    lam = _require_param(c, lam, "lambda")
    nu = _require_param(c, nu, "nu")
    _require_valid(c, unchecked)
    twist_coeff = lam if variant is Construction.COALG31 else nu
    return SolutionOperator(
        _coalgebra_matrix(c, lam, nu, twist_coeff), variant, lam, nu, c
    )


def coalgebra_solution_inverse(
    c: HomCoalgebra,
    variant: Construction,
    lam: Scalar,
    nu: Scalar,
    *,
    unchecked: bool = False,
) -> SolutionOperator:
    """Closed-form inverse: 1/ν·ε(a)Δ(b) + 1/λ·ε(b)Δ(a) − c·α(a)⊗α(b)."""
    if variant not in (Construction.COALG_INV32, Construction.COALG_INV34):
        raise PreconditionError(f"not a coalgebra inverse variant: {variant.value}")
    lam = _require_param(c, lam, "lambda")
    nu = _require_param(c, nu, "nu")
    _require_valid(c, unchecked)
    _require_monomial(lam, "lambda", unchecked)
    _require_monomial(nu, "nu", unchecked)
    _require_involutive(c, unchecked)
    inv_lam = lam ** -1
    inv_nu = nu ** -1
    twist_coeff = inv_lam if variant is Construction.COALG_INV32 else inv_nu
    return SolutionOperator(
        _coalgebra_matrix(c, inv_nu, inv_lam, twist_coeff), variant, lam, nu, c
    )


def _coalgebra_matrix(
    c: HomCoalgebra, first: Scalar, second: Scalar, twist_coeff: Scalar
) -> Matrix:
    alpha_cols = [c.alpha.column(i) for i in range(c.dim)]
    deltas = [c.comult_coords(i) for i in range(c.dim)]

    def column(i: int, j: int) -> Vector:
        out = vec_scale(first * c.counit[i], deltas[j])
        out = vec_add(out, vec_scale(second * c.counit[j], deltas[i]))
        return vec_sub(out, vec_scale(twist_coeff, tensor2(alpha_cols[i], alpha_cols[j])))

    return _operator_matrix(c.dim, c.params, column)


# -- twisted-Lie operators (bracket against a central element) ------------------------


def _check_u(lie: HomLieAlgebra, u: Sequence[Scalar]) -> Vector:
    u = tuple(_require_param(lie, s, "u") for s in u)
    if len(u) != lie.dim:
        raise DimensionError(f"u must have length {lie.dim}, got {len(u)}")
    if not is_central(lie, u):
        raise PreconditionError("u is not central: some bracket [u, e_i] is nonzero")
    if not is_alpha_invariant(lie, u):
        warnings.warn(
            "u is not alpha-invariant (alpha(u) != u); the stated hypothesis is "
            "violated and the twist-compatibility of the operator is not guaranteed",
            ConstructionWarning,
            stacklevel=3,
        )
    return u


def lie_solution(
    lie: HomLieAlgebra,
    u: Sequence[Scalar],
    lam: Scalar,
    nu: Scalar,
    *,
    unchecked: bool = False,
) -> SolutionOperator:
    """B(x⊗y) = λ·[x,y]⊗u − ν·α(y)⊗α(x) for a central u."""
    lam = _require_param(lie, lam, "lambda")
    nu = _require_param(lie, nu, "nu")
    _require_valid(lie, unchecked, multiplicative=True)
    u = _check_u(lie, u)
    alpha_cols = [lie.alpha.column(i) for i in range(lie.dim)]

    def column(i: int, j: int) -> Vector:
        out = vec_scale(lam, tensor2(lie.bracket_table[i][j], u))
        return vec_sub(out, vec_scale(nu, tensor2(alpha_cols[j], alpha_cols[i])))

    matrix = _operator_matrix(lie.dim, lie.params, column)
    return SolutionOperator(matrix, Construction.LIE41, lam, nu, lie)


def lie_solution_inverse(
    lie: HomLieAlgebra,
    u: Sequence[Scalar],
    lam: Scalar,
    *,
    unchecked: bool = False,
) -> SolutionOperator:
    """Inverse of the bracket-type operator at ν = 1, for involutive α.

    Implemented as B⁻¹(x⊗y) = λ·α(u)⊗[x,y] − α(y)⊗α(x).  When α fixes u this
    is the published closed form; applying α to the u-leg is what actually
    inverts B in general (it is forced by α² = id and the bracket
    multiplicativity of α, and the catalog's own twisted-Lie example has
    α(u) = −u).
    """
    lam = _require_param(lie, lam, "lambda")
    _require_valid(lie, unchecked, multiplicative=True)
    _require_involutive(lie, unchecked)
    u = _check_u(lie, u)
    alpha_u = lie.apply_alpha(u)
    alpha_cols = [lie.alpha.column(i) for i in range(lie.dim)]

    def column(i: int, j: int) -> Vector:
        out = vec_scale(lam, tensor2(alpha_u, lie.bracket_table[i][j]))
        return vec_sub(out, tensor2(alpha_cols[j], alpha_cols[i]))

    matrix = _operator_matrix(lie.dim, lie.params, column)
    one = Scalar.one(lie.params)
    return SolutionOperator(matrix, Construction.LIE_INV42, lam, one, lie)


def chybe_r(
    lie: HomLieAlgebra,
    x: Sequence[Scalar],
    y: Sequence[Scalar],
    u: Sequence[Scalar],
    m: int,
    n: int,
    *,
    alpha_inverse: Matrix | None = None,
    unchecked: bool = False,
) -> RMatrix:
    """The rank-one tensor αᵐ([x,y]) ⊗ αⁿ(u) for a central u.

    Negative powers need an explicit inverse twist matrix.  The vanishing of
    the middle bracket needs αⁿ(u) central, which does not follow from u being
    central; it is checked here rather than assumed.
    """
    _require_valid(lie, unchecked)
    x = tuple(_require_param(lie, s, "x") for s in x)
    y = tuple(_require_param(lie, s, "y") for s in y)
    u = tuple(_require_param(lie, s, "u") for s in u)
    if len(x) != lie.dim or len(y) != lie.dim or len(u) != lie.dim:
        raise DimensionError(f"x, y, u must have length {lie.dim}")
    if not is_central(lie, u):
        raise PreconditionError("u is not central")

    if (m < 0 or n < 0) and alpha_inverse is None:
        raise PreconditionError(
            "negative twist powers require an explicit alpha inverse matrix"
        )
    if alpha_inverse is not None:
        if alpha_inverse @ lie.alpha != Matrix.identity(lie.dim, lie.params):
            raise PreconditionError("supplied alpha_inverse is not an inverse of alpha")

    def power(vec: Vector, e: int) -> Vector:
        mat = lie.alpha if e >= 0 else alpha_inverse
        for _ in range(abs(e)):
            vec = mat.apply(vec)
        return vec

    first = power(lie.bracket_of(x, y), m)
    second = power(u, n)
    if not is_central(lie, second):
        raise PreconditionError(
            f"alpha^{n}(u) is not central, so the middle bracket does not vanish"
        )
    return RMatrix(tensor2(first, second), lie)


# -- system triples --------------------------------------------------------------


def system_algebra(
    a: HomAlgebra, lam: Scalar, nu: Scalar, *, unchecked: bool = False
) -> tuple[SolutionOperator, SolutionOperator, SolutionOperator]:
    """The algebra system triple W, Z, X; note the flipped twist term α(b)⊗α(a).

    W(a⊗b) = ab⊗1 + λ·1⊗ab − α(b)⊗α(a)
    Z(a⊗b) = ν·ab⊗1 + 1⊗ab − α(b)⊗α(a)
    X(a⊗b) = ab⊗1 + 1⊗ab − α(b)⊗α(a)
    """
    lam = _require_param(a, lam, "lambda")
    nu = _require_param(a, nu, "nu")
    _require_valid(a, unchecked)
    one = Scalar.one(a.params)
    alpha_cols = [a.alpha.column(i) for i in range(a.dim)]

    def make(first: Scalar, second: Scalar, tag: Construction) -> SolutionOperator:
        def column(i: int, j: int) -> Vector:
            out = vec_scale(first, tensor2(a.mult[i][j], a.unit))
            out = vec_add(out, vec_scale(second, tensor2(a.unit, a.mult[i][j])))
            return vec_sub(out, tensor2(alpha_cols[j], alpha_cols[i]))

        return SolutionOperator(
            _operator_matrix(a.dim, a.params, column), tag, lam, nu, a
        )

    return (
        make(one, lam, Construction.SYS_W52),
        make(nu, one, Construction.SYS_Z52),
        make(one, one, Construction.SYS_X52),
    )


def system_coalgebra(
    c: HomCoalgebra, lam: Scalar, nu: Scalar, *, unchecked: bool = False
) -> tuple[SolutionOperator, SolutionOperator, SolutionOperator]:
    """The coalgebra system triple W, Z, X with the flipped twist term.

    W(a⊗b) = λ·ε(a)Δ(b) + ε(b)Δ(a) − α(b)⊗α(a), Z and X likewise with the
    ν-weight on the second term and with both weights 1.
    """
    lam = _require_param(c, lam, "lambda")
    nu = _require_param(c, nu, "nu")
    _require_valid(c, unchecked)
    one = Scalar.one(c.params)
    alpha_cols = [c.alpha.column(i) for i in range(c.dim)]
    deltas = [c.comult_coords(i) for i in range(c.dim)]

    def make(first: Scalar, second: Scalar, tag: Construction) -> SolutionOperator:
        def column(i: int, j: int) -> Vector:
            out = vec_scale(first * c.counit[i], deltas[j])
            out = vec_add(out, vec_scale(second * c.counit[j], deltas[i]))
            return vec_sub(out, tensor2(alpha_cols[j], alpha_cols[i]))

        return SolutionOperator(
            _operator_matrix(c.dim, c.params, column), tag, lam, nu, c
        )

    return (
        make(lam, one, Construction.SYS_W53),
        make(one, nu, Construction.SYS_Z53),
        make(one, one, Construction.SYS_X53),
    )
