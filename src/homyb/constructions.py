"""Builders that turn a validated structure into explicit solution operators.

Every operator here is one formula on basis pairs,

    B(a⊗b) = first·L(a,b) + second·R(a,b) − twist·T(a,b),

with L and R taken from the structure's kind: μ(a,b)⊗1 and 1⊗μ(a,b) for
algebras, ε(a)Δ(b) and ε(b)Δ(a) for coalgebras, [a,b]⊗u and α(u)⊗[a,b] for Lie
algebras.  T is α(a)⊗α(b), or the flipped α(b)⊗α(a).  Each term is a
Kronecker product of the structure's sparse maps (μ⊗1, ε⊗Δ, α⊗α, ...), T
composed with the tensor flip when flipped.  `RECIPES` records, for
each `Construction`, its kind, its three coefficients as powers of λ and ν,
whether T is flipped and which construction it inverts.  `build` and
`build_many` read it; the named builders are thin wrappers over `build`.
`build_many` checks every construction's preconditions before it builds
anything, the axioms by the verdict the structure keeps (`structures.verdict`),
then builds the legs L, R and T once (T flipped only if a recipe asks for it)
and sums them for each construction in one `tensor.combination` call.

The matrix is dim²×dim²: column (i·dim + j) holds the coordinates of the image
of e_i⊗e_j.  Builders are deterministic and make no claims -- the identities
the operators are supposed to satisfy are checked downstream by `verify`.
"""

from __future__ import annotations

import enum
import sys
import warnings
from typing import Any, Callable, Sequence

from . import verify
from ._record import record
from .errors import ConstructionWarning, DimensionError, PreconditionError
from .scalar import Scalar
from .structures import (
    HomAlgebra,
    HomCoalgebra,
    HomLieAlgebra,
    HomStructure,
    is_alpha_invariant,
    is_central,
    verdict,
)
from .tensor import Matrix, Vector, combination, flip, kron, tensor2
from .verify import VerificationReport

# chybe_r applies the twist |m| + |n| times; larger powers are refused
MAX_TWIST_POWER = 100


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


# a coefficient λ^a·ν^b, written as its exponents (a, b)
Power = tuple[int, int]


@record(frozen=True)
class Recipe:
    """B(a⊗b) = first·L + second·R − twist·T on one kind of structure.

    A `None` coefficient drops its term.  Preconditions: the structure's
    axioms; an involutive α for an inverse; a monomial λ or ν where it has a
    negative power; a central u for the Lie kind.  `nu_is_one` builds at
    ν = 1, together with whatever is built alongside it.
    """

    kind: type
    first: Power | None
    second: Power | None
    twist: Power
    flipped: bool = False
    inverts: Construction | None = None
    nu_is_one: bool = False


_LAM, _NU, _ONE, _INV_LAM, _INV_NU = (1, 0), (0, 1), (0, 0), (-1, 0), (0, -1)
_C = Construction

RECIPES: dict[Construction, Recipe] = {
    _C.ALG21: Recipe(HomAlgebra, _LAM, _NU, _LAM),
    _C.ALG24: Recipe(HomAlgebra, _LAM, _NU, _NU),
    _C.ALG_INV22: Recipe(HomAlgebra, _INV_NU, _INV_LAM, _INV_LAM, inverts=_C.ALG21),
    _C.ALG_INV24: Recipe(HomAlgebra, _INV_NU, _INV_LAM, _INV_NU, inverts=_C.ALG24),
    _C.COALG31: Recipe(HomCoalgebra, _LAM, _NU, _LAM),
    _C.COALG34: Recipe(HomCoalgebra, _LAM, _NU, _NU),
    _C.COALG_INV32: Recipe(HomCoalgebra, _INV_NU, _INV_LAM, _INV_LAM, inverts=_C.COALG31),
    _C.COALG_INV34: Recipe(HomCoalgebra, _INV_NU, _INV_LAM, _INV_NU, inverts=_C.COALG34),
    _C.LIE41: Recipe(HomLieAlgebra, _LAM, None, _NU, flipped=True),
    # λ·α(u)⊗[x,y] − α(y)⊗α(x): where α fixes u, the published closed form; α
    # on the u-leg is what inverts B in general (forced by α² = id and the
    # bracket multiplicativity of α; the catalog's ex4.3 has α(u) = −u)
    _C.LIE_INV42: Recipe(
        HomLieAlgebra, None, _LAM, _ONE, flipped=True, inverts=_C.LIE41, nu_is_one=True
    ),
    _C.SYS_W52: Recipe(HomAlgebra, _ONE, _LAM, _ONE, flipped=True),
    _C.SYS_Z52: Recipe(HomAlgebra, _NU, _ONE, _ONE, flipped=True),
    _C.SYS_X52: Recipe(HomAlgebra, _ONE, _ONE, _ONE, flipped=True),
    _C.SYS_W53: Recipe(HomCoalgebra, _LAM, _ONE, _ONE, flipped=True),
    _C.SYS_Z53: Recipe(HomCoalgebra, _ONE, _NU, _ONE, flipped=True),
    _C.SYS_X53: Recipe(HomCoalgebra, _ONE, _ONE, _ONE, flipped=True),
}

# system name -> its (W, Z, X) constructions
SYSTEMS: dict[str, tuple[Construction, Construction, Construction]] = {
    "thm5.2": (_C.SYS_W52, _C.SYS_Z52, _C.SYS_X52),
    "thm5.3": (_C.SYS_W53, _C.SYS_Z53, _C.SYS_X53),
}

# forward construction -> the construction that inverts it
INVERSE: dict[Construction, Construction] = {
    r.inverts: c for c, r in RECIPES.items() if r.inverts is not None
}


@record(frozen=True)
class SolutionOperator:
    """An operator on the tensor square plus the recipe that produced it."""

    matrix: Matrix
    construction: Construction
    lam: Scalar
    nu: Scalar
    source: HomStructure


def is_involutive(structure: HomStructure) -> bool:
    """α² = id exactly."""
    return structure.alpha @ structure.alpha == Matrix.identity(structure.dim, structure.params)


def _warn(message: str) -> None:
    """A ConstructionWarning attributed to the first caller outside this module."""
    level, frame = 1, sys._getframe()
    while frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    warnings.warn(message, ConstructionWarning, stacklevel=level)


def _require(holds: bool, unchecked: bool, error: str, warning: str) -> None:
    """Raise PreconditionError(error) unless `holds`; with `unchecked`, warn instead."""
    if holds:
        return
    if not unchecked:
        raise PreconditionError(error)
    _warn(warning)


def _require_valid(structure: HomStructure, unchecked: bool, require_multiplicative: bool = False) -> None:
    """Require that the structure's axioms hold, by its `verdict` with the validator flag."""
    holds, names = verdict(structure, require_multiplicative)
    failing = ", ".join(names)
    _require(holds, unchecked, f"structure {structure.name or '<unnamed>'} fails axioms ({failing})",
             f"building on a structure that fails axioms ({failing})")


def _central_u(lie: HomLieAlgebra, u: Sequence[Scalar] | None, construction: str) -> Vector:
    if u is None:
        raise PreconditionError(f"construction {construction} requires a central element u")
    u = tuple(s.extend(lie.params) for s in u)
    if len(u) != lie.dim:
        raise DimensionError(f"u must have length {lie.dim}, got {len(u)}")
    if not is_central(lie, u):
        raise PreconditionError("u is not central: some bracket [u, e_i] is nonzero")
    if not is_alpha_invariant(lie, u):
        _warn(
            "u is not alpha-invariant (alpha(u) != u); the stated hypothesis is "
            "violated and the twist-compatibility of the operator is not guaranteed"
        )
    return u


def _kind_legs(structure: HomStructure, u: Vector | None) -> tuple[Matrix, Matrix, Matrix]:
    """The matrices L, R and the unflipped T = α⊗α of the kind's two-term formula."""
    params = structure.params
    alpha = structure.alpha
    if isinstance(structure, HomAlgebra):
        m, unit = structure.mu, structure.eta
        left, right = kron(m, unit), kron(unit, m)
    elif isinstance(structure, HomCoalgebra):
        delta, eps = structure.delta, structure.epsilon
        left, right = kron(eps, delta), kron(delta, eps)
    else:
        br, u_col = structure.bracket, Matrix.from_cols(params, [u])
        left, right = kron(br, u_col), kron(alpha @ u_col, br)
    return left, right, kron(alpha, alpha)


def _two_term_operator(legs: tuple[Matrix, ...], coefficients: tuple[Scalar | None, ...]) -> Matrix:
    """The matrix of B = first·L + second·R − twist·T, for legs (L, R, T), in one kernel call."""
    (left, right, twisted), (first, second, twist) = legs, coefficients
    return combination([(c, leg) for c, leg in ((-twist, twisted), (first, left), (second, right))
                        if c is not None])


def build_many(
    structure: HomStructure,
    constructions: Sequence[Construction],
    lam: Scalar,
    nu: Scalar,
    *,
    u: Sequence[Scalar] | None = None,
    unchecked: bool = False,
) -> list[SolutionOperator]:
    """Operators built together: a system's triple, or a pair (B, its inverse).

    The structure is validated only if it keeps no verdict yet, and every
    construction's preconditions are checked before any operator is built.
    `unchecked` turns a failed axiom and a non-involutive α into warnings; a
    non-monomial λ or ν where an inverse power needs it, and a missing or
    non-central u, are always errors.  If one construction is defined at
    ν = 1, all are built there.  `u` is the central element of the Lie
    constructions; others ignore it.
    """
    recipes = [RECIPES[c] for c in constructions]
    for c, recipe in zip(constructions, recipes):
        if not isinstance(structure, recipe.kind):
            actual = getattr(structure, "kind", type(structure).__name__)
            raise PreconditionError(
                f"construction {c.value} requires a {recipe.kind.kind} structure, not {actual}"
            )
    if any(recipe.nu_is_one for recipe in recipes):
        nu = Scalar.one(structure.params)
    lam, nu = lam.extend(structure.params), nu.extend(structure.params)
    lie = isinstance(structure, HomLieAlgebra)
    _require_valid(structure, unchecked, lie)
    powers = [p for r in recipes for p in (r.first, r.second, r.twist) if p is not None]
    for k, (name, value) in enumerate((("lambda", lam), ("nu", nu))):
        # only a negative power needs an inverse in the Laurent ring
        if any(p[k] < 0 for p in powers) and not value.is_monomial():
            raise PreconditionError(f"{name} = {value} is not an invertible (monomial) scalar")
    if any(recipe.inverts is not None for recipe in recipes):
        _require(
            is_involutive(structure),
            unchecked,
            "alpha is not involutive (alpha^2 != identity)",
            "alpha is not involutive",
        )
    if not constructions:
        return []
    central = _central_u(structure, u, constructions[0].value) if lie else None
    left, right, twisted = _kind_legs(structure, central)
    if any(recipe.flipped for recipe in recipes):
        flipped = twisted @ flip(structure.dim, structure.dim, structure.params)
    ops = []
    for c, recipe in zip(constructions, recipes):
        coefficients = tuple(
            None if p is None else lam ** p[0] * nu ** p[1]
            for p in (recipe.first, recipe.second, recipe.twist)
        )
        legs = (left, right, flipped if recipe.flipped else twisted)
        ops.append(SolutionOperator(_two_term_operator(legs, coefficients), c, lam, nu, structure))
    return ops


def build(
    structure: HomStructure,
    construction: Construction,
    lam: Scalar,
    nu: Scalar,
    *,
    u: Sequence[Scalar] | None = None,
    unchecked: bool = False,
) -> SolutionOperator:
    """The operator of one construction; see `build_many` for the preconditions."""
    return build_many(structure, (construction,), lam, nu, u=u, unchecked=unchecked)[0]


# -- the named builders -------------------------------------------------------------


def _among(variant: Construction, *allowed: Construction) -> Construction:
    if variant not in allowed:
        expected = " or ".join(c.value for c in allowed)
        raise PreconditionError(f"expected construction {expected}, got {variant.value}")
    return variant


def algebra_solution(
    a: HomAlgebra,
    variant: Construction,
    lam: Scalar,
    nu: Scalar,
    *,
    unchecked: bool = False,
) -> SolutionOperator:
    """B(a⊗b) = λ·ab⊗1 + ν·1⊗ab − c·α(a)⊗α(b), with c = λ or ν by variant."""
    return build(a, _among(variant, _C.ALG21, _C.ALG24), lam, nu, unchecked=unchecked)


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
    `unchecked` a non-involutive twist becomes a warning so the failure of the
    inverse law can be exhibited downstream.
    """
    variant = _among(variant, _C.ALG_INV22, _C.ALG_INV24)
    return build(a, variant, lam, nu, unchecked=unchecked)


def coalgebra_solution(
    c: HomCoalgebra,
    variant: Construction,
    lam: Scalar,
    nu: Scalar,
    *,
    unchecked: bool = False,
) -> SolutionOperator:
    """B(a⊗b) = λ·ε(a)Δ(b) + ν·ε(b)Δ(a) − c·α(a)⊗α(b), with c = λ or ν by variant."""
    return build(c, _among(variant, _C.COALG31, _C.COALG34), lam, nu, unchecked=unchecked)


def coalgebra_solution_inverse(
    c: HomCoalgebra,
    variant: Construction,
    lam: Scalar,
    nu: Scalar,
    *,
    unchecked: bool = False,
) -> SolutionOperator:
    """Closed-form inverse: 1/ν·ε(a)Δ(b) + 1/λ·ε(b)Δ(a) − c·α(a)⊗α(b)."""
    variant = _among(variant, _C.COALG_INV32, _C.COALG_INV34)
    return build(c, variant, lam, nu, unchecked=unchecked)


def lie_solution(
    lie: HomLieAlgebra,
    u: Sequence[Scalar],
    lam: Scalar,
    nu: Scalar,
    *,
    unchecked: bool = False,
) -> SolutionOperator:
    """B(x⊗y) = λ·[x,y]⊗u − ν·α(y)⊗α(x) for a central u."""
    return build(lie, _C.LIE41, lam, nu, u=u, unchecked=unchecked)


def lie_solution_inverse(
    lie: HomLieAlgebra,
    u: Sequence[Scalar],
    lam: Scalar,
    *,
    unchecked: bool = False,
) -> SolutionOperator:
    """Inverse at ν = 1: B⁻¹(x⊗y) = λ·α(u)⊗[x,y] − α(y)⊗α(x); see `RECIPES`."""
    return build(lie, _C.LIE_INV42, lam, Scalar.one(lie.params), u=u, unchecked=unchecked)


def system_algebra(
    a: HomAlgebra, lam: Scalar, nu: Scalar, *, unchecked: bool = False
) -> tuple[SolutionOperator, SolutionOperator, SolutionOperator]:
    """The algebra system triple W, Z, X; note the flipped twist term α(b)⊗α(a).

    W(a⊗b) = ab⊗1 + λ·1⊗ab − α(b)⊗α(a)
    Z(a⊗b) = ν·ab⊗1 + 1⊗ab − α(b)⊗α(a)
    X(a⊗b) = ab⊗1 + 1⊗ab − α(b)⊗α(a)
    """
    return tuple(build_many(a, SYSTEMS["thm5.2"], lam, nu, unchecked=unchecked))


def system_coalgebra(
    c: HomCoalgebra, lam: Scalar, nu: Scalar, *, unchecked: bool = False
) -> tuple[SolutionOperator, SolutionOperator, SolutionOperator]:
    """The coalgebra system triple W, Z, X with the flipped twist term.

    W(a⊗b) = λ·ε(a)Δ(b) + ε(b)Δ(a) − α(b)⊗α(a), Z and X likewise with the
    ν-weight on the second term and with both weights 1.
    """
    return tuple(build_many(c, SYSTEMS["thm5.3"], lam, nu, unchecked=unchecked))


# -- the classical r-matrix ----------------------------------------------------------


def chybe_r(
    lie: HomLieAlgebra,
    x: Sequence[Scalar],
    y: Sequence[Scalar],
    u: Sequence[Scalar],
    m: int,
    n: int,
    *,
    alpha_inverse: Matrix | None = None,
) -> Vector:
    """The coordinates in L⊗L of the rank-one tensor αᵐ([x,y]) ⊗ αⁿ(u) for a central u.

    Negative powers need an explicit inverse twist matrix, and |m| and |n| are
    at most `MAX_TWIST_POWER`.  The vanishing of the middle bracket needs αⁿ(u)
    central, which does not follow from u being central; it is checked here
    rather than assumed.
    """
    if max(abs(m), abs(n)) > MAX_TWIST_POWER:
        raise PreconditionError(
            f"twist powers m = {m}, n = {n} exceed the bound {MAX_TWIST_POWER}"
        )
    _require_valid(lie, False)
    x, y, u = (tuple(s.extend(lie.params) for s in vec) for vec in (x, y, u))
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

    first = power(lie.bracket.apply(tensor2(x, y)), m)
    second = power(u, n)
    if not is_central(lie, second):
        raise PreconditionError(
            f"alpha^{n}(u) is not central, so the middle bracket does not vanish"
        )
    return tensor2(first, second)


# -- the identity checks -------------------------------------------------------------


@record(frozen=True)
class Check:
    """An identity check: the constructions it builds for each name it takes, and its report.

    chybe takes no name: it is given r from `chybe_r`.  `report(structure,
    built, cap)` decides the identity on what was built on the structure (alpha
    and hybe also take a bare operator matrix), with at most `cap` witnesses.
    `needs` says what the check must be given, as the command line asks for it,
    and `reads` names every command-line flag that the check reads.
    """

    builds: dict[str, tuple[Construction, ...]]
    needs: str
    reads: tuple[str, ...]
    report: Callable[[HomStructure, Any, int | None], VerificationReport]


_SINGLES = {c.value: (c,) for c in Construction if all(c not in t for t in SYSTEMS.values())}
_PAIRS = {c.value: (RECIPES[c].inverts, c) for c in sorted(INVERSE.values(), key=lambda c: c.value)}

# the flags that build operators; --u is read only by the Lie constructions
_BUILDING = ("--construction", "--lambda", "--nu")

# check name -> the check.  Each report looks its checker up in `verify` when it
# runs, so a wrapper bound there in place of the checker is the one called.
CHECKS: dict[str, Check] = {
    "alpha": Check(_SINGLES, "a single-operator construction", (*_BUILDING, "--u", "--operator"),
                   lambda s, ops, cap: verify.commutes_with_alpha(ops[0], s.alpha, witness_cap=cap)),
    "hybe": Check(_SINGLES, "a single-operator construction", (*_BUILDING, "--u", "--operator"),
                  lambda s, ops, cap: verify.hybe_holds(ops[0], s.alpha, witness_cap=cap)),
    "inverse": Check(_PAIRS, "--construction among " + ", ".join(_PAIRS), (*_BUILDING, "--u"),
                     lambda s, ops, cap: verify.inverse_holds(ops[0].matrix, ops[1].matrix, witness_cap=cap)),
    "system": Check(SYSTEMS, "--construction " + " or ".join(SYSTEMS), _BUILDING,
                    lambda s, ops, cap: verify.system_holds(*ops, s.alpha, witness_cap=cap)),
    "chybe": Check({}, "--x, --y and --u", ("--x", "--y", "--u", "--m", "--n"),
                   lambda s, r, cap: verify.chybe_holds(r, s, witness_cap=cap)),
}
