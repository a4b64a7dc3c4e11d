"""The three twisted structures, held as their maps, and their axiom validators.

A structure is its basis names, its ParamSet and its maps as sparse matrices:
the twist α with μ and the unit, with Δ and ε, or with the bracket.  The maps
are built once, when the structure is created, and every axiom and
construction reads them directly; `files` is the one module that converts
between the table format of structure files and these matrices.  Validation
runs on demand: every axiom is a matrix identity whose
`tensor.product_difference` residual has one column per basis tuple, so a
passing report certifies the axiom for all elements by multilinearity; a
failing one carries exact residual witnesses.  Creating a structure checks
only the shapes, so a defective table still loads and can be diagnosed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter
from typing import Callable, ClassVar, Mapping, Sequence

from .errors import DimensionError, StructureError
from .scalar import ParamSet, Scalar
from .tensor import Matrix, Vector, basis_vector, flip, kron, product_difference
from .verify import DEFAULT_WITNESS_CAP, VerificationReport, Witness, combine, leaf_report


@dataclass(frozen=True)
class _StructureBase:
    name: str
    basis: tuple[str, ...]
    params: ParamSet
    alpha: Matrix

    # map field -> (a, b): the map is a dim^a × dim^b matrix
    _maps: ClassVar[dict[str, tuple[int, int]]]

    def __post_init__(self):
        if not self.basis:
            raise StructureError("empty basis")
        for key, (a, b) in self._maps.items():
            m, rows, cols = getattr(self, key), self.dim ** a, self.dim ** b
            if (m.rows, m.cols) != (rows, cols):
                raise StructureError(f"{key}: expected {rows}x{cols}, got {m.rows}x{m.cols}")
            if m.params != self.params:
                raise StructureError(f"{key}: matrix over a different parameter set")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_vec(self, i: int) -> Vector:
        return basis_vector(self.dim, i, self.params)

    @property
    def identity(self) -> Matrix:
        return Matrix.identity(self.dim, self.params)

    def basis_index(self, name: str) -> int:
        try:
            return self.basis.index(name)
        except ValueError:
            raise StructureError(f"unknown basis element {name!r}") from None

    def substitute(self, assignment: Mapping[str, Fraction | int]):
        """The same structure with the given parameters replaced by values."""
        return self._map(lambda s: s.substitute(assignment), self.params)

    def extend(self, params: ParamSet):
        """The same structure over a larger ParamSet."""
        return self._map(lambda s: s.extend(params), params)

    def _map(self, fn: Callable[[Scalar], Scalar], params: ParamSet):
        """The structure with `fn` applied to every entry of every map."""
        maps = {key: getattr(self, key).map(fn, params) for key in self._maps}
        return replace(self, params=params, **maps)


@dataclass(frozen=True)
class HomAlgebra(_StructureBase):
    """(A, μ, 1_A, α).

    μ is dim×dim²: column i·dim + j is the product e_i·e_j.  The unit η is
    dim×1.
    """

    kind: ClassVar[str] = "hom-algebra"
    _maps: ClassVar[dict[str, tuple[int, int]]] = {"alpha": (1, 1), "mu": (1, 2), "eta": (1, 0)}
    mu: Matrix
    eta: Matrix


@dataclass(frozen=True)
class HomCoalgebra(_StructureBase):
    """(C, Δ, ε, α).

    Δ is dim²×dim: column i is Δ(e_i), with e_j⊗e_k at row j·dim + k.  The
    counit ε is 1×dim.
    """

    kind: ClassVar[str] = "hom-coalgebra"
    _maps: ClassVar[dict[str, tuple[int, int]]] = {
        "alpha": (1, 1), "delta": (2, 1), "epsilon": (0, 1)
    }
    delta: Matrix
    epsilon: Matrix


@dataclass(frozen=True)
class HomLieAlgebra(_StructureBase):
    """(L, [·,·], α).

    The bracket is dim×dim²: column i·dim + j is [e_i, e_j].
    """

    kind: ClassVar[str] = "hom-lie"
    _maps: ClassVar[dict[str, tuple[int, int]]] = {"alpha": (1, 1), "bracket": (1, 2)}
    bracket: Matrix


HomStructure = HomAlgebra | HomCoalgebra | HomLieAlgebra


# -- validators ---------------------------------------------------------------


def _names(basis: Sequence[str], t: int, arity: int) -> str:
    """The basis names of the flat tensor index t of the given arity, comma-separated."""
    names = []
    for _ in range(arity):
        t, i = divmod(t, len(basis))
        names.append(basis[i])
    return ",".join(reversed(names))


def _failures(residual: Matrix, label: Callable[[int], str]) -> list[Witness]:
    """One witness per nonzero entry (c, t) of a residual whose column t is a basis tuple.

    The witness sits at row t, column c, carries the label `label(t)->c`, and
    the witnesses are ordered by (t, c).
    """
    entries = sorted(residual.nonzero(), key=lambda e: (e[1], e[0]))
    return [Witness(t, c, v, f"{label(t)}->{c}") for c, t, v in entries]


def _interleaved(*sides: list[Witness]) -> list[Witness]:
    """The witnesses of several residuals over the same basis tuples, tuple by tuple."""
    return sorted((w for side in sides for w in side), key=attrgetter("row"))


def validate_hom_algebra(
    a: HomAlgebra, *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """Exhaustive exact check of the twisted-algebra axioms on all basis tuples.

    Subchecks: multiplicativity of the twist, twist fixing the unit, twisted
    associativity on every basis triple, and the twisted unit law.
    """
    started = time.perf_counter()
    d = a.dim
    basis = a.basis
    al, m, u, ident = a.alpha, a.mu, a.eta, a.identity

    ha1 = _failures(
        product_difference(al, m, m, kron(al, al)), lambda t: f"HA1({_names(basis, t, 2)})"
    )
    one = Matrix.identity(1, a.params)
    ha1_unit = _failures(product_difference(al, u, u, one), lambda t: "HA1(unit)")
    ha2 = _failures(
        product_difference(m, kron(al, m), m, kron(m, al)),
        lambda t: f"HA2({_names(basis, t, 3)})",
    )
    ha2_unit = _interleaved(
        _failures(product_difference(m, kron(ident, u), al, ident),
                  lambda t: f"HA2-unit({basis[t]}*1)"),
        _failures(product_difference(m, kron(u, ident), al, ident),
                  lambda t: f"HA2-unit(1*{basis[t]})"),
    )

    parts = [
        leaf_report("HA1-mult", ha1, witness_cap=witness_cap, tuples=str(d * d)),
        leaf_report("HA1-unit", ha1_unit, witness_cap=witness_cap, tuples="1"),
        leaf_report("HA2-assoc", ha2, witness_cap=witness_cap, tuples=str(d ** 3)),
        leaf_report("HA2-unit", ha2_unit, witness_cap=witness_cap, tuples=str(d)),
    ]
    return combine("hom-algebra-axioms", parts, started, witness_cap=witness_cap)


def validate_hom_coalgebra(
    c: HomCoalgebra, *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """Exhaustive exact check of the twisted-coalgebra axioms on all basis vectors."""
    started = time.perf_counter()
    d = c.dim
    basis = c.basis
    al, delta, eps, ident = c.alpha, c.delta, c.epsilon, c.identity

    # (α⊗α)Δ = Δα, εα = ε, (α⊗Δ)Δ = (Δ⊗α)Δ and (ε⊗id)Δ = (id⊗ε)Δ = α
    hc1 = _failures(
        product_difference(kron(al, al), delta, delta, al), lambda t: f"HC1({basis[t]})"
    )
    hc1_counit = [
        Witness(t, 0, v, f"HC1-counit({basis[t]})")
        for _, t, v in product_difference(eps, al, eps, ident).nonzero()
    ]
    hc2 = _failures(
        product_difference(kron(al, delta), delta, kron(delta, al), delta),
        lambda t: f"HC2({basis[t]})",
    )
    hc2_counit = _interleaved(
        _failures(product_difference(kron(eps, ident), delta, al, ident),
                  lambda t: f"HC2-counit(eps⊗id)({basis[t]})"),
        _failures(product_difference(kron(ident, eps), delta, al, ident),
                  lambda t: f"HC2-counit(id⊗eps)({basis[t]})"),
    )

    parts = [
        leaf_report("HC1-comult", hc1, witness_cap=witness_cap, tuples=str(d)),
        leaf_report("HC1-counit", hc1_counit, witness_cap=witness_cap, tuples=str(d)),
        leaf_report("HC2-coassoc", hc2, witness_cap=witness_cap, tuples=str(d)),
        leaf_report("HC2-counit", hc2_counit, witness_cap=witness_cap, tuples=str(d)),
    ]
    return combine("hom-coalgebra-axioms", parts, started, witness_cap=witness_cap)


def validate_hom_lie(
    lie: HomLieAlgebra,
    require_multiplicative: bool = False,
    *,
    witness_cap: int | None = DEFAULT_WITNESS_CAP,
) -> VerificationReport:
    """Antisymmetry on all pairs, the twisted Jacobi identity on all triples.

    The definition does not ask the twist to respect the bracket, but the
    operator constructions do; `require_multiplicative` adds that check.
    """
    started = time.perf_counter()
    d = lie.dim
    basis = lie.basis
    params = lie.params
    al, br = lie.alpha, lie.bracket

    # [x,y] + [y,x] = L(I + F); the Jacobi sum is X(I + P + P²) with
    # X = L(α⊗L) and P the cyclic shift x⊗y⊗z ↦ y⊗z⊗x
    hl1 = _failures(
        product_difference(br, Matrix.identity(d * d, params), -br, flip(d, d, params)),
        lambda t: f"HL1({_names(basis, t, 2)})",
    )
    x = br @ kron(al, br)
    cycle = flip(d, d * d, params)
    hl2 = _failures(
        product_difference(x, Matrix.identity(d ** 3, params) + cycle, -x, cycle @ cycle),
        lambda t: f"HL2({_names(basis, t, 3)})",
    )

    parts = [
        leaf_report("HL1-antisym", hl1, witness_cap=witness_cap, tuples=str(d * d)),
        leaf_report("HL2-jacobi", hl2, witness_cap=witness_cap, tuples=str(d ** 3)),
    ]

    if require_multiplicative:
        mult = _failures(
            product_difference(al, br, br, kron(al, al)),
            lambda t: f"alpha-mult({_names(basis, t, 2)})",
        )
        parts.append(
            leaf_report("alpha-multiplicative", mult, witness_cap=witness_cap, tuples=str(d * d))
        )

    return combine("hom-lie-axioms", parts, started, witness_cap=witness_cap)


def validate(structure: HomStructure, require_multiplicative: bool = False,
             *, witness_cap: int | None = DEFAULT_WITNESS_CAP) -> VerificationReport:
    if isinstance(structure, HomAlgebra):
        return validate_hom_algebra(structure, witness_cap=witness_cap)
    if isinstance(structure, HomCoalgebra):
        return validate_hom_coalgebra(structure, witness_cap=witness_cap)
    if isinstance(structure, HomLieAlgebra):
        return validate_hom_lie(
            structure, require_multiplicative, witness_cap=witness_cap
        )
    raise TypeError(f"not a Hom structure: {type(structure).__name__}")


# -- element predicates -----------------------------------------------------------


def is_central(lie: HomLieAlgebra, u: Sequence[Scalar]) -> bool:
    """[u, e_i] = 0 for every basis element: L(u⊗id) is zero."""
    if len(u) != lie.dim:
        raise DimensionError(f"vector of length {len(u)} in dimension {lie.dim}")
    return (lie.bracket @ kron(Matrix.from_cols(lie.params, [u]), lie.identity)).is_zero()


def is_alpha_invariant(structure: _StructureBase, u: Sequence[Scalar]) -> bool:
    """α(u) = u exactly."""
    if len(u) != structure.dim:
        raise DimensionError(f"vector of length {len(u)} in dimension {structure.dim}")
    return structure.alpha.apply(u) == tuple(u)
