"""Structure-constant descriptions of the three twisted structures.

Each structure stores raw data (basis names, tables of coordinate vectors, the
twist matrix), exposes its maps once as sparse matrices (μ, the unit, Δ, ε or
the bracket) and is validated on demand.  Every axiom is a matrix identity
whose `tensor.product_difference` residual has one column per basis tuple, so
a passing report certifies the axiom for all elements by multilinearity; a
failing one carries exact residual witnesses.  Structures are stored raw even
when broken -- the tool must be able to load a defective table to diagnose it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter
from typing import Callable, ClassVar, Mapping, Sequence

from .errors import DimensionError, StructureError
from .scalar import ParamSet, Scalar, parse_scalar
from .tensor import Matrix, Vector, basis_vector, flip, kron, product_difference, zero_vector
from .verify import DEFAULT_WITNESS_CAP, VerificationReport, Witness, combine, leaf_report


def _parse_vector(strings: Sequence[str], params: ParamSet) -> Vector:
    return tuple(parse_scalar(s, params) for s in strings)


def _parse_base(
    name: str, basis: Sequence[str], params: ParamSet, alpha: Sequence[Sequence[str]]
) -> dict:
    """The fields every structure has, with the twist matrix parsed."""
    matrix = Matrix.from_rows(params, [_parse_vector(row, params) for row in alpha])
    return {"name": name, "basis": tuple(basis), "params": params, "alpha": matrix}


@dataclass(frozen=True)
class _StructureBase:
    name: str
    basis: tuple[str, ...]
    params: ParamSet
    alpha: Matrix

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_vec(self, i: int) -> Vector:
        return basis_vector(self.dim, i, self.params)

    @property
    def identity(self) -> Matrix:
        return Matrix.identity(self.dim, self.params)

    def _check_base(self) -> None:
        if not self.basis:
            raise StructureError("empty basis")
        if self.alpha.rows != self.dim or self.alpha.cols != self.dim:
            raise StructureError(
                f"alpha: expected {self.dim}x{self.dim}, got {self.alpha.rows}x{self.alpha.cols}"
            )

    def _check_table(self, table: tuple[tuple[Vector, ...], ...], key: str) -> None:
        d = self.dim
        if len(table) != d or any(len(row) != d for row in table):
            raise StructureError(f"{key}: expected {d}x{d}")
        if any(len(cell) != d for row in table for cell in row):
            raise StructureError(f"{key}: coordinate vectors must have length {d}")

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


def _cells(fn: Callable[[Scalar], Scalar], table: tuple[tuple[Vector, ...], ...]):
    return tuple(tuple(tuple(fn(s) for s in cell) for cell in row) for row in table)


@dataclass(frozen=True)
class HomAlgebra(_StructureBase):
    """(A, μ, 1_A, α): multiplication table, unit coordinates, twist matrix."""

    kind: ClassVar[str] = "hom-algebra"
    unit: Vector = ()
    mult: tuple[tuple[Vector, ...], ...] = ()

    def __post_init__(self):
        self._check_base()
        d = self.dim
        if len(self.unit) != d:
            raise StructureError(f"unit: expected length {d}, got {len(self.unit)}")
        self._check_table(self.mult, "mult")

    @classmethod
    def from_strings(
        cls,
        name: str,
        basis: Sequence[str],
        params: ParamSet,
        unit: Sequence[str],
        mult: Sequence[Sequence[Sequence[str]]],
        alpha: Sequence[Sequence[str]],
    ) -> "HomAlgebra":
        return cls(
            **_parse_base(name, basis, params, alpha),
            unit=_parse_vector(unit, params),
            mult=_cells(lambda s: parse_scalar(s, params), mult),
        )

    @property
    def mu(self) -> Matrix:
        """μ as a dim×dim² matrix: column i·dim + j is the product e_i·e_j."""
        return Matrix.from_cols(self.params, (cell for row in self.mult for cell in row))

    @property
    def eta(self) -> Matrix:
        """The unit as a dim×1 matrix."""
        return Matrix.from_cols(self.params, [self.unit])

    def _map(self, fn: Callable[[Scalar], Scalar], params: ParamSet) -> "HomAlgebra":
        return replace(
            self,
            params=params,
            alpha=self.alpha.map(fn, params),
            unit=tuple(fn(s) for s in self.unit),
            mult=_cells(fn, self.mult),
        )


@dataclass(frozen=True)
class HomCoalgebra(_StructureBase):
    """(C, Δ, ε, α): comultiplication triples, counit values, twist matrix.

    `comult[i]` lists (j, k, c) triples meaning Δ(e_i) contains c·e_j⊗e_k.
    """

    kind: ClassVar[str] = "hom-coalgebra"
    counit: Vector = ()
    comult: tuple[tuple[tuple[int, int, Scalar], ...], ...] = ()

    def __post_init__(self):
        self._check_base()
        d = self.dim
        if len(self.counit) != d:
            raise StructureError(f"counit: expected length {d}, got {len(self.counit)}")
        if len(self.comult) != d:
            raise StructureError(f"comult: expected {d} entries, got {len(self.comult)}")
        for i, triples in enumerate(self.comult):
            for j, k, _ in triples:
                if not (0 <= j < d and 0 <= k < d):
                    raise StructureError(f"comult[{i}]: index ({j},{k}) out of range")

    @classmethod
    def from_strings(
        cls,
        name: str,
        basis: Sequence[str],
        params: ParamSet,
        counit: Sequence[str],
        comult: Sequence[Sequence[tuple[int, int, str]]],
        alpha: Sequence[Sequence[str]],
    ) -> "HomCoalgebra":
        return cls(
            **_parse_base(name, basis, params, alpha),
            counit=_parse_vector(counit, params),
            comult=tuple(
                tuple((int(j), int(k), parse_scalar(c, params)) for j, k, c in triples)
                for triples in comult
            ),
        )

    @property
    def delta(self) -> Matrix:
        """Δ as a dim²×dim matrix: column i is Δ(e_i), repeated triples summed."""
        d = self.dim
        cols = [list(zero_vector(d * d, self.params)) for _ in range(d)]
        for col, triples in zip(cols, self.comult):
            for j, k, c in triples:
                col[j * d + k] = col[j * d + k] + c
        return Matrix.from_cols(self.params, cols)

    @property
    def epsilon(self) -> Matrix:
        """ε as a 1×dim matrix."""
        return Matrix.from_rows(self.params, [self.counit])

    def _map(self, fn: Callable[[Scalar], Scalar], params: ParamSet) -> "HomCoalgebra":
        return replace(
            self,
            params=params,
            alpha=self.alpha.map(fn, params),
            counit=tuple(fn(s) for s in self.counit),
            comult=tuple(tuple((j, k, fn(c)) for j, k, c in triples) for triples in self.comult),
        )


@dataclass(frozen=True)
class HomLieAlgebra(_StructureBase):
    """(L, [·,·], α): bracket table of coordinate vectors and twist matrix."""

    kind: ClassVar[str] = "hom-lie"
    bracket_table: tuple[tuple[Vector, ...], ...] = ()

    def __post_init__(self):
        self._check_base()
        self._check_table(self.bracket_table, "bracket")

    @classmethod
    def from_strings(
        cls,
        name: str,
        basis: Sequence[str],
        params: ParamSet,
        bracket: Sequence[Sequence[Sequence[str]]],
        alpha: Sequence[Sequence[str]],
    ) -> "HomLieAlgebra":
        return cls(
            **_parse_base(name, basis, params, alpha),
            bracket_table=_cells(lambda s: parse_scalar(s, params), bracket),
        )

    @property
    def bracket(self) -> Matrix:
        """The bracket as a dim×dim² matrix: column i·dim + j is [e_i, e_j]."""
        return Matrix.from_cols(
            self.params, (cell for row in self.bracket_table for cell in row)
        )

    def _map(self, fn: Callable[[Scalar], Scalar], params: ParamSet) -> "HomLieAlgebra":
        return replace(
            self,
            params=params,
            alpha=self.alpha.map(fn, params),
            bracket_table=_cells(fn, self.bracket_table),
        )


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
