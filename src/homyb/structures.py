"""Structure-constant descriptions of the three twisted structures.

Each structure stores raw data (basis names, tables of coordinate vectors, the
twist matrix) and is validated on demand.  Validators enumerate every basis
tuple of the relevant arity, so a passing report certifies the axiom for all
elements by multilinearity; a failing one carries exact residual witnesses.
Structures are stored raw even when broken -- the tool must be able to load a
defective table to diagnose it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, ClassVar, Mapping, Sequence

from .errors import DimensionError, StructureError
from .scalar import ParamSet, Scalar, parse_scalar
from .tensor import (
    Matrix,
    Vector,
    basis_vector,
    tensor2,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vector,
)
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

    def apply_alpha(self, vec: Sequence[Scalar]) -> Vector:
        return self.alpha.apply(vec)

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


def _bilinear(
    table: tuple[tuple[Vector, ...], ...],
    u: Sequence[Scalar],
    v: Sequence[Scalar],
    params: ParamSet,
) -> Vector:
    """Coordinates of the bilinear extension of a table of basis products, at (u, v)."""
    out = list(zero_vector(len(table), params))
    for i, ui in enumerate(u):
        if not ui.terms:
            continue
        for j, vj in enumerate(v):
            if not vj.terms:
                continue
            c = ui * vj
            for k, w in enumerate(table[i][j]):
                if w.terms:
                    out[k] = out[k] + c * w
    return tuple(out)


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

    def product(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
        """Coordinates of u·v, extended bilinearly from the structure constants."""
        return _bilinear(self.mult, u, v, self.params)

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

    def comult_coords(self, i: int) -> Vector:
        """Δ(e_i) as a dim² coordinate vector."""
        return self.comult_of(self.basis_vec(i))

    def comult_of(self, vec: Sequence[Scalar]) -> Vector:
        d = self.dim
        out = list(zero_vector(d * d, self.params))
        for i, vi in enumerate(vec):
            if not vi.terms:
                continue
            for j, k, c in self.comult[i]:
                out[j * d + k] = out[j * d + k] + vi * c
        return tuple(out)

    def counit_of(self, vec: Sequence[Scalar]) -> Scalar:
        out = Scalar.zero(self.params)
        for vi, eps in zip(vec, self.counit):
            if vi.terms and eps.terms:
                out = out + vi * eps
        return out

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

    def bracket_of(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
        return _bilinear(self.bracket_table, u, v, self.params)

    def _map(self, fn: Callable[[Scalar], Scalar], params: ParamSet) -> "HomLieAlgebra":
        return replace(
            self,
            params=params,
            alpha=self.alpha.map(fn, params),
            bracket_table=_cells(fn, self.bracket_table),
        )


HomStructure = HomAlgebra | HomCoalgebra | HomLieAlgebra


# -- validators ---------------------------------------------------------------


def _vector_failures(
    row: int, diff: Sequence[Scalar], label: str
) -> list[Witness]:
    return [
        Witness(row, c, s, f"{label}->{c}") for c, s in enumerate(diff) if s.terms
    ]


def _multiplicative_failures(
    s: HomAlgebra | HomLieAlgebra, table: tuple[tuple[Vector, ...], ...], label: str
) -> list[Witness]:
    """α(e_i·e_j) against α(e_i)·α(e_j) on every basis pair, for a table of products."""
    d = s.dim
    alpha_cols = [s.alpha.column(i) for i in range(d)]
    failures = []
    for i in range(d):
        for j in range(d):
            lhs = s.apply_alpha(table[i][j])
            rhs = _bilinear(table, alpha_cols[i], alpha_cols[j], s.params)
            where = f"{label}({s.basis[i]},{s.basis[j]})"
            failures.extend(_vector_failures(i * d + j, vec_sub(lhs, rhs), where))
    return failures


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
    es = [a.basis_vec(i) for i in range(d)]
    alpha_es = [a.apply_alpha(e) for e in es]

    ha1 = _multiplicative_failures(a, a.mult, "HA1")
    ha1_unit = _vector_failures(
        0, vec_sub(a.apply_alpha(a.unit), a.unit), "HA1(unit)"
    )

    ha2 = []
    for i in range(d):
        for j in range(d):
            prod_ij = a.mult[i][j]
            for k in range(d):
                lhs = a.product(alpha_es[i], a.mult[j][k])
                rhs = a.product(prod_ij, alpha_es[k])
                ha2.extend(
                    _vector_failures(
                        (i * d + j) * d + k,
                        vec_sub(lhs, rhs),
                        f"HA2({basis[i]},{basis[j]},{basis[k]})",
                    )
                )

    ha2_unit = []
    for i in range(d):
        for side, value in ((f"{basis[i]}*1", a.product(es[i], a.unit)),
                            (f"1*{basis[i]}", a.product(a.unit, es[i]))):
            where = f"HA2-unit({side})"
            ha2_unit.extend(_vector_failures(i, vec_sub(value, alpha_es[i]), where))

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
    params = c.params
    alpha_cols = [c.alpha.column(i) for i in range(d)]

    hc1 = []
    hc1_counit = []
    hc2 = []
    hc2_counit = []
    for i in range(d):
        delta_i = c.comult[i]

        # (α⊗α)Δ(e_i) vs Δ(α(e_i)), and (α⊗Δ)Δ vs (Δ⊗α)Δ on e_i
        lhs = zero_vector(d * d, params)
        left = right = zero_vector(d ** 3, params)
        for j, k, coeff in delta_i:
            lhs = vec_add(lhs, vec_scale(coeff, tensor2(alpha_cols[j], alpha_cols[k])))
            left = vec_add(left, vec_scale(coeff, tensor2(alpha_cols[j], c.comult_coords(k))))
            right = vec_add(right, vec_scale(coeff, tensor2(c.comult_coords(j), alpha_cols[k])))
        rhs = c.comult_of(alpha_cols[i])
        hc1.extend(_vector_failures(i, vec_sub(lhs, rhs), f"HC1({basis[i]})"))

        # ε(α(e_i)) vs ε(e_i)
        diff = c.counit_of(alpha_cols[i]) - c.counit[i]
        if diff.terms:
            hc1_counit.append(Witness(i, 0, diff, f"HC1-counit({basis[i]})"))

        hc2.extend(_vector_failures(i, vec_sub(left, right), f"HC2({basis[i]})"))

        # (ε⊗id)Δ = (id⊗ε)Δ = α on e_i
        eps_left = list(zero_vector(d, params))
        eps_right = list(zero_vector(d, params))
        for j, k, coeff in delta_i:
            eps_left[k] = eps_left[k] + c.counit[j] * coeff
            eps_right[j] = eps_right[j] + coeff * c.counit[k]
        for side, eps in (("eps⊗id", eps_left), ("id⊗eps", eps_right)):
            where = f"HC2-counit({side})({basis[i]})"
            hc2_counit.extend(_vector_failures(i, vec_sub(tuple(eps), alpha_cols[i]), where))

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
    alpha_cols = [lie.alpha.column(i) for i in range(d)]

    hl1 = []
    for i in range(d):
        for j in range(d):
            diff = vec_add(lie.bracket_table[i][j], lie.bracket_table[j][i])
            hl1.extend(_vector_failures(i * d + j, diff, f"HL1({basis[i]},{basis[j]})"))

    hl2 = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                total = vec_add(
                    vec_add(
                        lie.bracket_of(alpha_cols[i], lie.bracket_table[j][k]),
                        lie.bracket_of(alpha_cols[j], lie.bracket_table[k][i]),
                    ),
                    lie.bracket_of(alpha_cols[k], lie.bracket_table[i][j]),
                )
                hl2.extend(
                    _vector_failures(
                        (i * d + j) * d + k,
                        total,
                        f"HL2({basis[i]},{basis[j]},{basis[k]})",
                    )
                )

    parts = [
        leaf_report("HL1-antisym", hl1, witness_cap=witness_cap, tuples=str(d * d)),
        leaf_report("HL2-jacobi", hl2, witness_cap=witness_cap, tuples=str(d ** 3)),
    ]

    if require_multiplicative:
        mult = _multiplicative_failures(lie, lie.bracket_table, "alpha-mult")
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
    """[u, e_i] = 0 for every basis element."""
    if len(u) != lie.dim:
        raise DimensionError(f"vector of length {len(u)} in dimension {lie.dim}")
    return all(
        vec_is_zero(lie.bracket_of(u, lie.basis_vec(i))) for i in range(lie.dim)
    )


def is_alpha_invariant(structure: _StructureBase, u: Sequence[Scalar]) -> bool:
    """α(u) = u exactly."""
    if len(u) != structure.dim:
        raise DimensionError(f"vector of length {len(u)} in dimension {structure.dim}")
    return vec_is_zero(vec_sub(structure.apply_alpha(u), u))
