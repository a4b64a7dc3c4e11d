"""The three twisted structures, held as their maps, and their axiom validators.

A structure is its basis names, its ParamSet and its maps as sparse matrices:
the twist α with μ and the unit, with Δ and ε, or with the bracket.  The maps
are built once, when the structure is created, and every axiom and
construction reads them directly; `files` is the one module that converts
between the table format of structure files and these matrices.  Creating a
structure checks only the shapes, so a defective table still loads and can
be diagnosed.

Each kind's validator builds a table of its axioms, rows (report name, arity,
identities), and one loop checks every table.  An identity (a, b, c, d,
label) states a·b = c·d; column t of its `tensor.product_difference` residual
is the basis tuple of that arity with flat index t, so a passing report
certifies the axiom for all elements by multilinearity, and a failing one
carries an exact witness per nonzero entry, labelled by the template with
`{t}` for the tuple's basis names and `{c}` for the entry's row.

`validate` makes a fresh report each call and keeps its verdict (holds, failing
subcheck names) on the structure, per validator flag; `verdict` validates only
where none is kept.  `replace` copies fields only, so a verdict is never copied.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, ClassVar, Mapping, Sequence

from ._record import record, replace
from .errors import DimensionError, StructureError
from .scalar import ParamSet, Scalar
from .tensor import Matrix, Vector, flip, kron, product_difference
from .verify import DEFAULT_WITNESS_CAP, VerificationReport, Witness, combine, leaf_report


@record(frozen=True)
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
        vec = [Scalar.zero(self.params)] * self.dim
        vec[i] = Scalar.one(self.params)
        return tuple(vec)

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


@record(frozen=True)
class HomAlgebra(_StructureBase):
    """(A, μ, 1_A, α).

    μ is dim×dim²: column i·dim + j is the product e_i·e_j.  The unit η is
    dim×1.
    """

    kind: ClassVar[str] = "hom-algebra"
    _maps: ClassVar[dict[str, tuple[int, int]]] = {"alpha": (1, 1), "mu": (1, 2), "eta": (1, 0)}
    mu: Matrix
    eta: Matrix


@record(frozen=True)
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


@record(frozen=True)
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
    d = len(basis)
    return ",".join(basis[t // d ** k % d] for k in reversed(range(arity)))


def _check(name: str, basis: Sequence[str], axioms: list, started: float,
           witness_cap: int | None) -> VerificationReport:
    """One report per axiom of the table, combined under `name`.

    Each nonzero residual entry (c, t) is a witness at row t, column c; an
    axiom's witnesses are ordered by tuple, then identity, then c.
    """
    parts = []
    for axiom, arity, identities in axioms:
        found = sorted(
            ((t, k, c, v, label)
             for k, (*factors, label) in enumerate(identities)
             for c, t, v in product_difference(*factors).nonzero()),
            key=lambda e: e[:3],
        )
        witnesses = [Witness(t, c, v, label.format(t=_names(basis, t, arity), c=c))
                     for t, _, c, v, label in found]
        parts.append(leaf_report(axiom, witnesses, witness_cap=witness_cap,
                                 tuples=str(len(basis) ** arity)))
    return combine(name, parts, started, witness_cap=witness_cap)


def validate_hom_algebra(
    a: HomAlgebra, *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """Exhaustive exact check of the twisted-algebra axioms on all basis tuples.

    Subchecks: multiplicativity of the twist, twist fixing the unit, twisted
    associativity on every basis triple, and the twisted unit law.
    """
    started = time.perf_counter()
    al, m, u, ident = a.alpha, a.mu, a.eta, Matrix.identity(a.dim, a.params)
    axioms = [
        ("HA1-mult", 2, [(al, m, m, kron(al, al), "HA1({t})->{c}")]),
        ("HA1-unit", 0, [(al, u, u, Matrix.identity(1, a.params), "HA1(unit)->{c}")]),
        ("HA2-assoc", 3, [(m, kron(al, m), m, kron(m, al), "HA2({t})->{c}")]),
        ("HA2-unit", 1, [(m, kron(ident, u), al, ident, "HA2-unit({t}*1)->{c}"),
                         (m, kron(u, ident), al, ident, "HA2-unit(1*{t})->{c}")]),
    ]
    return _check("hom-algebra-axioms", a.basis, axioms, started, witness_cap)


def validate_hom_coalgebra(
    c: HomCoalgebra, *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """Exhaustive exact check of the twisted-coalgebra axioms on all basis vectors.

    (α⊗α)Δ = Δα, εα = ε, (α⊗Δ)Δ = (Δ⊗α)Δ and (ε⊗id)Δ = (id⊗ε)Δ = α.
    """
    started = time.perf_counter()
    al, delta, eps, ident = c.alpha, c.delta, c.epsilon, Matrix.identity(c.dim, c.params)
    axioms = [
        ("HC1-comult", 1, [(kron(al, al), delta, delta, al, "HC1({t})->{c}")]),
        ("HC1-counit", 1, [(eps, al, eps, ident, "HC1-counit({t})")]),
        ("HC2-coassoc", 1, [(kron(al, delta), delta, kron(delta, al), delta, "HC2({t})->{c}")]),
        ("HC2-counit", 1, [
            (kron(eps, ident), delta, al, ident, "HC2-counit(eps⊗id)({t})->{c}"),
            (kron(ident, eps), delta, al, ident, "HC2-counit(id⊗eps)({t})->{c}"),
        ]),
    ]
    return _check("hom-coalgebra-axioms", c.basis, axioms, started, witness_cap)


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
    d, params, al, br = lie.dim, lie.params, lie.alpha, lie.bracket
    # [x,y] + [y,x] = L(I + F); the Jacobi sum is X(I + P + P²) with X = L(α⊗L),
    # P the cyclic shift x⊗y⊗z ↦ y⊗z⊗x, the swap of V and V⊗V, and P² that of V⊗V and V
    x = br @ kron(al, br)
    axioms = [
        ("HL1-antisym", 2, [
            (br, Matrix.identity(d * d, params), -br, flip(d, d, params), "HL1({t})->{c}"),
        ]),
        ("HL2-jacobi", 3, [
            (x, Matrix.identity(d ** 3, params) + flip(d, d * d, params), -x, flip(d * d, d, params), "HL2({t})->{c}"),
        ]),
    ]
    if require_multiplicative:
        axioms.append(
            ("alpha-multiplicative", 2, [(al, br, br, kron(al, al), "alpha-mult({t})->{c}")])
        )
    return _check("hom-lie-axioms", lie.basis, axioms, started, witness_cap)


def validate(structure: HomStructure, require_multiplicative: bool = False,
             *, witness_cap: int | None = DEFAULT_WITNESS_CAP) -> VerificationReport:
    """The kind's axiom report, made afresh; its verdict is kept on the structure."""
    if isinstance(structure, HomAlgebra):
        report = validate_hom_algebra(structure, witness_cap=witness_cap)
    elif isinstance(structure, HomCoalgebra):
        report = validate_hom_coalgebra(structure, witness_cap=witness_cap)
    elif isinstance(structure, HomLieAlgebra):
        report = validate_hom_lie(structure, require_multiplicative, witness_cap=witness_cap)
    else:
        raise TypeError(f"not a Hom structure: {type(structure).__name__}")
    failing = tuple(sub.check_name for sub in report.subreports if not sub.holds)
    # validator flag -> verdict, beside the fields of the frozen record
    vars(structure).setdefault("_verdicts", {})[require_multiplicative] = (report.holds, failing)
    return report


def verdict(structure: HomStructure, require_multiplicative: bool = False) -> tuple[bool, tuple[str, ...]]:
    """(holds, failing subcheck names) of `validate`, which runs only if no verdict is kept."""
    if require_multiplicative not in vars(structure).get("_verdicts", ()):
        validate(structure, require_multiplicative)
    return structure._verdicts[require_multiplicative]


# -- element predicates -----------------------------------------------------------


def is_central(lie: HomLieAlgebra, u: Sequence[Scalar]) -> bool:
    """[u, e_i] = 0 for every basis element: L(u⊗id) is zero."""
    if len(u) != lie.dim:
        raise DimensionError(f"vector of length {len(u)} in dimension {lie.dim}")
    return (lie.bracket @ kron(Matrix.from_cols(lie.params, [u]), Matrix.identity(lie.dim, lie.params))).is_zero()


def is_alpha_invariant(structure: _StructureBase, u: Sequence[Scalar]) -> bool:
    """α(u) = u exactly."""
    if len(u) != structure.dim:
        raise DimensionError(f"vector of length {len(u)} in dimension {structure.dim}")
    return structure.alpha.apply(u) == tuple(u)
