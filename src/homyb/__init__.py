"""Exact construction and verification of twisted Yang-Baxter solution operators.

The package turns structure-constant descriptions of twisted algebras,
coalgebras and Lie algebras into explicit solution operators on the tensor
square, and verifies the braid identity, inverse laws, the classical r-matrix
condition and system conditions as exact identities in a Laurent-polynomial
parameter ring.
"""

from .constructions import (
    Construction,
    SolutionOperator,
    algebra_solution,
    algebra_solution_inverse,
    build,
    build_many,
    chybe_r,
    coalgebra_solution,
    coalgebra_solution_inverse,
    lie_solution,
    lie_solution_inverse,
    system_algebra,
    system_coalgebra,
)
from .errors import (
    ConstructionWarning,
    DimensionError,
    EvalError,
    HomybError,
    NonInvertibleError,
    ParamMismatchError,
    ParseError,
    PreconditionError,
    StructureError,
    UnknownEntryError,
)
from .scalar import ParamSet, Rational, Scalar, format_scalar, parse_scalar
from .structures import (
    HomAlgebra,
    HomCoalgebra,
    HomLieAlgebra,
    is_alpha_invariant,
    is_central,
    validate,
    validate_hom_algebra,
    validate_hom_coalgebra,
    validate_hom_lie,
)
from .tensor import (
    Matrix,
    flip,
    kron,
    leg12,
    leg13,
    leg23,
    product_difference,
    tensor2,
)
from .verify import (
    VerificationReport,
    Witness,
    chybe_holds,
    commutes_with_alpha,
    hybe_holds,
    inverse_holds,
    system_holds,
    yb_commutator,
)

__all__ = [
    "CatalogEntry",
    "Construction",
    "ConstructionWarning",
    "DimensionError",
    "EvalError",
    "HomAlgebra",
    "HomCoalgebra",
    "HomLieAlgebra",
    "HomybError",
    "Matrix",
    "NonInvertibleError",
    "ParamMismatchError",
    "ParamSet",
    "ParseError",
    "PreconditionError",
    "Rational",
    "Scalar",
    "SolutionOperator",
    "StructureError",
    "UnknownEntryError",
    "VerificationReport",
    "Witness",
    "algebra_solution",
    "algebra_solution_inverse",
    "build",
    "build_many",
    "catalog_get",
    "catalog_list",
    "chybe_holds",
    "chybe_r",
    "coalgebra_solution",
    "coalgebra_solution_inverse",
    "commutes_with_alpha",
    "compare_table",
    "flip",
    "format_scalar",
    "hybe_holds",
    "inverse_holds",
    "is_alpha_invariant",
    "is_central",
    "kron",
    "leg12",
    "leg13",
    "leg23",
    "lie_solution",
    "lie_solution_inverse",
    "mismatched_pairs",
    "parse_scalar",
    "product_difference",
    "system_algebra",
    "system_coalgebra",
    "system_holds",
    "tensor2",
    "validate",
    "validate_hom_algebra",
    "validate_hom_coalgebra",
    "validate_hom_lie",
    "verify_all",
    "verify_entry",
    "yb_commutator",
]

__version__ = "0.1.0"

# looked up in `homyb.catalog` at every access and never stored, so `import homyb` skips it
_CATALOG = ("CatalogEntry", "catalog_get", "catalog_list", "compare_table",
            "mismatched_pairs", "verify_all", "verify_entry")


def __getattr__(name: str):
    if name not in _CATALOG:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import catalog
    return getattr(catalog, name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_CATALOG])
