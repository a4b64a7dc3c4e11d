"""Built-in example structures with their published operator tables.

Printed tables are stored verbatim, typos included, and compared against the
regenerated operators; the comparison never patches anything.  Rows known to
deviate from the closed-form operator are recorded per entry, so the catalog
doubles as an errata record: `verify-all` treats a deviation as expected
exactly when it is documented.

Basis names, tables and twist maps follow the published examples; the
parameter printed as k is named `kk` here to avoid colliding with the ground
field in prose and file formats.  Each structure is written as a structure-file
document and loaded by `files.structure_from_dict`, so the built-in examples
pass the same checks as user files.
"""

from __future__ import annotations

import time
import warnings
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from ._record import field, record
from .constructions import (
    CHECKS,
    INVERSE,
    RECIPES,
    SYSTEMS,
    Construction,
    SolutionOperator,
    _build_many,
    build,
    chybe_r,
)
from .errors import ConstructionWarning, UnknownEntryError
from .files import _parse_at, structure_from_dict
from .scalar import Scalar, parse_scalar
from .structures import HomAlgebra, HomCoalgebra, HomLieAlgebra, HomStructure, validate
from .tensor import Vector
from .verify import DEFAULT_WITNESS_CAP, VerificationReport, Witness, clip, combine
# not called here; perfbench/test_perfbench.py::test_tracer_counts_and_restores reads it
from .verify import hybe_holds  # noqa: F401

# printed table: (left basis name, right basis name) -> summands (p, q, coeff expr)
PrintedTable = dict[tuple[str, str], list[tuple[str, str, str]]]

# the checks every entry with an operator runs first
_OPERATOR_CHECKS = ("axioms", "table", "alpha-commute", "hybe")


@record(frozen=True)
class CatalogEntry:
    """A published structure, its operator recipe and the checks verify_entry runs on it.

    `checks` names entries of `_CHECKS`, in report order.  The inverse check
    runs where α is involutive: after the substitution `involutive_at`, which
    its reported name then carries.
    """

    id: str
    description: str
    structure: HomStructure
    notes: tuple[str, ...]
    variant: Construction | None = None
    expected_table: PrintedTable | None = None
    documented_mismatches: frozenset[tuple[str, str]] = frozenset()
    expected_failures: frozenset[str] = frozenset()
    u: tuple[str, ...] | None = None
    involutive_at: dict[str, str] = field(default_factory=dict)
    checks: tuple[str, ...] = ("axioms",)

    @property
    def kind(self) -> str:
        return self.structure.kind

    def lam(self) -> Scalar:
        return parse_scalar("lam", self.structure.params)

    def nu(self) -> Scalar:
        return parse_scalar("nu", self.structure.params)

    def u_vector(self) -> Vector | None:
        if self.u is None:
            return None
        return tuple(parse_scalar(s, self.structure.params) for s in self.u)

    def expectations(self) -> dict[str, bool]:
        """check name -> expected verdict for everything verify_entry runs."""
        return {name: name not in self.expected_failures for name in self.check_names()}

    def check_names(self) -> tuple[str, ...]:
        at = ",".join(f"{k}={v}" for k, v in self.involutive_at.items())
        return tuple(f"inverse@{at}" if c == "inverse" and at else c for c in self.checks)


@record()
class TableComparison:
    left: int
    right: int
    left_name: str
    right_name: str
    expected: Vector
    computed: Vector
    match: bool


# -- the published structures ---------------------------------------------------


def _structure(cls: type, **doc) -> HomStructure:
    """A structure-file document, given all but its kind and dim, loaded as a file is."""
    return structure_from_dict({"kind": cls.kind, "dim": len(doc["basis"]), **doc})


def _entry_ex23() -> CatalogEntry:
    structure = _structure(
        HomAlgebra,
        name="ex2.3",
        basis=["x1", "x2", "x3"],
        parameters=["l", "lam", "nu"],
        unit=["1", "0", "0"],
        mult=[
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "l"]],
            [["0", "1", "0"], ["0", "1", "0"], ["0", "0", "l"]],
            [["0", "0", "l"], ["0", "0", "0"], ["0", "0", "0"]],
        ],
        alpha=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "l"]],
    )
    table: PrintedTable = {
        ("x1", "x1"): [("x1", "x1", "nu")],
        ("x1", "x2"): [("x2", "x1", "lam"), ("x1", "x2", "nu - lam")],
        ("x1", "x3"): [("x3", "x1", "lam*l"), ("x1", "x3", "l*(nu - lam)")],
        ("x2", "x1"): [("x1", "x2", "nu")],
        ("x2", "x2"): [("x2", "x1", "lam"), ("x1", "x2", "nu"), ("x2", "x2", "-lam")],
        ("x2", "x3"): [("x3", "x1", "lam*l"), ("x1", "x3", "nu*l"), ("x2", "x3", "-lam*l")],
        ("x3", "x1"): [("x1", "x3", "nu*l")],
        ("x3", "x2"): [("x3", "x2", "-lam*l")],
        ("x3", "x3"): [("x3", "x3", "-lam*l^2")],
    }
    return CatalogEntry(
        id="ex2.3",
        description="3-dim twisted algebra with parameter l; algebra operator, first variant",
        structure=structure,
        variant=Construction.ALG21,
        expected_table=table,
        expected_failures=frozenset({"inverse-symbolic"}),
        notes=(
            "alpha = diag(1,1,l) is involutive only at l = 1; the closed-form "
            "inverse is checked there, and with symbolic l the inverse law fails "
            "with every residual divisible by (l^2 - 1).",
        ),
        involutive_at={"l": "1"},
        checks=_OPERATOR_CHECKS + ("system", "inverse", "inverse-symbolic"),
    )


def _entry_ex25(verbatim: bool) -> CatalogEntry:
    gg = ["0", "1", "0", "0"] if verbatim else ["1", "0", "0", "0"]
    xg = ["0", "0", "0", "kk"] if verbatim else ["0", "0", "0", "-kk"]
    structure = _structure(
        HomAlgebra,
        name="ex2.5-verbatim" if verbatim else "ex2.5",
        basis=["1", "g", "x", "y"],
        parameters=["kk", "lam", "nu"],
        unit=["1", "0", "0", "0"],
        mult=[
            [["1", "0", "0", "0"], ["0", "1", "0", "0"],
             ["0", "0", "kk", "0"], ["0", "0", "0", "kk"]],
            [["0", "1", "0", "0"], gg,
             ["0", "0", "0", "kk"], ["0", "0", "kk", "0"]],
            [["0", "0", "kk", "0"], xg,
             ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
            [["0", "0", "0", "kk"], ["0", "0", "-kk", "0"],
             ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
        ],
        alpha=[
            ["1", "0", "0", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "kk", "0"],
            ["0", "0", "0", "kk"],
        ],
    )
    table: PrintedTable = {
        ("1", "1"): [("1", "1", "lam")],
        ("1", "g"): [("g", "1", "lam")],
        ("1", "x"): [("x", "1", "lam*kk")],
        ("1", "y"): [("1", "y", "lam*kk")],
        ("g", "1"): [("g", "1", "lam - nu"), ("1", "g", "nu")],
        ("g", "g"): [("1", "1", "lam + nu"), ("g", "g", "-nu")],
        ("g", "x"): [("y", "1", "lam*kk"), ("1", "y", "nu*kk"), ("g", "x", "-nu*kk")],
        ("g", "y"): [("x", "1", "lam*kk"), ("1", "x", "nu*kk"), ("g", "y", "-nu*kk")],
        ("x", "1"): [("x", "1", "kk*(lam - nu)"), ("1", "x", "nu*kk")],
        ("x", "g"): [("y", "1", "-lam*kk"), ("1", "y", "-nu*kk"), ("x", "g", "-lam*kk")],
        ("x", "x"): [("x", "x", "-kk^2")],
        ("x", "y"): [("x", "y", "-kk^2")],
        ("y", "1"): [("y", "1", "kk*(lam - nu)"), ("1", "y", "nu*kk")],
        ("y", "g"): [("x", "1", "-lam*kk"), ("1", "x", "-nu*kk"), ("y", "g", "-lam*kk")],
        ("y", "x"): [("y", "x", "-kk^2")],
        ("y", "y"): [("y", "y", "-kk^2")],
    }
    if verbatim:
        return CatalogEntry(
            id="ex2.5-verbatim",
            description="4-dim twisted algebra, multiplication table exactly as printed (broken)",
            structure=structure,
            expected_failures=frozenset({"axioms"}),
            notes=(
                "With the printed mu(g,g)=g and mu(x,g)=kk*y the twisted "
                "associativity fails; first witness triple (g,g,x).",
            ),
        )
    return CatalogEntry(
        id="ex2.5",
        description="4-dim twisted algebra (corrected gg=1, xg=-kk*y); algebra operator, second variant",
        structure=structure,
        variant=Construction.ALG24,
        expected_table=table,
        documented_mismatches=frozenset(
            {("1", "y"), ("x", "g"), ("y", "g"), ("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")}
        ),
        notes=(
            "Corrections relative to the printed table: gg = 1 (the printed "
            "B(g⊗g) and the axioms force it) and xg = -kk*y (the axioms and the "
            "printed B(x⊗g) summands force the sign).",
            "Documented table deviations: B(1⊗y) appears with the legs swapped; "
            "B(x⊗g) and B(y⊗g) print the twist coefficient -lam*kk where the "
            "operator has -nu*kk; the four -kk^2 rows drop the nu factor.",
        ),
        involutive_at={"kk": "1"},
        checks=_OPERATOR_CHECKS + ("system", "inverse"),
    )


def _entry_ex33() -> CatalogEntry:
    structure = _structure(
        HomCoalgebra,
        name="ex3.3",
        basis=["1", "a", "a2"],
        parameters=["lam", "nu"],
        counit=["1", "1", "1"],
        comult=[
            [[0, 0, "1"]],
            [[2, 2, "1"]],
            [[1, 1, "1"]],
        ],
        alpha=[
            ["1", "0", "0"],
            ["0", "0", "1"],
            ["0", "1", "0"],
        ],
    )
    table: PrintedTable = {
        ("1", "1"): [("1", "1", "nu")],
        ("1", "a"): [("a2", "a2", "lam"), ("1", "1", "nu"), ("1", "a2", "-lam")],
        ("1", "a2"): [("a", "a", "lam"), ("1", "1", "nu"), ("1", "a", "-lam")],
        ("a", "1"): [("1", "1", "lam"), ("a2", "a2", "nu"), ("a2", "1", "-lam")],
        ("a", "a"): [("a2", "a2", "nu")],
        ("a", "a2"): [("a", "a", "lam"), ("a2", "a2", "nu"), ("a2", "a", "-lam")],
        ("a2", "1"): [("1", "1", "lam"), ("a", "a", "nu"), ("a", "1", "-lam")],
        ("a2", "a"): [("a", "a", "nu")],
        ("a2", "a2"): [("a2", "a2", "lam"), ("a", "a", "nu"), ("a", "a2", "-lam")],
    }
    return CatalogEntry(
        id="ex3.3",
        description="3-dim twisted coalgebra on {1, a, a2}; coalgebra operator, first variant",
        structure=structure,
        variant=Construction.COALG31,
        expected_table=table,
        documented_mismatches=frozenset({("a2", "a"), ("a2", "a2")}),
        notes=(
            "The source defines alpha(a)=a2 twice and never alpha(a2); the "
            "counit compatibility forces alpha(a2)=a, which is what is stored.",
            "The printed rows B(a2⊗a) and B(a2⊗a2) are each other's correct "
            "values (swapped in print); both deviations are documented.",
        ),
        checks=_OPERATOR_CHECKS + ("system", "inverse"),
    )


def _entry_ex35() -> CatalogEntry:
    structure = _structure(
        HomCoalgebra,
        name="ex3.5",
        basis=["1", "g", "x", "y"],
        parameters=["kk", "lam", "nu"],
        counit=["1", "1", "0", "0"],
        comult=[
            [[0, 0, "1"]],
            [[1, 1, "1"]],
            [[2, 0, "kk"], [1, 2, "kk"]],
            [[3, 1, "kk"], [0, 3, "kk"]],
        ],
        alpha=[
            ["1", "0", "0", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "kk", "0"],
            ["0", "0", "0", "kk"],
        ],
    )
    table: PrintedTable = {
        ("1", "1"): [("1", "1", "lam")],
        ("1", "g"): [("g", "g", "lam"), ("1", "1", "nu"), ("1", "g", "-nu")],
        ("1", "x"): [("x", "1", "lam*kk"), ("g", "x", "lam*kk"), ("1", "x", "-nu*kk")],
        ("1", "y"): [("y", "g", "lam*kk"), ("1", "y", "lam*kk"), ("1", "y", "-nu*kk")],
        ("g", "1"): [("1", "1", "lam"), ("g", "g", "nu"), ("g", "1", "-nu")],
        ("g", "g"): [("g", "g", "lam")],
        ("g", "x"): [("x", "1", "lam*kk"), ("g", "x", "lam*kk"), ("g", "x", "-nu*kk")],
        ("g", "y"): [("y", "g", "lam*kk"), ("1", "y", "nu*kk"), ("g", "y", "-nu*kk")],
        ("x", "1"): [("g", "x", "nu*kk")],
        ("x", "g"): [("x", "1", "nu*kk"), ("g", "x", "nu*kk"), ("x", "g", "-nu*kk")],
        ("x", "x"): [("x", "x", "-kk^2")],
        ("x", "y"): [("x", "y", "-kk^2")],
        ("y", "1"): [("y", "g", "nu*kk"), ("1", "y", "nu*kk"), ("y", "1", "-nu*kk")],
        ("y", "g"): [("y", "g", "nu*kk"), ("1", "y", "nu*kk"), ("y", "g", "-nu*kk")],
        ("y", "x"): [("y", "x", "-kk^2")],
        ("y", "y"): [("y", "y", "-kk^2")],
    }
    return CatalogEntry(
        id="ex3.5",
        description="4-dim twisted coalgebra on {1, g, x, y}; coalgebra operator, second variant",
        structure=structure,
        variant=Construction.COALG34,
        expected_table=table,
        documented_mismatches=frozenset(
            {("g", "y"), ("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")}
        ),
        notes=(
            "Documented table deviations: B(g⊗y) prints nu*kk on the middle "
            "summand where the operator has lam*kk; the four -kk^2 rows drop "
            "the nu factor.",
        ),
        involutive_at={"kk": "1"},
        checks=_OPERATOR_CHECKS + ("system", "inverse"),
    )


def _entry_ex43() -> CatalogEntry:
    structure = _structure(
        HomLieAlgebra,
        name="ex4.3",
        basis=["e1", "e2", "e3"],
        parameters=["lam", "nu"],
        bracket=[
            [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]],
            [["-1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
        ],
        alpha=[
            ["1", "0", "0"],
            ["0", "1", "0"],
            ["0", "0", "-1"],
        ],
    )
    table: PrintedTable = {
        ("e1", "e1"): [("e1", "e1", "-nu")],
        ("e1", "e2"): [("e1", "e3", "lam"), ("e2", "e1", "-nu")],
        ("e1", "e3"): [("e3", "e1", "nu")],
        ("e2", "e1"): [("e1", "e3", "-lam"), ("e1", "e2", "-nu")],
        ("e2", "e2"): [("e2", "e2", "-nu")],
        ("e2", "e3"): [("e3", "e2", "nu")],
        ("e3", "e1"): [("e1", "e3", "nu")],
        ("e3", "e2"): [("e2", "e3", "nu")],
        ("e3", "e3"): [("e3", "e3", "-nu")],
    }
    return CatalogEntry(
        id="ex4.3",
        description="3-dim twisted Lie algebra [e1,e2]=e1, alpha = diag(1,1,-1); bracket operator with u=e3",
        structure=structure,
        variant=Construction.LIE41,
        expected_table=table,
        expected_failures=frozenset({"alpha-commute", "hybe", "hybe-inverse"}),
        notes=(
            "u = e3 is central but not fixed by alpha (alpha(e3) = -e3), so the "
            "stated invariance hypothesis of the bracket construction fails and "
            "the builder warns.  The published table is reproduced exactly, but "
            "the operator does not commute with alpha⊗alpha and the braid "
            "identity genuinely fails: the residual is supported on exactly two "
            "entries, +-2*lam^2*nu at output e1⊗e3⊗e3 against inputs e1⊗e2⊗e2 "
            "and e2⊗e1⊗e2 (hand-checkable; it vanishes whenever alpha fixes u, "
            "and the same operator over alpha = id passes).  Likewise the "
            "nu = 1 inverse operator fails the braid identity.  The inverse "
            "law itself and the classical bracket condition do hold.",
        ),
        u=("0", "0", "1"),
        checks=_OPERATOR_CHECKS + ("inverse", "hybe-inverse", "chybe"),
    )


_BUILDERS: dict[str, Callable[[], CatalogEntry]] = {
    "ex2.3": _entry_ex23,
    "ex2.5": lambda: _entry_ex25(verbatim=False),
    "ex2.5-verbatim": lambda: _entry_ex25(verbatim=True),
    "ex3.3": _entry_ex33,
    "ex3.5": _entry_ex35,
    "ex4.3": _entry_ex43,
}

_CACHE: dict[str, CatalogEntry] = {}


def catalog_list() -> list[tuple[str, str]]:
    """All entry ids with one-line descriptions, in stable order."""
    return [(eid, catalog_get(eid).description) for eid in _BUILDERS]


def catalog_get(entry_id: str) -> CatalogEntry:
    if entry_id not in _BUILDERS:
        raise UnknownEntryError(f"unknown catalog id {entry_id!r}")
    if entry_id not in _CACHE:
        _CACHE[entry_id] = _BUILDERS[entry_id]()
    return _CACHE[entry_id]


# -- regeneration and comparison ---------------------------------------------------


def build_operator(entry: CatalogEntry, structure: HomStructure | None = None) -> SolutionOperator:
    """Run the entry's recipe (suppressing the documented hypothesis warnings)."""
    structure = structure if structure is not None else entry.structure
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstructionWarning)
        return build(structure, entry.variant, entry.lam(), entry.nu(), u=entry.u_vector())


def _printed_coords(entry: CatalogEntry, summands: list[tuple[str, str, str]],
                    parsed: dict[str, Scalar]) -> Vector:
    """The printed column's coordinates; `parsed` holds each distinct expression, parsed once."""
    structure = entry.structure
    d = structure.dim
    out = [Scalar.zero(structure.params)] * (d * d)
    for p_name, q_name, expr in summands:
        k = structure.basis_index(p_name) * d + structure.basis_index(q_name)
        out[k] += _parse_at(expr, structure.params, f"{entry.id} table", parsed)
    return tuple(out)


def compare_table(
    entry: CatalogEntry, op: SolutionOperator | None = None
) -> list[TableComparison]:
    """Compare the entry's operator column-by-column with the printed table.

    The operator is regenerated unless it is given.  Mismatches are data, not
    errors; nothing is patched.
    """
    if entry.expected_table is None:
        raise UnknownEntryError(f"catalog entry {entry.id} has no printed table")
    op = op if op is not None else build_operator(entry)
    structure = entry.structure
    d = structure.dim
    data = op.matrix.data  # decoded once; column c is data[c::d²]
    rows: list[TableComparison] = []
    parsed: dict[str, Scalar] = {}
    for i in range(d):
        for j in range(d):
            pair = (structure.basis[i], structure.basis[j])
            expected = _printed_coords(entry, entry.expected_table[pair], parsed)
            computed = tuple(data[i * d + j::d * d])
            rows.append(TableComparison(i, j, *pair, expected, computed, expected == computed))
    return rows


def mismatched_pairs(rows: Sequence[TableComparison]) -> set[tuple[str, str]]:
    return {(r.left_name, r.right_name) for r in rows if not r.match}


# -- full verification -----------------------------------------------------------


class _Run:
    """One verify_entry call: its entry, witness cap, axiom report and operators, each made once."""

    def __init__(self, entry: CatalogEntry, cap: int | None):
        self.entry = entry
        self.cap = cap
        self.structure, self.variant = entry.structure, entry.variant
        self.lam, self.nu = entry.lam(), entry.nu()
        self.u = entry.u_vector()
        self.ops: dict[tuple[bool, Construction, bool], SolutionOperator] = {}

    @cached_property
    def valid(self) -> VerificationReport:
        lie = isinstance(self.structure, HomLieAlgebra)
        return validate(self.structure, lie, witness_cap=self.cap)

    @cached_property
    def involutive(self) -> HomStructure:
        """The structure at `involutive_at`, where α is involutive; the entry's own without one."""
        at = {k: Fraction(v) for k, v in self.entry.involutive_at.items()}
        return self.structure.substitute(at) if at else self.structure

    def build(self, constructions, structure, unchecked=False) -> list[SolutionOperator]:
        """The operators of `constructions` as built together on `structure`, each built once.

        An operator is kept under its structure, its construction and whether
        its set is built at ν = 1, so a Lie pair never takes the operator built
        alone at ν = nu.
        """
        at_one = any(RECIPES[c].nu_is_one for c in constructions)
        key = {c: (structure is self.structure, c, at_one) for c in constructions}
        missing = [c for c in constructions if key[c] not in self.ops]
        if missing:
            nu = Scalar.one(structure.params) if at_one else self.nu
            report = self.valid if structure is self.structure else None
            built = _build_many(structure, missing, self.lam, nu, self.u, unchecked, report)
            self.ops.update((key[c], op) for c, op in zip(missing, built))
        return [self.ops[key[c]] for c in constructions]

    def check(self, name: str, given: str = "", structure=None, unchecked=False):
        """Row `name` of `CHECKS` on what it builds from `given` on `structure`, or the entry's."""
        check, structure = CHECKS[name], structure or self.structure
        if check.builds:
            built = self.build(check.builds[given], structure, unchecked)
        else:  # chybe builds no operator: r = [e_1, e_2] ⊗ u
            built = chybe_r(structure, structure.basis_vec(0), structure.basis_vec(1), self.u, 0, 0)
        return check.report(structure, built, self.cap)

    def table(self) -> VerificationReport:
        """Deviations from the printed table, against the documented ones."""
        started = time.perf_counter()
        entry, structure = self.entry, self.structure
        actual = mismatched_pairs(compare_table(entry, self.build((self.variant,), structure)[0]))
        documented = set(entry.documented_mismatches)
        unexpected = sorted(actual ^ documented)
        witnesses = []
        d = structure.dim
        for a, b in unexpected:
            i = structure.basis_index(a)
            j = structure.basis_index(b)
            tag = "undocumented mismatch" if (a, b) in actual else "documented row now matches"
            witnesses.append(
                Witness(i * d + j, 0, Scalar.one(structure.params), f"B({a}⊗{b}): {tag}")
            )
        return VerificationReport(
            check_name="table",
            holds=not unexpected,
            witnesses=clip(witnesses, self.cap),
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
            metadata={
                "mismatches": ", ".join(f"({a},{b})" for a, b in sorted(actual)) or "none",
                "documented": ", ".join(f"({a},{b})" for a, b in sorted(documented)) or "none",
            },
        )


# structure kind -> the name of its system
_SYSTEM_OF = {RECIPES[t[0]].kind: name for name, t in SYSTEMS.items()}

# check name, as an entry lists it -> the check: the run's own, or a row of `CHECKS`
# on what it builds from the entry's construction
_CHECKS: dict[str, Callable[[_Run], VerificationReport]] = {
    "axioms": lambda run: run.valid,
    "table": _Run.table,
    "alpha-commute": lambda run: run.check("alpha", run.variant.value),
    "hybe": lambda run: run.check("hybe", run.variant.value),
    "system": lambda run: run.check("system", _SYSTEM_OF[type(run.structure)]),
    "inverse": lambda run: run.check("inverse", INVERSE[run.variant].value, run.involutive),
    # the inverse law with α as it is, which fails where α is not involutive
    "inverse-symbolic": lambda run: run.check(
        "inverse", INVERSE[run.variant].value, unchecked=True),
    "hybe-inverse": lambda run: run.check("hybe", INVERSE[run.variant].value, run.involutive),
    "chybe": lambda run: run.check("chybe"),
}


def verify_entry(
    entry: CatalogEntry, *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """Run the entry's checks in order, each operator built at most once.

    The report's subreports carry raw verdicts; compare them against
    `entry.expectations()` to decide whether the entry behaves as documented.
    """
    started = time.perf_counter()
    run = _Run(entry, witness_cap)
    parts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstructionWarning)
        for check, name in zip(entry.checks, entry.check_names()):
            report = _CHECKS[check](run)
            report.check_name = name
            parts.append(report)
    report = combine(entry.id, parts, started, witness_cap=witness_cap)
    report.metadata["notes"] = " | ".join(entry.notes)
    return report


def verify_all(*, witness_cap: int | None = DEFAULT_WITNESS_CAP) -> list[VerificationReport]:
    """Verify every catalog entry; one composite report per entry, stable order."""
    return [verify_entry(catalog_get(eid), witness_cap=witness_cap) for eid in _BUILDERS]


def all_as_expected(reports: Sequence[VerificationReport]) -> bool:
    """True iff every subcheck verdict matches the entry's documented expectation."""
    return all(
        sub.holds == catalog_get(report.check_name).expectations().get(sub.check_name, True)
        for report in reports
        for sub in report.subreports
    )
