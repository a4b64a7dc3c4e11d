"""Built-in example structures with their published operator tables.

Printed tables are stored verbatim, typos included, read into a d²×d² matrix
once per entry and compared against the regenerated operator by one
difference on every check, which decodes nothing where they match; nothing is
ever patched.  Like that matrix, an entry's λ, ν, u, structure at
`involutive_at` and the operators its checks build are derived when first
asked for and kept with the entry, so a second `verify_all` builds nothing and
re-runs every check on the kept operators.
Rows known to deviate from the closed-form operator are recorded per entry,
so the catalog doubles as an errata record: `verify-all` treats a deviation
as expected exactly when it is documented.

Each entry is a JSON document, `entries/<id>.json` next to this module, read
when the entry is first asked for.  Its `structure` is a structure-file
document in the canonical form `catalog export` writes, loaded by
`files.structure_from_dict`, so the built-in examples pass the same checks as
user files.  Beside it are the entry's `description`, its construction
(`variant`), the `checks` it runs (names of `_CHECKS`, in report order), the
printed `table` as [left, right, [[p, q, coefficient], ...]] rows,
`documented_mismatches`, `expected_failures`, `u`, `involutive_at` and
`notes`.  An entry runs at least one check.  To add an entry, write its
document.

Basis names, tables and twist maps follow the published examples; the
parameter printed as k is named `kk` here to avoid colliding with the ground
field in prose and file formats.
"""

from __future__ import annotations

import re
import time
import warnings
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

from ._record import field, record
from .constructions import (
    CHECKS,
    INVERSE,
    RECIPES,
    SYSTEMS,
    Construction,
    SolutionOperator,
    build,
    build_many,
    chybe_r,
)
from .errors import ConstructionWarning, HomybError, StructureError, UnknownEntryError
from .files import _parse_at, _read_json, structure_from_dict
from .scalar import Scalar, parse_scalar
from .structures import HomLieAlgebra, HomStructure, validate
from .tensor import Matrix, Vector, _packed
from .verify import DEFAULT_WITNESS_CAP, VerificationReport, Witness, combine
# not called here; perfbench/test_perfbench.py::test_tracer_counts_and_restores reads it
from .verify import hybe_holds  # noqa: F401

# printed table: (left basis name, right basis name) -> summands (p, q, coeff expr)
PrintedTable = dict[tuple[str, str], list[tuple[str, str, str]]]


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

    def lam(self) -> Scalar:
        return self._scalars[0]

    def nu(self) -> Scalar:
        return self._scalars[1]

    def u_vector(self) -> Vector | None:
        return self._scalars[2]

    # derived inputs, each made when first asked for and kept beside the fields; `replace` copies none

    @cached_property
    def _scalars(self) -> tuple[Scalar, Scalar, Vector | None]:
        """λ, ν and u."""
        params = self.structure.params
        u = None if self.u is None else tuple(parse_scalar(s, params) for s in self.u)
        return parse_scalar("lam", params), parse_scalar("nu", params), u

    @cached_property
    def _operators(self) -> dict[tuple[bool, Construction, bool], SolutionOperator]:
        """The operators its checks build, by (built on its own structure, construction, built at ν = 1);
        `_Run.build` fills it."""
        return {}

    @cached_property
    def involutive(self) -> HomStructure:
        """The structure at `involutive_at`, where α is involutive; the entry's own without one."""
        at = {k: Fraction(v) for k, v in self.involutive_at.items()}
        return self.structure.substitute(at) if at else self.structure

    @cached_property
    def printed_matrix(self) -> Matrix:
        """The printed table as a d²×d² matrix, column i·d + j the image of e_i⊗e_j; each
        distinct expression is parsed once per entry."""
        structure, parsed, where = self.structure, {}, f"{self.id} table"
        d, index, params = structure.dim, {name: i for i, name in enumerate(structure.basis)}, structure.params
        rows: list[dict[int, Scalar]] = [{} for _ in range(d * d)]
        for (a, b), summands in self.expected_table.items():
            for p, q, expr in summands:
                row, j = rows[index[p] * d + index[q]], index[a] * d + index[b]
                value = _parse_at(expr, params, where, parsed)
                row[j] = row[j] + value if j in row else value
        return Matrix._new(d * d, d * d, params, *_packed(rows, d * d))

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


# -- the published entries -------------------------------------------------------

# entry `id` is the document `entries/<id>.json`; the catalog lists the ids sorted
_ENTRIES = Path(__file__).with_name("entries")
_IDS = tuple(sorted(path.stem for path in _ENTRIES.glob("*.json")))
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")  # an `involutive_at` value: n, or n/d with d ≠ 0

_CACHE: dict[str, CatalogEntry] = {}

# each field's JSON type for `_typed`, then in words: str, [t] a list of t, (t, …) a list of exactly
# these, {str: t} an object of t
_TYPES = {
    "description": (str, "a string"), "variant": (str, "a construction name"),
    "notes": ([str], "a list of strings"), "u": ([str], "a list of coordinate expressions"),
    "checks": ([str], "a list of names of checks"), "expected_failures": ([str], "a list of names of checks"),
    "involutive_at": ({str: str}, "an object mapping parameter names to strings"),
    "documented_mismatches": ([(str, str)], "a list of [left, right] basis name pairs"),
    "table": ([(str, str, [(str, str, str)])], "a list of [left, right, [[p, q, coefficient], ...]] rows"),
}


def _typed(value, t) -> bool:
    """Does the JSON value have the type `t` of `_TYPES`?  `true` is no string and `"abc"` no list."""
    if isinstance(t, type):
        return isinstance(value, t)
    if isinstance(t, dict):
        return isinstance(value, dict) and all(_typed(v, t[str]) for v in value.values())
    return isinstance(value, list) and (all(_typed(v, t[0]) for v in value) if isinstance(t, list)
                                        else len(value) == len(t) and all(map(_typed, value, t)))


def _load(entry_id: str) -> CatalogEntry:
    """The entry in its document; a missing or malformed one raises StructureError naming it."""
    path = _ENTRIES / f"{entry_id}.json"
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise StructureError(f"{path}: expected a JSON object")
    for key, (t, expected) in _TYPES.items():
        if key in doc and not _typed(doc[key], t):
            raise StructureError(f"{path}: {key}: expected {expected}")
    try:
        structure, table = structure_from_dict(doc["structure"]), doc.get("table")
        return _resolved(CatalogEntry(
            id=entry_id,
            description=doc["description"],
            structure=structure,
            notes=tuple(doc["notes"]),
            variant=Construction(doc["variant"]) if "variant" in doc else None,
            expected_table=None if table is None else _printed_table(table, structure.basis),
            documented_mismatches=frozenset(map(tuple, doc.get("documented_mismatches", ()))),
            expected_failures=frozenset(doc.get("expected_failures", ())),
            u=tuple(doc["u"]) if "u" in doc else None,
            involutive_at=dict(doc.get("involutive_at", {})),
            checks=tuple(doc["checks"]),
        ))
    except KeyError as exc:
        raise StructureError(f"{path}: missing {exc}") from None
    except (StructureError, TypeError, ValueError) as exc:
        raise StructureError(f"{path}: {exc}") from None


def _resolved(entry: CatalogEntry) -> CatalogEntry:
    """The entry, once every name its document gives is known to resolve and to fit its structure."""
    s, checks, pairs, variant = entry.structure, set(entry.checks), entry.documented_mismatches, entry.variant
    lie = isinstance(s, HomLieAlgebra)
    for key, ok, expected in (
        ("checks", bool(checks), "at least one check"),
        ("checks", checks <= set(_CHECKS), f"a list of names among {', '.join(_CHECKS)}"),
        ("expected_failures", entry.expected_failures <= set(entry.check_names()), "names of its checks"),
        ("variant", variant is not None or checks <= {"axioms", "system", "chybe"}, "a construction"),
        ("documented_mismatches", all({*p} <= {*s.basis} for p in pairs), "basis name pairs"),
        ("u", entry.u is None or len(entry.u) == s.dim, f"{s.dim} coordinates"),
        ("table", entry.expected_table is not None or "table" not in checks, "a printed table to check"),
        ("involutive_at", all(k in s.params and _RATIONAL.fullmatch(v)
                              for k, v in entry.involutive_at.items()), "parameter names mapped to n or n/d"),
        ("variant", variant is None or (variant.value in CHECKS["hybe"].builds
                                        and isinstance(s, RECIPES[variant].kind)),
         f"a single-operator construction of a {s.kind} structure"),
        ("variant", variant in INVERSE or not checks & {"inverse", "inverse-symbolic", "hybe-inverse"},
         "a construction with an inverse for the inverse checks"),
        ("checks", "system" not in checks or type(s) in _SYSTEM_OF, f"no system check on {s.kind}"),
        ("checks", "chybe" not in checks or lie, f"no chybe check on {s.kind}"),
        ("u", entry.u is not None or not lie or checks <= {"axioms"}, "a central element to build on"),
    ):
        if not ok:
            raise StructureError(f"{key}: expected {expected}")
    return entry


def _printed_table(table: list, basis: Sequence[str]) -> PrintedTable:
    """The table by basis pair, its shape checked; the coefficients are parsed by `printed_matrix`."""
    rows = {(a, b): [tuple(s) for s in summands] for a, b, summands in table}
    if len(rows) != len(table) or set(rows) != {(a, b) for a in basis for b in basis}:
        raise StructureError("table: expected one [left, right, summands] row per pair of basis names")
    if any(not {s[0], s[1]} <= set(basis) for summands in rows.values() for s in summands):
        raise StructureError("table: expected each summand as [p, q, coefficient] with p, q basis names")
    return rows


def catalog_list() -> list[tuple[str, str]]:
    """All entry ids with one-line descriptions, in stable order."""
    return [(eid, catalog_get(eid).description) for eid in _IDS]


def catalog_get(entry_id: str) -> CatalogEntry:
    if entry_id not in _IDS:
        raise UnknownEntryError(f"unknown catalog id {entry_id!r}")
    if entry_id not in _CACHE:
        _CACHE[entry_id] = _load(entry_id)
    return _CACHE[entry_id]


# -- regeneration and comparison ---------------------------------------------------


def build_operator(entry: CatalogEntry) -> SolutionOperator:
    """Run the entry's recipe (suppressing the documented hypothesis warnings)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstructionWarning)
        return build(entry.structure, entry.variant, entry.lam(), entry.nu(), u=entry.u_vector())


def _mismatched_columns(op: SolutionOperator, printed: Matrix) -> set[int]:
    """The columns where the operator and the printed table differ; a match decodes nothing."""
    return {j for _, j, _ in (op.matrix - printed).nonzero()}


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
    printed, basis, d = entry.printed_matrix, entry.structure.basis, entry.structure.dim
    mismatched = _mismatched_columns(op, printed)
    data, expected = op.matrix.data, printed.data  # column c is data[c::d²]
    return [TableComparison(c // d, c % d, basis[c // d], basis[c % d], tuple(expected[c::d * d]),
                            tuple(data[c::d * d]), c not in mismatched) for c in range(d * d)]


def mismatched_pairs(rows: Sequence[TableComparison]) -> set[tuple[str, str]]:
    return {(r.left_name, r.right_name) for r in rows if not r.match}


# -- full verification -----------------------------------------------------------


class _Run:
    """One verify_entry call: its entry and witness cap; the operators it builds stay on the entry."""

    def __init__(self, entry: CatalogEntry, cap: int | None):
        self.entry, self.cap, self.structure, self.variant = entry, cap, entry.structure, entry.variant
        self.lam, self.nu, self.u = entry.lam(), entry.nu(), entry.u_vector()

    def build(self, constructions, structure, unchecked=False) -> list[SolutionOperator]:
        """The operators of `constructions` as built together on `structure`, each built once per entry.

        An operator is kept under its structure, its construction and whether
        its set is built at ν = 1 (as `build_many` builds a set with a ν = 1
        member), so a Lie pair never takes the operator built alone at ν = nu.
        """
        ops = self.entry._operators
        at_one = any(RECIPES[c].nu_is_one for c in constructions)
        key = {c: (structure is self.structure, c, at_one) for c in constructions}
        missing = [c for c in constructions if key[c] not in ops]
        if missing:
            built = build_many(structure, missing, self.lam, self.nu, u=self.u, unchecked=unchecked)
            ops.update((key[c], op) for c, op in zip(missing, built))
        return [ops[key[c]] for c in constructions]

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
        op, basis, d = self.build((self.variant,), structure)[0], structure.basis, structure.dim
        actual = {(basis[c // d], basis[c % d]) for c in _mismatched_columns(op, entry.printed_matrix)}
        documented = set(entry.documented_mismatches)
        unexpected = sorted(actual ^ documented)
        witnesses = []
        for a, b in unexpected:
            tag = "undocumented mismatch" if (a, b) in actual else "documented row now matches"
            k = structure.basis_index(a) * d + structure.basis_index(b)
            witnesses.append(Witness(k, 0, Scalar.one(structure.params), f"B({a}⊗{b}): {tag}"))
        return VerificationReport(
            check_name="table",
            holds=not unexpected,
            witnesses=witnesses[:self.cap],
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
    "axioms": lambda run: validate(run.structure, isinstance(run.structure, HomLieAlgebra), witness_cap=run.cap),
    "table": _Run.table,
    "alpha-commute": lambda run: run.check("alpha", run.variant.value),
    "hybe": lambda run: run.check("hybe", run.variant.value),
    "system": lambda run: run.check("system", _SYSTEM_OF[type(run.structure)]),
    "inverse": lambda run: run.check("inverse", INVERSE[run.variant].value, run.entry.involutive),
    # the inverse law with α as it is, which fails where α is not involutive
    "inverse-symbolic": lambda run: run.check(
        "inverse", INVERSE[run.variant].value, unchecked=True),
    "hybe-inverse": lambda run: run.check("hybe", INVERSE[run.variant].value, run.entry.involutive),
    "chybe": lambda run: run.check("chybe"),
}


def verify_entry(
    entry: CatalogEntry, *, witness_cap: int | None = DEFAULT_WITNESS_CAP
) -> VerificationReport:
    """Run the entry's checks in order, each operator built at most once.

    The report's subreports carry raw verdicts; compare them against
    `entry.expectations()` to decide whether the entry behaves as documented.
    """
    started, parts = time.perf_counter(), []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstructionWarning)
        try:
            run = _Run(entry, witness_cap)
            for check, name in zip(entry.checks, entry.check_names()):
                report = _CHECKS[check](run)
                report.check_name = name
                parts.append(report)
        except HomybError as exc:  # the document's λ, ν, u and preconditions are first read here
            raise type(exc)(f"{_ENTRIES / f'{entry.id}.json'}: {exc}") from None
    report = combine(entry.id, parts, started, witness_cap=witness_cap)
    report.metadata["notes"] = " | ".join(entry.notes)
    return report


def verify_all(*, witness_cap: int | None = DEFAULT_WITNESS_CAP) -> list[VerificationReport]:
    """Verify every catalog entry; one composite report per entry, stable order."""
    return [verify_entry(catalog_get(eid), witness_cap=witness_cap) for eid in _IDS]


def all_as_expected(reports: Sequence[VerificationReport]) -> bool:
    """True iff every subcheck verdict matches the entry's documented expectation."""
    return all(
        sub.holds == catalog_get(report.check_name).expectations().get(sub.check_name, True)
        for report in reports
        for sub in report.subreports
    )
