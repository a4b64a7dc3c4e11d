"""The three benchmark workloads: set-up, one pass of checks, the CLI command, the gate.

A workload is driven through homyb's public API.  Every homyb name is looked
up as a module attribute at call time (``hb.hybe_holds``, ``hb.files.…``), so
the tracer's wrappers are used when they are installed.  homyb is imported in
`open_session`, not at module import, so that the set-up time includes the import.

The gate compares each check with its known answer: for ``catalog`` the
catalog's own ``entry.expectations()``, the golden witness lists and the
digest of the golden verify-all document; for ``ladder`` and ``skewed``
theory (see `generators`) and golden witness lists.  A check fails when it
raises, when its verdict differs from the known answer, or when its witness
list differs from the golden list.
"""

from __future__ import annotations

import json
import warnings
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import generators

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
WORKLOADS = ("catalog", "ladder", "skewed")


@dataclass
class Check:
    """One check of a pass: its name, what it returned, and what was expected."""

    name: str
    expected: bool
    report: object = None  # VerificationReport, or a bool for non-report checks
    error: str = ""
    input: dict | None = None  # the generated input it ran on


@dataclass
class Session:
    workload: str
    seed: int
    tmp: Path
    hb: object
    inputs: list = field(default_factory=list)  # (generated input, structure, path)
    goldens: dict = field(default_factory=dict)


def witness_rows(report, fmt) -> list[list]:
    return [[w.row, w.col, fmt(w.residual), w.label] for w in report.witnesses]


def golden_key(inp: dict, check: str) -> str:
    choice = json.dumps(inp["choice"], sort_keys=True)
    return f"{inp['doc']['name']} {choice} {check}"


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


# -- set-up ------------------------------------------------------------------------


def open_session(workload: str, seed: int, tmp: Path, goldens: dict | None = None) -> Session:
    """Import homyb; the first half of set-up."""
    import homyb
    import homyb.cli
    import homyb.files

    goldens = goldens if goldens is not None else load_goldens()
    return Session(workload, seed, tmp, homyb, goldens=goldens)


def build_inputs(session: Session) -> None:
    """Build or parse the workload's inputs; the second half of set-up."""
    hb = session.hb
    if session.workload == "catalog":
        for entry_id, _ in hb.catalog_list():  # builds and caches every entry
            hb.catalog_get(entry_id)
        return
    for i, inp in enumerate(generators.generate(session.workload, session.seed)):
        path = session.tmp / f"input{i}-{inp['doc']['name']}.json"
        path.write_text(json.dumps(inp["doc"], indent=2) + "\n", encoding="utf-8")
        session.inputs.append((inp, hb.files.load_structure(path), path))


def setup(workload: str, seed: int, tmp: Path, goldens: dict | None = None) -> Session:
    """Import homyb and build or parse the workload's inputs."""
    session = open_session(workload, seed, tmp, goldens)
    build_inputs(session)
    return session


# -- one pass ----------------------------------------------------------------------


def pass_segments(session: Session) -> list:
    """One pass of the workload's checks, as calls that each return their checks.

    A generated workload has one segment per input, so that the benchmark can
    calibrate the host's speed between inputs; ``catalog`` is one
    ``verify_all`` call.
    """
    if session.workload == "catalog":
        return [lambda: _catalog_pass(session)]
    return [
        lambda index=index, inp=inp, structure=structure:
            generated_suite(session, index, inp, structure)
        for index, (inp, structure, _) in enumerate(session.inputs)
    ]


def run_pass(session: Session) -> list[Check]:
    """Run the workload's checks once; the caller times this and gates afterwards."""
    return [check for segment in pass_segments(session) for check in segment()]


def _catalog_pass(session: Session) -> list[Check]:
    hb = session.hb
    checks = []
    for report in hb.verify_all():
        expected = hb.catalog_get(report.check_name).expectations()
        for sub in report.subreports:
            name = f"{report.check_name} {sub.check_name}"
            checks.append(Check(name, expected.get(sub.check_name, True), sub))
    return checks


def _attempt(checks: list[Check], name: str, expected: bool, fn) -> None:
    try:
        checks.append(Check(name, expected, fn()))
    except Exception as exc:  # a raising check is a failed check, reported by name
        checks.append(Check(name, expected, error=f"{type(exc).__name__}: {exc}"))


def generated_suite(session: Session, index: int, inp: dict, s) -> list[Check]:
    hb = session.hb
    C = hb.Construction
    algebra = inp["doc"]["kind"] == "hom-algebra"
    lam = hb.parse_scalar("lam", s.params)
    nu = hb.parse_scalar("nu", s.params)
    if algebra:
        build, inverse, system = hb.algebra_solution, hb.algebra_solution_inverse, hb.system_algebra
        pairs = (("thm2.1", C.ALG21), ("thm2.4", C.ALG24))
        backward, system_name = C.ALG_INV22, "thm5.2"
    else:
        build, inverse, system = hb.coalgebra_solution, hb.coalgebra_solution_inverse, hb.system_coalgebra
        pairs = (("thm3.1", C.COALG31), ("thm3.4", C.COALG34))
        backward, system_name = C.COALG_INV32, "thm5.3"
    name = inp["doc"]["name"]
    checks: list[Check] = []
    _attempt(checks, f"{name} axioms", True, lambda: hb.validate(s, witness_cap=None))

    first = None
    for label, variant in pairs:
        try:
            op = build(s, variant, lam, nu)
        except Exception as exc:
            checks.append(Check(f"{name} {label} build", True, error=f"{type(exc).__name__}: {exc}"))
            continue
        first = first or op
        _attempt(checks, f"{name} {label} hybe", True,
                 lambda: hb.hybe_holds(op.matrix, s.alpha, witness_cap=None))
        _attempt(checks, f"{name} {label} alpha-commute", True,
                 lambda: hb.commutes_with_alpha(op.matrix, s.alpha, witness_cap=None))

    def system_check():
        w, z, x = system(s, lam, nu)
        return hb.system_holds(w, z, x, s.alpha, witness_cap=None)

    _attempt(checks, f"{name} {system_name} system", True, system_check)

    involutive = s
    if inp["involutive_at"]:
        involutive = s.substitute({k: Fraction(v) for k, v in inp["involutive_at"].items()})
    forward = pairs[0][1]

    def inverse_check():
        b = build(involutive, forward, lam, nu)
        binv = inverse(involutive, backward, lam, nu)
        return hb.inverse_holds(b.matrix, binv.matrix, witness_cap=None)

    _attempt(checks, f"{name} {backward.value} inverse", True, inverse_check)

    if inp["symbolic_inverse_fails"]:
        def symbolic_inverse():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", hb.ConstructionWarning)
                binv = inverse(s, backward, lam, nu, unchecked=True)
            return hb.inverse_holds(first.matrix, binv.matrix, witness_cap=None)

        _attempt(checks, f"{name} {backward.value} inverse-symbolic", False, symbolic_inverse)

    if first is not None:
        path = session.tmp / f"operator{index}.json"

        def round_trip():
            hb.files.dump_json(hb.files.operator_to_dict(first), path)
            matrix, _ = hb.files.load_operator(path)
            return matrix == first.matrix

        _attempt(checks, f"{name} operator round trip", True, round_trip)
    for check in checks:
        check.input = inp
    return checks


# -- the gate -----------------------------------------------------------------------


def gate(session: Session, checks: list[Check]) -> list[str]:
    """Failure messages, one per failed check; empty when every check is as known."""
    fmt = session.hb.format_scalar
    failures = []
    golden_catalog = session.goldens["catalog"]["witnesses"]
    witness_goldens = session.goldens.get(session.workload, {})
    for check in checks:
        if check.error:
            failures.append(f"{check.name}: raised {check.error}")
            continue
        report = check.report
        holds = report if isinstance(report, bool) else report.holds
        if holds != check.expected:
            failures.append(f"{check.name}: verdict {holds}, expected {check.expected}")
            continue
        if isinstance(report, bool):
            continue
        got = witness_rows(report, fmt)
        if session.workload == "catalog":
            want = golden_catalog.get(check.name)
        else:
            inp = check.input
            want = witness_goldens.get(golden_key(inp, check.name.split(" ", 1)[1]), [])
            if got and not _divisible_by_c2_minus_1(report, inp):
                failures.append(f"{check.name}: a residual does not vanish at c = ±1")
                continue
        if got != want:
            failures.append(f"{check.name}: witnesses differ from the golden list")
    return failures


def _divisible_by_c2_minus_1(report, inp: dict) -> bool:
    """Theory for the T family: each symbolic-inverse residual vanishes at c = ±1."""
    if not inp["symbolic_inverse_fails"]:
        return True
    return all(
        not w.residual.substitute({"c": Fraction(c)}).terms
        for w in report.witnesses
        for c in (1, -1)
    )


def catalog_witnesses(doc: dict) -> dict[str, list]:
    """Witness rows of every subreport of a verify-all document, by "<entry> <check>"."""
    out = {}
    for entry in doc["entries"]:
        for sub in entry["report"]["subreports"]:
            out[f"{entry['entry']} {sub['check']}"] = [
                [w["row"], w["col"], w["residual"], w["label"]] for w in sub["witnesses"]
            ]
    return out


def strip_elapsed(obj):
    """The verify-all document without its one timing field, for golden comparison."""
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def document_digest(doc: dict) -> str:
    """CRC-32 and length of the verify-all document without ``elapsed_ms``, as canonical JSON.

    zlib is loaded with the interpreter, whereas hashlib would add megabytes
    of OpenSSL to this process's peak_rss_mb.
    """
    text = json.dumps(strip_elapsed(doc), sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    data = text.encode("utf-8")
    return f"crc32 {zlib.crc32(data):08x} bytes {len(data)}"


# -- the CLI command ------------------------------------------------------------------


def cli_args(session: Session) -> list[str]:
    """The workload's user-facing command, as arguments to `homyb`."""
    if session.workload == "catalog":
        return ["catalog", "verify-all", "--json", str(session.tmp / "verify-all.json")]
    inp, _, path = max(session.inputs, key=lambda item: (item[1].dim, item[2].stat().st_size))
    construction = "thm5.2" if inp["doc"]["kind"] == "hom-algebra" else "thm5.3"
    return ["verify", str(path), "--construction", construction, "--check", "system"]


def cli_gate(session: Session, args: list[str], code: int, stdout: str) -> list[str]:
    """Failure messages for one run of the CLI command."""
    if code != 0:
        return [f"homyb {' '.join(args[:2])}: exit code {code}"]
    if session.workload == "catalog":
        try:
            doc = json.loads(Path(args[-1]).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"homyb catalog verify-all --json: no readable document ({exc})"]
        if document_digest(doc) != session.goldens["catalog"]["document_digest"]:
            return ["homyb catalog verify-all --json: document differs from the golden copy"]
        return []
    if stdout.splitlines()[:1] != ["system: PASS"]:
        return ["homyb verify --check system: first line is not 'system: PASS'"]
    return []
