"""Command-line surface.

Exit codes
----------
    0  — every requested check holds
    1  — a check failed (the report says where)
    2  — usage or input error (bad file, bad shapes, violated precondition, closed stdout)

Structure files declare their own parameters; the construction coefficients
are given as expressions (default: the symbols `lam` and `nu`), so one file
can be verified fully symbolically or at concrete parameter values without
editing.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from . import files
from .constructions import (
    CHECKS,
    RECIPES,
    SYSTEMS,
    build_many,
    chybe_r,
    is_involutive,
)
from .errors import ConstructionWarning, HomybError
from .scalar import Scalar, expression_names, format_scalar, parse_scalar
from .structures import HomLieAlgebra, HomStructure, validate
from .verify import DEFAULT_WITNESS_CAP, VerificationReport
# not called here; perfbench/test_perfbench.py::test_tracer_counts_and_restores reads it
from .verify import hybe_holds  # noqa: F401

# --construction name -> the constructions it builds: the single operators, then the systems
_CONSTRUCTIONS = dict(sorted(CHECKS["hybe"].builds.items())) | dict(sorted(SYSTEMS.items()))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe then fails here rather than at exit
        return code
    except HomybError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: what is buffered goes to the null device, so exit flushes quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homyb",
        description="Build and exactly verify twisted Yang-Baxter solution operators "
        "from structure-constant files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="validate the structure axioms of a file")
    p.add_argument("file", help="structure JSON file")
    p.add_argument(
        "--require-multiplicative",
        action="store_true",
        help="for hom-lie structures, also require alpha([x,y]) = [alpha(x),alpha(y)]",
    )
    p.add_argument("--json", dest="json_path", help="also write the report as JSON")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("build", help="build an operator matrix and write it as JSON")
    p.add_argument("file")
    p.add_argument("--construction", required=True, choices=_CONSTRUCTIONS)
    p.add_argument("--lambda", dest="lam", default="lam", help="lambda expression (default: lam)")
    p.add_argument("--nu", default="nu", help="nu expression (default: nu)")
    p.add_argument("--u", help="comma-separated coordinates of the central element u")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument(
        "--unchecked",
        action="store_true",
        help="downgrade violated preconditions (axioms, involutivity) to warnings",
    )
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run an exact identity check")
    p.add_argument("file")
    p.add_argument("--check", required=True, choices=tuple(CHECKS))
    p.add_argument("--construction", choices=_CONSTRUCTIONS)
    p.add_argument("--operator", help="operator JSON file (alpha/hybe checks only)")
    p.add_argument("--lambda", dest="lam", default="lam")
    p.add_argument("--nu", default="nu")
    p.add_argument("--u", help="central element for thm4.1/cor4.2/chybe")
    p.add_argument("--x", help="first bracket argument for chybe")
    p.add_argument("--y", help="second bracket argument for chybe")
    p.add_argument("--m", type=int, default=0, help="twist power on the bracket leg (chybe)")
    p.add_argument("--n", type=int, default=0, help="twist power on the u leg (chybe)")
    p.add_argument("--json", dest="json_path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="built-in example structures")
    p.add_argument("action", choices=("list", "export", "verify-all"))
    p.add_argument("id", nargs="?", help="entry id (for export)")
    p.add_argument("--out")
    p.add_argument("--json", dest="json_path")
    p.set_defaults(func=cmd_catalog)

    return parser


# -- helpers ---------------------------------------------------------------------


def _extended(structure: HomStructure, names: list[str]) -> HomStructure:
    """The structure over its own parameters followed by any new `names`."""
    target = structure.params.union(names)
    return structure if target == structure.params else structure.extend(target)


def _load(args, vectors: list[str | None]) -> tuple[HomStructure, Scalar, Scalar]:
    """The structure file over every parameter the expression arguments name, λ and ν."""
    structure = files.load_structure(args.file)
    # vector arguments are comma-separated expression lists: scan each component
    parts = [p for text in (args.lam, args.nu, *filter(None, vectors)) for p in text.split(",")]
    structure = _extended(structure, [name for p in parts for name in expression_names(p)])
    params = structure.params
    return structure, parse_scalar(args.lam, params), parse_scalar(args.nu, params)


def _vector_arg(text: str, structure: HomStructure, what: str) -> tuple[Scalar, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != structure.dim:
        raise HomybError(f"{what}: expected {structure.dim} comma-separated coordinates")
    return tuple(parse_scalar(p, structure.params) for p in parts)


def _with_warnings(run):
    """Call `run()` and print each distinct construction warning it raised, even if it fails."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConstructionWarning)
        try:
            return run()
        finally:
            for text in dict.fromkeys(str(warning.message) for warning in caught):
                print(f"warning: {text}", file=sys.stderr)


def _build(args, structure, lam, nu, unchecked, constructions):
    """The given constructions, built together on the structure with --u where it is Lie."""
    lie = isinstance(structure, HomLieAlgebra) and RECIPES[constructions[0]].kind is HomLieAlgebra
    u = _vector_arg(args.u, structure, "--u") if args.u and lie else None
    return build_many(structure, constructions, lam, nu, u=u, unchecked=unchecked)


def _write(doc: dict, path: str | None) -> None:
    """Write the document to `path`, or to stdout when there is none or it is empty."""
    text = files.dump_json(doc, path or None)
    if not path:
        sys.stdout.write(text)


def _print_report(report: VerificationReport, indent: int = 0) -> None:
    pad = "  " * indent
    print(f"{pad}{report.check_name}: {'PASS' if report.holds else 'FAIL'}")
    if not report.holds and report.witnesses and not report.subreports:
        print(f"{pad}  witnesses: {report.witness_summary()}")
    for sub in report.subreports:
        _print_report(sub, indent + 1)


# -- commands -----------------------------------------------------------------------


def cmd_axioms(args) -> int:
    structure = files.load_structure(args.file)
    report = validate(structure, args.require_multiplicative)
    _print_report(report)
    if args.json_path:
        files.dump_json(files.report_to_dict(report), args.json_path)
    return 0 if report.holds else 1


def cmd_build(args) -> int:
    structure, lam, nu = _load(args, [args.u])
    constructions = _CONSTRUCTIONS[args.construction]
    ops = _with_warnings(lambda: _build(args, structure, lam, nu, args.unchecked, constructions))
    if args.construction in SYSTEMS:
        doc = files.system_to_dict(ops)
    else:
        doc = files.operator_to_dict(ops[0])
    _write(doc, args.out)
    return 0


def cmd_verify(args) -> int:
    structure, lam, nu = _load(args, [args.u, args.x, args.y])
    report, source = _with_warnings(lambda: _run_check(args, structure, lam, nu))
    _print_report(report)
    if args.json_path:
        doc = files.report_to_dict(report)
        meta = doc["metadata"]
        meta.setdefault("structure", structure.name)
        meta.setdefault("parameters", ",".join(structure.params.names))
        for key in ("lambda", "nu", "construction"):
            if isinstance(source.get(key), str):
                meta.setdefault(key, source[key])
        files.dump_json(doc, args.json_path)
    return 0 if report.holds else 1


def _run_check(args, structure, lam, nu) -> tuple[VerificationReport, dict]:
    """The check of `CHECKS` that --check names, on what it builds from the arguments,
    and what names the operator checked: the --operator file's header, else the arguments."""
    name, check = args.check, CHECKS[args.check]
    source = {"lambda": args.lam, "nu": args.nu, "construction": args.construction}
    takes_operator = name in ("alpha", "hybe")
    if args.operator and not takes_operator:
        raise HomybError(f"--operator is read only by --check alpha and hybe, not by --check {name}")
    if args.operator:
        matrix, source = _operator_file(args, structure)
        structure = _extended(structure, matrix.params.names)
        if matrix.params != structure.params:
            matrix = matrix.extend(structure.params)
        return check.report(structure, (matrix,), DEFAULT_WITNESS_CAP), source
    if not check.builds:  # chybe builds no operator
        r = _chybe_r(args, structure, check)
        return check.report(structure, r, DEFAULT_WITNESS_CAP), source
    if args.construction not in check.builds:
        needs = "--construction or --operator" if takes_operator and not args.construction else None
        raise HomybError(f"--check {name} needs {needs or check.needs}")
    ops = _build(args, structure, lam, nu, True, check.builds[args.construction])
    if ops[0].nu != nu:  # the set was built at ν = 1
        source["nu"] = format_scalar(ops[0].nu)
    return check.report(structure, ops, DEFAULT_WITNESS_CAP), source


def _operator_file(args, structure):
    """The --operator matrix and its header, which must name this structure and a
    construction of its kind."""
    matrix, doc = files.load_operator(args.operator)
    built_on, construction = doc.get("structure"), doc.get("construction")
    fits = [n for n, (c,) in CHECKS["hybe"].builds.items() if RECIPES[c].kind is type(structure)]
    if built_on != structure.name or construction not in fits:
        raise HomybError(
            f"{args.operator}: an operator of construction {construction!r} on structure "
            f"{built_on!r} does not fit {args.file}, a {structure.kind} named {structure.name!r}"
        )
    return matrix, doc


def _chybe_r(args, structure, check):
    """r from --x, --y, --u, --m and --n; a negative power twists by α as its own inverse."""
    if not isinstance(structure, HomLieAlgebra):
        raise HomybError("--check chybe requires a hom-lie structure")
    if not (args.x and args.y and args.u):
        raise HomybError(f"--check chybe needs {check.needs}")
    x, y, u = (_vector_arg(getattr(args, k), structure, f"--{k}") for k in "xyu")
    alpha_inverse = None
    if args.m < 0 or args.n < 0:
        if not is_involutive(structure):
            raise HomybError(
                "negative twist powers need an invertible alpha; "
                "this alpha is not involutive"
            )
        alpha_inverse = structure.alpha
    return chybe_r(structure, x, y, u, args.m, args.n, alpha_inverse=alpha_inverse)


def cmd_catalog(args) -> int:
    from . import catalog as cat  # loaded here, so that other commands start faster
    if args.action == "list":
        for entry_id, description in cat.catalog_list():
            print(f"{entry_id:16} {description}")
        return 0

    if args.action == "export":
        if not args.id:
            raise HomybError("catalog export needs an entry id")
        _write(files.structure_to_dict(cat.catalog_get(args.id).structure), args.out)
        return 0

    # verify-all
    reports = cat.verify_all()
    all_ok = True
    json_entries = []
    verdict = {True: "PASS", False: "FAIL"}
    for report in reports:
        entry = cat.catalog_get(report.check_name)
        expected = entry.expectations()
        print(report.check_name)
        entry_ok = cat.all_as_expected([report])
        for sub in report.subreports:
            want = expected[sub.check_name]
            flag = "" if sub.holds == want else "  <-- UNEXPECTED"
            print(f"  {sub.check_name}: {verdict[sub.holds]} (expected {verdict[want]}){flag}")
        for note in entry.notes:
            print(f"  note: {note}")
        all_ok &= entry_ok
        json_entries.append(
            {
                "entry": report.check_name,
                "as_expected": entry_ok,
                "expected": expected,
                "notes": list(entry.notes),
                "report": files.report_to_dict(report),
            }
        )
    if args.json_path:
        files.dump_json({"entries": json_entries, "all_as_expected": all_ok}, args.json_path)
    print("catalog: all entries behave as documented" if all_ok else "catalog: UNEXPECTED verdicts")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
