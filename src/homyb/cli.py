"""Command-line surface.

Exit codes
----------
    0  — every requested check holds
    1  — a check failed (the report says where)
    2  — usage or input error (bad file, bad shapes, violated precondition)

Structure files declare their own parameters; the construction coefficients
are given as expressions (default: the symbols `lam` and `nu`), so one file
can be verified fully symbolically or at concrete parameter values without
editing.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import catalog as cat
from . import files
from .constructions import (
    INVERSE,
    RECIPES,
    SYSTEMS,
    Construction,
    build_many,
    chybe_r,
    is_involutive,
)
from .errors import ConstructionWarning, HomybError
from .scalar import Scalar, expression_names, parse_scalar
from .structures import HomLieAlgebra, HomStructure, validate
from .verify import (
    VerificationReport,
    chybe_holds,
    commutes_with_alpha,
    hybe_holds,
    inverse_holds,
    system_holds,
)

# --construction names: the single operators, then the systems
_CONSTRUCTIONS = sorted(
    c.value for c in Construction if all(c not in triple for triple in SYSTEMS.values())
) + sorted(SYSTEMS)
_INVERSES = sorted(c.value for c in INVERSE.values())


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HomybError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
    p.add_argument(
        "--check", required=True, choices=("alpha", "hybe", "inverse", "system", "chybe")
    )
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


def _extended(structure: HomStructure, exprs: list[str]) -> HomStructure:
    """Extend the structure's ParamSet by names used in CLI expressions.

    Vector arguments arrive as comma-separated expression lists; scan each
    component separately.
    """
    names: list[str] = []
    for expr in exprs:
        for part in expr.split(","):
            for name in expression_names(part):
                if name not in names:
                    names.append(name)
    target = structure.params.union(names)
    if target == structure.params:
        return structure
    return structure.extend(target)


def _load(args, vectors: list[str | None]) -> tuple[HomStructure, Scalar, Scalar]:
    """The structure file over every parameter the expression arguments name, λ and ν."""
    structure = files.load_structure(args.file)
    structure = _extended(structure, [args.lam, args.nu] + [v for v in vectors if v])
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


def _build(args, structure, lam, nu, unchecked, constructions=None):
    """The operators --construction names: one, a system's three, or the given ones."""
    if constructions is None:
        name = args.construction
        constructions = SYSTEMS[name] if name in SYSTEMS else (Construction(name),)
    lie = isinstance(structure, HomLieAlgebra) and RECIPES[constructions[0]].kind is HomLieAlgebra
    u = _vector_arg(args.u, structure, "--u") if args.u and lie else None
    return build_many(structure, constructions, lam, nu, u=u, unchecked=unchecked)


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
    ops = _with_warnings(lambda: _build(args, structure, lam, nu, args.unchecked))
    if args.construction in SYSTEMS:
        doc = files.system_to_dict(ops)
    else:
        doc = files.operator_to_dict(ops[0])
    text = files.dump_json(doc, args.out)
    if not args.out:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    structure, lam, nu = _load(args, [args.u, args.x, args.y])
    report = _with_warnings(lambda: _run_check(args, structure, lam, nu))
    _print_report(report)
    if args.json_path:
        doc = files.report_to_dict(report)
        meta = doc["metadata"]
        meta.setdefault("structure", structure.name)
        meta.setdefault("parameters", ",".join(structure.params.names))
        meta.setdefault("lambda", args.lam)
        meta.setdefault("nu", args.nu)
        if args.construction:
            meta.setdefault("construction", args.construction)
        files.dump_json(doc, args.json_path)
    return 0 if report.holds else 1


def _run_check(args, structure, lam, nu) -> VerificationReport:
    check = args.check
    if check in ("alpha", "hybe"):
        if args.operator:
            matrix, doc = files.load_operator(args.operator)
            target = structure.params.union(matrix.params.names)
            structure = structure.extend(target) if target != structure.params else structure
            matrix = matrix.extend(target) if target != matrix.params else matrix
        elif args.construction:
            if args.construction in SYSTEMS:
                raise HomybError(f"--check {check} needs a single-operator construction")
            matrix = _build(args, structure, lam, nu, True)[0].matrix
        else:
            raise HomybError(f"--check {check} needs --construction or --operator")
        checker = commutes_with_alpha if check == "alpha" else hybe_holds
        return checker(matrix, structure.alpha)

    if check == "inverse":
        if args.construction not in _INVERSES:
            raise HomybError(
                "--check inverse needs --construction among " + ", ".join(_INVERSES)
            )
        inverse = Construction(args.construction)
        b, binv = _build(args, structure, lam, nu, True, (RECIPES[inverse].inverts, inverse))
        return inverse_holds(b.matrix, binv.matrix)

    if check == "system":
        if args.construction not in SYSTEMS:
            raise HomybError("--check system needs --construction " + " or ".join(SYSTEMS))
        w, z, x = _build(args, structure, lam, nu, True)
        return system_holds(w, z, x, structure.alpha)

    # chybe
    if not isinstance(structure, HomLieAlgebra):
        raise HomybError("--check chybe requires a hom-lie structure")
    if not (args.x and args.y and args.u):
        raise HomybError("--check chybe needs --x, --y and --u")
    x = _vector_arg(args.x, structure, "--x")
    y = _vector_arg(args.y, structure, "--y")
    u = _vector_arg(args.u, structure, "--u")
    alpha_inverse = None
    if args.m < 0 or args.n < 0:
        if not is_involutive(structure):
            raise HomybError(
                "negative twist powers need an invertible alpha; "
                "this alpha is not involutive"
            )
        alpha_inverse = structure.alpha
    r = chybe_r(structure, x, y, u, args.m, args.n, alpha_inverse=alpha_inverse)
    return chybe_holds(r, structure)


def cmd_catalog(args) -> int:
    if args.action == "list":
        for entry_id, description in cat.catalog_list():
            print(f"{entry_id:16} {description}")
        return 0

    if args.action == "export":
        if not args.id:
            raise HomybError("catalog export needs an entry id")
        entry = cat.catalog_get(args.id)
        text = files.dump_json(files.structure_to_dict(entry.structure), args.out)
        if not args.out:
            sys.stdout.write(text)
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
        entry_ok = all(sub.holds == expected[sub.check_name] for sub in report.subreports)
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
