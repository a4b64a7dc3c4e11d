"""Write perfbench/goldens.json from the current homyb sources.

    python3 perfbench/make_goldens.py

The goldens hold a digest of the ``homyb catalog verify-all --json``
document without its ``elapsed_ms`` fields, the witness lists of that
document, and the witness list of every generated check that fails, for every
choice a seed can make.  A generated check with no entry
here must pass with no witnesses.  Before writing, every verdict is compared
with the known answer (catalog expectations and theory), so a golden file is
never taken from a program that disagrees with them.  Run it only to take a
new baseline, on a commit whose verdicts are trusted.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import generators  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        session = workloads.open_session("catalog", 0, tmp, goldens={})
        hb = session.hb
        report_path = tmp / "verify-all.json"
        with redirect_stdout(io.StringIO()):
            code = hb.cli.main(["catalog", "verify-all", "--json", str(report_path)])
        if code != 0:
            raise SystemExit("catalog verify-all does not exit 0; refusing to take goldens")
        doc = workloads.strip_elapsed(json.loads(report_path.read_text()))
        goldens = {"catalog": {"document_digest": workloads.document_digest(doc),
                               "witnesses": workloads.catalog_witnesses(doc)}}

        for workload in ("ladder", "skewed"):
            session = workloads.open_session(workload, 0, tmp, goldens=goldens)
            goldens[workload] = lists = {}
            for family, dim, skew in generators.specs(workload):
                for choice in generators.choices(family, dim, skew):
                    inp = generators.make_input(family, dim, choice, skew)
                    structure = hb.files.structure_from_dict(inp["doc"])
                    checks = workloads.generated_suite(session, 0, inp, structure)
                    for check in checks:
                        if check.error or check.report is None or isinstance(check.report, bool):
                            continue
                        rows = workloads.witness_rows(check.report, hb.format_scalar)
                        if rows:
                            lists[workloads.golden_key(inp, check.name.split(" ", 1)[1])] = rows
                    failures = workloads.gate(session, checks)
                    if failures:
                        raise SystemExit(f"{inp['doc']['name']} {choice}: {failures}")
                    print(f"{workload} {inp['doc']['name']} {choice}: {len(checks)} checks as expected")

    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
