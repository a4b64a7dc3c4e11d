"""Golden digests: every catalog operator and the verify-all document, byte for byte.

`golden.json` holds a CRC-32 digest of the operator (or operator-system) file
of every construction that applies to every catalog entry, and of the
`homyb catalog verify-all --json` document without its `elapsed_ms` fields:
once with sorted keys, as `perfbench/workloads.py:document_digest` takes it,
and once in the file's own key order.  It also holds the digest of the full,
uncapped axiom report of fixed broken structures of all three kinds, and of
the classical-condition report of failing r-matrices on ex4.3.  These digests
keep the key order too.  A refactor must leave all of them unchanged.

    PYTHONPATH=src python tests/test_golden.py    # rewrite golden.json

Rewrite the fixture only when a change of output is intended.
"""

from __future__ import annotations

import json
import warnings
import zlib
from pathlib import Path

import pytest

import homyb.catalog
from homyb import (
    Construction,
    ConstructionWarning,
    algebra_solution,
    algebra_solution_inverse,
    catalog_get,
    catalog_list,
    chybe_holds,
    coalgebra_solution,
    coalgebra_solution_inverse,
    lie_solution,
    lie_solution_inverse,
    parse_scalar,
    system_algebra,
    system_coalgebra,
    validate,
)
from homyb import files
from homyb.cli import main
from test_startup import _python

FIXTURE = Path(__file__).with_name("golden.json")

# construction name -> builder taking (entry, structure, lam, nu), with unchecked=True
_BUILDERS = {
    "thm2.1": lambda e, s, lam, nu: algebra_solution(
        s, Construction.ALG21, lam, nu, unchecked=True),
    "thm2.4": lambda e, s, lam, nu: algebra_solution(
        s, Construction.ALG24, lam, nu, unchecked=True),
    "cor2.2": lambda e, s, lam, nu: algebra_solution_inverse(
        s, Construction.ALG_INV22, lam, nu, unchecked=True),
    "thm2.4-inverse": lambda e, s, lam, nu: algebra_solution_inverse(
        s, Construction.ALG_INV24, lam, nu, unchecked=True),
    "thm5.2": lambda e, s, lam, nu: system_algebra(s, lam, nu, unchecked=True),
    "thm3.1": lambda e, s, lam, nu: coalgebra_solution(
        s, Construction.COALG31, lam, nu, unchecked=True),
    "thm3.4": lambda e, s, lam, nu: coalgebra_solution(
        s, Construction.COALG34, lam, nu, unchecked=True),
    "cor3.2": lambda e, s, lam, nu: coalgebra_solution_inverse(
        s, Construction.COALG_INV32, lam, nu, unchecked=True),
    "thm3.4-inverse": lambda e, s, lam, nu: coalgebra_solution_inverse(
        s, Construction.COALG_INV34, lam, nu, unchecked=True),
    "thm5.3": lambda e, s, lam, nu: system_coalgebra(s, lam, nu, unchecked=True),
    "thm4.1": lambda e, s, lam, nu: lie_solution(s, e.u_vector(), lam, nu, unchecked=True),
    "cor4.2": lambda e, s, lam, nu: lie_solution_inverse(s, e.u_vector(), lam, unchecked=True),
}

# structure kind -> the constructions that apply to it
_APPLICABLE = {
    "hom-algebra": ("thm2.1", "thm2.4", "cor2.2", "thm2.4-inverse", "thm5.2"),
    "hom-coalgebra": ("thm3.1", "thm3.4", "cor3.2", "thm3.4-inverse", "thm5.3"),
    "hom-lie": ("thm4.1", "cor4.2"),
}


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def digest(doc, sort_keys: bool = False) -> str:
    """CRC-32 and length of the document without `elapsed_ms`, as compact JSON."""
    text = json.dumps(
        _strip_elapsed(doc), sort_keys=sort_keys, ensure_ascii=False, separators=(",", ":")
    )
    data = text.encode("utf-8")
    return f"crc32 {zlib.crc32(data):08x} bytes {len(data)}"


def operator_pairs() -> list[tuple[str, str]]:
    return [
        (entry_id, name)
        for entry_id, _ in catalog_list()
        for name in _APPLICABLE[catalog_get(entry_id).structure.kind]
    ]


def operator_digest(entry_id: str, name: str) -> str:
    entry = catalog_get(entry_id)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstructionWarning)
        built = _BUILDERS[name](entry, entry.structure, entry.lam(), entry.nu())
    if isinstance(built, tuple):
        return digest(files.system_to_dict(built))
    return digest(files.operator_to_dict(built))


def verify_all_digests(directory: Path) -> dict[str, str]:
    path = directory / "verify-all.json"
    assert main(["catalog", "verify-all", "--json", str(path)]) == 0
    return document_digests(path)


def document_digests(path: Path) -> dict[str, str]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {"verify_all": digest(doc, sort_keys=True), "verify_all_ordered": digest(doc)}


def _with_cell(table: list, i: int, j: int, cell: list) -> list:
    """The table with cell (i, j) replaced."""
    return [
        [cell if (p, q) == (i, j) else old for q, old in enumerate(row)]
        for p, row in enumerate(table)
    ]


def _edited(entry_id: str, **edits):
    """The catalog structure's exported document with each edited key replaced, loaded."""
    doc = files.structure_to_dict(catalog_get(entry_id).structure)
    return files.structure_from_dict({**doc, **{k: edit(doc[k]) for k, edit in edits.items()}})


def broken_structures() -> dict:
    """Fixed structures of all three kinds, each failing some axiom."""
    return {
        "ex2.5-verbatim": catalog_get("ex2.5-verbatim").structure,
        "ex2.3 mult cell plus lam": _edited(
            "ex2.3", mult=lambda t: _with_cell(t, 0, 2, ["lam", "0", "l"])),
        "ex2.3 unit reversed": _edited("ex2.3", unit=lambda u: u[::-1]),
        "ex3.3 extra comult triple": _edited(
            "ex3.3", comult=lambda c: [c[0], c[1] + [[0, 1, "1"]], c[2]]),
        "ex3.5 counit reversed": _edited("ex3.5", counit=lambda u: u[::-1]),
        "ex4.3 perturbed bracket cell": _edited("ex4.3", bracket=lambda t: _with_cell(
            _with_cell(t, 0, 2, ["0", "lam", "0"]), 2, 0, ["0", "-lam", "0"])),
        "ex4.3 non-antisymmetric bracket": _edited(
            "ex4.3", bracket=lambda t: _with_cell(t, 2, 2, ["1", "0", "0"])),
        # α[e1,e2] = e1 but [α(e1), α(e2)] = lam·e1
        "ex4.3 non-multiplicative alpha": _edited(
            "ex4.3", alpha=lambda _: [["1", "0", "0"], ["0", "lam", "0"], ["0", "0", "-1"]]),
    }


def validator_digest(name: str) -> str:
    return digest(files.report_to_dict(validate(broken_structures()[name], True, witness_cap=None)))


# r ∈ L⊗L on ex4.3, as (left, right, coefficient) summands, each failing the condition
CHYBE_CASES = {
    "e1⊗e2": [("e1", "e2", "1")],
    "e1⊗e2 + e2⊗e1 + lam·e3⊗e1": [("e1", "e2", "1"), ("e2", "e1", "1"), ("e3", "e1", "lam")],
}


def chybe_digest(name: str) -> str:
    lie = catalog_get("ex4.3").structure
    d = lie.dim
    r = [parse_scalar("0", lie.params)] * (d * d)
    for a, b, expr in CHYBE_CASES[name]:
        k = lie.basis_index(a) * d + lie.basis_index(b)
        r[k] = r[k] + parse_scalar(expr, lie.params)
    return digest(files.report_to_dict(chybe_holds(r, lie, witness_cap=None)))


def _golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_applicable_construction():
    assert len(operator_pairs()) == 27
    assert sorted(_golden()["operators"]) == sorted(f"{e} {n}" for e, n in operator_pairs())


@pytest.mark.parametrize("entry_id,name", operator_pairs())
def test_operator_document_is_unchanged(entry_id, name):
    want = _golden()["operators"][f"{entry_id} {name}"]
    assert operator_digest(entry_id, name) == want, f"{name} on {entry_id} differs"


@pytest.mark.parametrize("name", list(broken_structures()))
def test_validator_report_is_unchanged(name):
    assert validator_digest(name) == _golden()["validators"][name], f"{name} differs"


def test_every_axiom_fails_in_some_broken_structure():
    """The validator digests pin every axiom's witnesses, for each of the three kinds."""
    checked: dict[str, set[str]] = {}
    failing: dict[str, set[str]] = {}
    for structure in broken_structures().values():
        parts = validate(structure, True).subreports
        checked.setdefault(structure.kind, set()).update(p.check_name for p in parts)
        failing.setdefault(structure.kind, set()).update(
            p.check_name for p in parts if not p.holds)
    assert sorted(checked) == ["hom-algebra", "hom-coalgebra", "hom-lie"]
    assert failing == checked


@pytest.mark.parametrize("name", list(CHYBE_CASES))
def test_chybe_report_is_unchanged(name):
    assert chybe_digest(name) == _golden()["chybe"][name], f"{name} differs"


def test_verify_all_document_is_unchanged(tmp_path, capsys):
    got = verify_all_digests(tmp_path)
    capsys.readouterr()
    golden = _golden()
    assert got == {key: golden[key] for key in got}


def test_a_second_verify_all_in_one_process_writes_the_same_document(tmp_path):
    """Two passes in a fresh interpreter, the second on the inputs the entries kept from the first,
    each match the golden digests whatever order the tests run in."""
    paths = [tmp_path / f"pass{i}.json" for i in (1, 2)]
    code = ("import sys, homyb.cli; "
            "print([homyb.cli.main(['catalog', 'verify-all', '--json', p]) for p in sys.argv[1:]])")
    proc = _python("-c", code, *map(str, paths))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0]"
    golden = _golden()
    for path in paths:
        got = document_digests(path)
        assert got == {key: golden[key] for key in got}, path.name


def test_a_second_verify_all_builds_nothing_and_writes_the_same_document(tmp_path, capsys, monkeypatch):
    """The second pass checks every identity on the operators each entry kept from the first."""
    monkeypatch.setattr(homyb.catalog, "_CACHE", {})  # every entry loaded afresh
    calls, build_many = [], homyb.catalog.build_many
    monkeypatch.setattr(homyb.catalog, "build_many", lambda *args, **kwargs: calls.append(args[1])
                        or build_many(*args, **kwargs))
    golden, counts = _golden(), []
    for _ in range(2):
        calls.clear()
        got = verify_all_digests(tmp_path)
        counts.append((len(calls), sum(map(len, calls))))
        assert got == {key: golden[key] for key in got}
    capsys.readouterr()
    assert counts == [(16, 30), (0, 0)]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        verify_all = verify_all_digests(Path(tmp))
    golden = {
        "operators": {f"{e} {n}": operator_digest(e, n) for e, n in operator_pairs()},
        **verify_all,
        "validators": {name: validator_digest(name) for name in broken_structures()},
        "chybe": {name: chybe_digest(name) for name in CHYBE_CASES},
    }
    FIXTURE.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
