"""A deterministic one-field mutation sweep over the shipped documents and the files a user gives.

Every mutant is a document with one field deleted or replaced by a value of
another JSON type, run through the command that reads it: a shipped entry
document through `homyb catalog verify-all` from a scratch entries directory
that holds it alone; a structure document of each kind, as `catalog export`
writes it, through `homyb axioms` and a `homyb verify` that passes on it; an
operator file, as `homyb build` writes it, through `homyb verify --operator`.
A mutant may be refused (exit 2, the message naming the document or the
field), change a verdict (exit 1) or be accepted (exit 0); it must never end
in a traceback.  The accepted mutants are pinned, so a new silent acceptance
shows up as a diff here.
"""

import contextlib
import functools
import io
import json
import re

import pytest

import homyb.catalog
import homyb.cli
from homyb.catalog import _IDS

REPLACEMENTS = (None, [], {}, "x", 0, -1, 1.5, True, [[]], ["0"])
DEPTH = 3

# the mutants `verify-all` accepts: each document still says what it means
_EVERY = {'description "x"', "notes []", 'notes ["0"]', "notes.0 del", 'notes.0 "x"',
          "structure.format_version del", "structure.name del", 'structure.name "x"'}
ACCEPTED = {
    "ex2.3": _EVERY | {"checks.0 del"},
    "ex2.5": _EVERY | {"checks.0 del", "checks.5 del", "notes.1 del", 'notes.1 "x"',
                       "table.15.2 []"},
    "ex2.5-verbatim": _EVERY,
    "ex3.3": _EVERY | {"checks.0 del", "checks.5 del", "notes.1 del", 'notes.1 "x"',
                       "table.8.2 []"},
    "ex3.5": _EVERY | {"checks.0 del", "checks.5 del", "table.15.2 []"},
    "ex4.3": _EVERY | {"checks.0 del", "checks.6 del"},
}


def paths(node, prefix=()):
    """The paths to every field of an object and to the first and last item of a list, to `DEPTH`;
    the items between have the type of these."""
    if prefix:
        yield prefix
    if len(prefix) < DEPTH and isinstance(node, (dict, list)):
        for key in node if isinstance(node, dict) else sorted({0, len(node) - 1} & {*range(len(node))}):
            yield from paths(node[key], prefix + (key,))


def mutants(text: str):
    """(label, document) for each deletion and replacement at each path of the document."""
    for path in paths(json.loads(text)):
        for value in ("del",) + REPLACEMENTS:
            doc = json.loads(text)
            parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
            if value == "del":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            shown = value if value == "del" else json.dumps(value)
            yield f"{'.'.join(map(str, path))} {shown}", json.dumps(doc)


def sweep(path, text: str, argv: list[str], named) -> dict[str, int]:
    """label -> exit code of `homyb <argv>` with each mutant of `text` written to `path`; none may end
    in a traceback, and `named(message)` must hold for each refusal's error message."""
    outcomes, tracebacks, unnamed = {}, [], []
    for label, doc in [("unchanged", text), *mutants(text)]:
        path.write_text(doc, encoding="utf-8")
        homyb.catalog._CACHE.clear()
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                outcomes[label] = homyb.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - every escape is the finding
            tracebacks.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if outcomes[label] == 2 and not named(err.getvalue()):
            unnamed.append(f"{label}: {err.getvalue().strip()}")
    assert tracebacks == []
    assert unnamed == []
    assert set(outcomes.values()) <= {0, 1, 2}
    assert outcomes.pop("unchanged") == 0
    return outcomes


def accepted(outcomes: dict[str, int]) -> set[str]:
    return {label for label, code in outcomes.items() if code == 0}


@pytest.fixture
def quick(monkeypatch):
    """A scratch catalog cache, which `sweep` clears, and one parser for every command: the parser is
    the same on every call, and building it once keeps a sweep to the commands' cost."""
    monkeypatch.setattr(homyb.catalog, "_CACHE", {})
    monkeypatch.setattr(homyb.cli, "_build_parser", functools.cache(homyb.cli._build_parser))


def entry_document(entry_id: str) -> dict:
    return json.loads((homyb.catalog._ENTRIES / f"{entry_id}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry_id", _IDS)
def test_every_one_field_mutant_is_refused_or_accepted_without_a_traceback(entry_id, tmp_path,
                                                                           monkeypatch, quick):
    text = (homyb.catalog._ENTRIES / f"{entry_id}.json").read_text(encoding="utf-8")
    path = tmp_path / f"{entry_id}.json"
    monkeypatch.setattr(homyb.catalog, "_ENTRIES", tmp_path)
    monkeypatch.setattr(homyb.catalog, "_IDS", (entry_id,))
    outcomes = sweep(path, text, ["catalog", "verify-all"], lambda err: err.startswith(f"error: {path}: "))
    assert accepted(outcomes) == ACCEPTED[entry_id]


# a structure document of each kind -> a `homyb verify` that passes on it
VERIFY = {
    "ex2.3": ["--construction", "thm2.1", "--check", "hybe"],
    "ex3.3": ["--construction", "thm5.3", "--check", "system"],
    "ex4.3": ["--check", "chybe", "--x", "1,0,0", "--y", "0,1,0", "--u", "0,0,1"],
}
# the structure mutants both commands accept: basis names and the file's name are free, a parameter
# the structure does not use may go, and verify adds the ones its --lambda and --nu name
_FREE = {"format_version del", "name del", 'name "x"', 'basis.0 "x"', 'basis.2 "x"'}
_UNUSED = {"parameters []", "parameters.0 del", 'parameters.0 "x"', "parameters.1 del", 'parameters.1 "x"'}
STRUCTURE_ACCEPTED = {
    "ex2.3": _FREE | {"parameters.2 del", 'parameters.2 "x"'},  # nu
    "ex3.3": _FREE | _UNUSED,  # lam and nu
    "ex4.3": _FREE | _UNUSED,
}


def names_a_field(doc: dict):
    """Does an error message name a field of `doc`, as `error: key: ...` or `error: key[i]...: ...`?"""
    def named(err: str) -> bool:
        match = re.match(r"error: (\w+)[\[:]", err)
        return match is not None and match.group(1) in doc
    return named


@pytest.mark.parametrize("command", ["axioms", "verify"])
@pytest.mark.parametrize("entry_id", sorted(VERIFY))
def test_every_one_field_mutant_of_a_structure_file_is_refused_or_accepted(entry_id, command, tmp_path,
                                                                          quick):
    doc = entry_document(entry_id)["structure"]
    path = tmp_path / "structure.json"
    argv = [command, str(path), *VERIFY[entry_id] * (command == "verify")]
    outcomes = sweep(path, json.dumps(doc), argv, names_a_field(doc))
    assert accepted(outcomes) == STRUCTURE_ACCEPTED[entry_id]


def test_every_one_field_mutant_of_an_operator_file_is_refused_or_accepted(tmp_path, quick):
    structure, path = tmp_path / "ex2.3.json", tmp_path / "op.json"
    structure.write_text(json.dumps(entry_document("ex2.3")["structure"]), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert homyb.cli.main(["build", str(structure), "--construction", "thm2.1", "--out", str(path)]) == 0
    doc = json.loads(path.read_text(encoding="utf-8"))
    fields, argv = names_a_field(doc), ["verify", str(structure), "--operator", str(path), "--check", "hybe"]
    # a header that names another structure or construction is refused naming the file
    outcomes = sweep(path, json.dumps(doc), argv, lambda err: fields(err) or err.startswith(f"error: {path}: "))
    assert accepted(outcomes) == {"format_version del"}
