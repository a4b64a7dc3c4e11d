"""A deterministic one-field mutation sweep over the shipped catalog documents.

Every mutant is a shipped entry document with one field deleted or replaced
by a value of another JSON type, run through `homyb catalog verify-all` from
a scratch entries directory that holds it alone.  A mutant may be refused
(exit 2, the message naming the document), change a verdict (exit 1) or be
accepted (exit 0); it must never end in a traceback.  The accepted mutants
are pinned, so a new silent acceptance shows up as a diff here.
"""

import contextlib
import functools
import io
import json

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
    "ex2.5": _EVERY | {"checks []", "checks.0 del", "checks.5 del", "notes.1 del", 'notes.1 "x"',
                       "table.15.2 []"},
    "ex2.5-verbatim": _EVERY,
    "ex3.3": _EVERY | {"checks []", "checks.0 del", "checks.5 del", "notes.1 del", 'notes.1 "x"',
                       "table.8.2 []"},
    "ex3.5": _EVERY | {"checks []", "checks.0 del", "checks.5 del", "table.15.2 []"},
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


@pytest.mark.parametrize("entry_id", _IDS)
def test_every_one_field_mutant_is_refused_or_accepted_without_a_traceback(entry_id, tmp_path,
                                                                           monkeypatch):
    text = (homyb.catalog._ENTRIES / f"{entry_id}.json").read_text(encoding="utf-8")
    path = tmp_path / f"{entry_id}.json"
    monkeypatch.setattr(homyb.catalog, "_ENTRIES", tmp_path)
    monkeypatch.setattr(homyb.catalog, "_IDS", (entry_id,))
    monkeypatch.setattr(homyb.catalog, "_CACHE", {})
    # the parser is the same on every call; building it once keeps the sweep to the catalog's cost
    monkeypatch.setattr(homyb.cli, "_build_parser", functools.cache(homyb.cli._build_parser))
    outcomes, tracebacks, unnamed = {}, [], []
    for label, doc in [("unchanged", text), *mutants(text)]:
        path.write_text(doc, encoding="utf-8")
        homyb.catalog._CACHE.clear()
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                outcomes[label] = homyb.cli.main(["catalog", "verify-all"])
        except Exception as exc:  # noqa: BLE001 - every escape is the finding
            tracebacks.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if outcomes[label] == 2 and not err.getvalue().startswith(f"error: {path}: "):
            unnamed.append(f"{label}: {err.getvalue().strip()}")
    assert tracebacks == []
    assert unnamed == []
    assert set(outcomes.values()) <= {0, 1, 2}
    assert outcomes.pop("unchanged") == 0
    assert {label for label, code in outcomes.items() if code == 0} == ACCEPTED[entry_id]
