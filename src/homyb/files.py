"""JSON serialization: structure files, operator files, report files.

All scalar data travels as expression strings in the scalar mini-language, so
files stay exact.  Shape problems raise StructureError with the offending key
in the message; expression problems carry the key path and the parser's
position.  Output is deterministic: fixed key order, no timestamps (elapsed_ms
is the one explicitly-labeled timing field, meant to be excluded from golden
comparisons).

This is the one module that reads and writes structure tables.  A structure
holds its maps as matrices: on load, each `mult` or `bracket` cell becomes a
column of μ or of the bracket, and the `comult` triples of Δ(e_i) are summed
into column i of Δ; on export, the tables are read back from the matrices,
with the `comult` triples in ascending (j, k) order, repeated triples summed
and zero triples dropped.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from .constructions import SolutionOperator
from .errors import HomybError, ParseError, StructureError
from .scalar import ParamSet, Scalar, format_scalar, parse_scalar
from .structures import HomAlgebra, HomCoalgebra, HomLieAlgebra, HomStructure
from .tensor import Matrix
from .verify import VerificationReport

FORMAT_VERSION = 1
STRUCTURE_KINDS = tuple(cls.kind for cls in (HomAlgebra, HomCoalgebra, HomLieAlgebra))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise StructureError(message)


def _is_int(value: Any) -> bool:
    """A JSON integer; `true` and `false` are not, although bool subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _get_list(doc: dict, key: str, length: int | None = None) -> list:
    _require(key in doc, f"{key}: missing")
    value = doc[key]
    _require(isinstance(value, list), f"{key}: expected an array")
    if length is not None:
        _require(len(value) == length, f"{key}: expected {length} entries, got {len(value)}")
    return value


def _parse_at(expr: Any, params: ParamSet, where: str, parsed: dict[str, Scalar]) -> Scalar:
    """The cell at `where`; `parsed` holds each distinct expression of the document, parsed once."""
    _require(isinstance(expr, str), f"{where}: expected an expression string")
    if expr not in parsed:
        try:
            parsed[expr] = parse_scalar(expr, params)
        except ParseError as exc:
            raise StructureError(f"{where}: {exc}") from None
    return parsed[expr]


def _parse_all(cells: list, params: ParamSet, where: str, parsed: dict) -> list[Scalar]:
    """The cells of the array at `where`; a string parsed before builds no path."""
    return [parsed[e] if e.__class__ is str and e in parsed else _parse_at(e, params, f"{where}[{i}]", parsed)
            for i, e in enumerate(cells)]


def _string_matrix(doc: dict, key: str, rows: int, cols: int, params: ParamSet, parsed: dict) -> Matrix:
    raw = _get_list(doc, key, rows)
    data: list[list[Scalar]] = []
    for i, row in enumerate(raw):
        _require(isinstance(row, list) and len(row) == cols, f"{key}: expected {rows}×{cols}")
        data.append(_parse_all(row, params, f"{key}[{i}]", parsed))
    return Matrix.from_rows(params, data)


def _coord_map(doc: dict, key: str, dim: int, params: ParamSet, parsed: dict) -> Matrix:
    """A dim×dim table of coordinate vectors as the dim×dim² matrix of its cells."""
    raw = _get_list(doc, key, dim)
    cells = []
    for i, row in enumerate(raw):
        _require(isinstance(row, list) and len(row) == dim, f"{key}: expected {dim}×{dim}")
        for j, cell in enumerate(row):
            where = f"{key}[{i}][{j}]"
            _require(
                isinstance(cell, list) and len(cell) == dim,
                f"{where}: expected a length-{dim} coordinate vector",
            )
            cells.append(_parse_all(cell, params, where, parsed))
    return Matrix.from_cols(params, cells)


def _comult(doc: dict, dim: int, params: ParamSet, parsed: dict) -> Matrix:
    """The (j, k, coeff) triples of each Δ(e_i) summed into column i of Δ."""
    raw = _get_list(doc, "comult", dim)
    zero = Scalar.zero(params)
    cols = [[zero] * (dim * dim) for _ in range(dim)]
    for i, triples in enumerate(raw):
        _require(isinstance(triples, list), f"comult[{i}]: expected an array of triples")
        for t, triple in enumerate(triples):
            _require(
                isinstance(triple, list) and len(triple) == 3,
                f"comult[{i}][{t}]: expected [j, k, expr]",
            )
            j, k, expr = triple
            _require(
                _is_int(j) and _is_int(k) and 0 <= j < dim and 0 <= k < dim,
                f"comult[{i}][{t}]: indices out of range",
            )
            cols[i][j * dim + k] += _parse_at(expr, params, f"comult[{i}][{t}]", parsed)
    return Matrix.from_cols(params, cols)


def _header(doc: Any, what: str) -> ParamSet:
    """The file's ParamSet, after the checks every file kind shares.

    The document must be a JSON object with a supported `format_version` and a
    list of valid, distinct parameter names.
    """
    _require(isinstance(doc, dict), f"{what}: expected a JSON object")
    version = doc.get("format_version", FORMAT_VERSION)
    _require(
        _is_int(version) and version == FORMAT_VERSION,
        f"format_version: unsupported value {version!r}",
    )
    params_raw = _get_list(doc, "parameters")
    _require(all(isinstance(p, str) for p in params_raw), "parameters: expected strings")
    try:
        return ParamSet(params_raw)
    except ValueError as exc:
        raise StructureError(f"parameters: {exc}") from None


def structure_from_dict(doc: dict) -> HomStructure:
    params = _header(doc, "structure file")
    kind = doc.get("kind")
    _require(kind in STRUCTURE_KINDS, f"kind: expected one of {STRUCTURE_KINDS}, got {kind!r}")
    name = doc.get("name", "")
    _require(isinstance(name, str), "name: expected a string")
    dim = doc.get("dim")
    _require(_is_int(dim) and dim > 0, "dim: expected a positive integer")

    basis_raw = _get_list(doc, "basis", dim)
    _require(all(isinstance(b, str) for b in basis_raw), "basis: expected strings")
    _require(len(set(basis_raw)) == dim, "basis: names must be distinct")

    parsed: dict[str, Scalar] = {}
    alpha = _string_matrix(doc, "alpha", dim, dim, params, parsed)
    base = {"name": name, "basis": tuple(basis_raw), "params": params, "alpha": alpha}

    if kind == HomAlgebra.kind:
        return HomAlgebra(
            **base,
            eta=Matrix.from_cols(params, [_parse_all(_get_list(doc, "unit", dim), params, "unit", parsed)]),
            mu=_coord_map(doc, "mult", dim, params, parsed),
        )
    if kind == HomCoalgebra.kind:
        return HomCoalgebra(
            **base,
            epsilon=Matrix.from_rows(params, [_parse_all(_get_list(doc, "counit", dim), params, "counit", parsed)]),
            delta=_comult(doc, dim, params, parsed),
        )
    return HomLieAlgebra(**base, bracket=_coord_map(doc, "bracket", dim, params, parsed))


def _read_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise StructureError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise StructureError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise StructureError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise StructureError(f"{path}: invalid JSON: nested too deeply") from None


def load_structure(path: str | Path) -> HomStructure:
    return structure_from_dict(_read_json(path))


def structure_to_dict(structure: HomStructure) -> dict:
    base = {
        "format_version": FORMAT_VERSION,
        "kind": structure.kind,
        "name": structure.name,
        "dim": structure.dim,
        "basis": list(structure.basis),
        "parameters": list(structure.params.names),
        "alpha": _matrix_strings(structure.alpha),
    }
    d = structure.dim
    if isinstance(structure, HomAlgebra):
        base["unit"] = [row[0] for row in _matrix_strings(structure.eta)]
        base["mult"] = _coord_table(structure.mu, d)
    elif isinstance(structure, HomCoalgebra):
        base["counit"] = _matrix_strings(structure.epsilon)[0]
        comult: list[list] = [[] for _ in range(d)]
        for t, i, c in structure.delta.nonzero():
            comult[i].append([*divmod(t, d), format_scalar(c)])
        base["comult"] = comult
    else:
        base["bracket"] = _coord_table(structure.bracket, d)
    return base


def _coord_table(matrix: Matrix, dim: int) -> list:
    """A dim×dim² matrix as the dim×dim table of its columns, as expression strings."""
    cols = [list(col) for col in zip(*_matrix_strings(matrix))]
    return [cols[i:i + dim] for i in range(0, len(cols), dim)]


def _matrix_strings(matrix: Matrix) -> list[list[str]]:
    """Every cell as an expression string; only the nonzero ones are formatted."""
    cells = [["0"] * matrix.cols for _ in range(matrix.rows)]
    for i, j, s in matrix.nonzero():
        cells[i][j] = format_scalar(s)
    return cells


def _operator_header(op: SolutionOperator, kind: str, construction: str) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "construction": construction,
        "structure": op.source.name,
        "dim": op.source.dim,
        "parameters": list(op.matrix.params.names),
        "lambda": format_scalar(op.lam),
        "nu": format_scalar(op.nu),
    }


def operator_to_dict(op: SolutionOperator) -> dict:
    doc = _operator_header(op, "operator", op.construction.value)
    doc["matrix"] = _matrix_strings(op.matrix)
    return doc


def system_to_dict(triple: Sequence[SolutionOperator]) -> dict:
    w, z, x = triple
    doc = _operator_header(w, "operator-system", w.construction.value.rsplit("-", 1)[0])
    for name, op in (("W", w), ("Z", z), ("X", x)):
        doc[name] = _matrix_strings(op.matrix)
    return doc


def load_operator(path: str | Path) -> tuple[Matrix, dict]:
    """Read an operator file back as (matrix, metadata)."""
    doc = _read_json(path)
    params = _header(doc, "operator file")
    _require(doc.get("kind") == "operator", "kind: expected 'operator'")
    dim = doc.get("dim")
    _require(_is_int(dim) and dim > 0, "dim: expected a positive integer")
    size = dim * dim
    parsed: dict[str, Scalar] = {}
    for key in ("lambda", "nu"):  # the header's λ and ν, as expressions over its parameters
        _parse_at(doc.get(key), params, key, parsed)
    matrix = _string_matrix(doc, "matrix", size, size, params, parsed)
    return matrix, doc


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "check": report.check_name,
        "holds": report.holds,
        "witnesses": [
            {
                "row": w.row,
                "col": w.col,
                "residual": format_scalar(w.residual),
                "label": w.label,
            }
            for w in report.witnesses
        ],
        "metadata": dict(report.metadata),
        "subreports": [report_to_dict(sub) for sub in report.subreports],
        "elapsed_ms": round(report.elapsed_ms, 3),
    }


def dump_json(obj: dict | list, path: str | Path | None = None) -> str:
    text = json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
    if path is not None:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise HomybError(f"cannot write {path}: {exc}") from None
    return text
