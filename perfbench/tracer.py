"""Per-layer tracing of homyb from outside the package.

`Tracer.install()` replaces public functions and methods of the homyb
modules with timing wrappers and `Tracer.uninstall()` puts the originals
back; nothing under ``src/`` is edited.  A function bound into another module
with ``from … import`` (``catalog`` and ``cli`` import ``hybe_holds`` and its
siblings that way) is replaced there too, because every homyb module is
scanned for the original object.

Each wrapped call becomes a span ``(name, start, end, parent)`` kept in
memory.  A layer's self time is its spans' durations minus the time covered
by their child spans.  The scalar ring is called millions of times per pass,
so its calls are not stored as spans: they are counted and timed, and their
time is subtracted from the enclosing span like a child's.  Work the tracer
does for its own counters (``tensor.nnz_ratio``, ``scalar.terms.max``) is
also subtracted, and kept apart as the ``trace`` layer.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("scalar", "tensor", "structures", "constructions", "verify", "catalog", "files", "cli")


class _Frame:
    __slots__ = ("index", "child")

    def __init__(self, index: int):
        self.index = index
        self.child = 0.0


class Tracer:
    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far; spans, counts and times start empty."""
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack = [_Frame(-1)]
        self.self_time: dict[str, float] = defaultdict(float)
        self.time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.named_time: dict[str, float] = defaultdict(float)
        self._active: dict[str, int] = defaultdict(int)
        self._in_scalar = False

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name: str, groups: tuple[str, ...], extra=None):
        layer = name.split(".", 1)[0]
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1]
            frame = _Frame(len(tracer.spans))
            tracer.spans.append(None)
            tracer.stack.append(frame)
            active = tracer._active
            outer = [g for g in groups if not active[g]]
            for g in groups:
                active[g] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                for g in groups:
                    active[g] -= 1
                duration = end - start
                tracer.spans[frame.index] = (name, start, end, parent.index)
                tracer.self_time[layer] += duration - frame.child
                parent.child += duration
                for g in outer:
                    tracer.time[g] += duration
                    tracer.calls[g] += 1
            if extra is not None:
                begin = perf_counter()
                extra(tracer, args, result, outer, duration)
                spent = perf_counter() - begin
                parent.child += spent
                tracer.self_time["trace"] += spent
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, fn, group: str):
        """Scalar-ring calls: counted and timed, outermost call only, no span."""
        tracer = self
        arith = group in ("scalar.mul", "scalar.add")

        def wrapper(*args, **kwargs):
            if tracer._in_scalar:
                return fn(*args, **kwargs)
            tracer._in_scalar = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                tracer._in_scalar = False
                tracer.calls[group] += 1
                tracer.time[group] += duration
                tracer.stack[-1].child += duration
                if arith and _has_zero_operand(args):
                    tracer.counts["scalar.zero_operand_calls"] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Rebind every homyb module attribute that names `original`."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "homyb" and not mod_name.startswith("homyb."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _method(self, cls, attr: str, wrapper) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        from homyb import catalog, cli, constructions, files, scalar, structures, tensor, verify

        if self._patched:
            raise RuntimeError("tracer already installed")
        Scalar, Matrix = scalar.Scalar, tensor.Matrix

        for attr, group in (
            ("__mul__", "scalar.mul"), ("__rmul__", "scalar.mul"), ("__pow__", "scalar.mul"),
            ("__add__", "scalar.add"), ("__radd__", "scalar.add"), ("__sub__", "scalar.add"),
            ("__rsub__", "scalar.add"), ("__neg__", "scalar.add"),
            ("__eq__", "scalar.other"), ("substitute", "scalar.other"),
            ("extend", "scalar.other"), ("evaluate", "scalar.other"),
        ):
            self._method(Scalar, attr, self._leaf(Scalar.__dict__[attr], group))
        for fn, group in ((scalar.parse_scalar, "scalar.parse"), (scalar.format_scalar, "scalar.format")):
            self._replace(fn, self._leaf(fn, group))

        for attr, name, extra in (
            ("__init__", "tensor.init", _count_cells),
            ("__matmul__", "tensor.matmul", _count_nnz),
            ("__add__", "tensor.add", None),
            ("__sub__", "tensor.add", None),
            ("__neg__", "tensor.add", None),
            ("scale", "tensor.add", None),
            ("__eq__", "tensor.eq", None),
            ("apply", "tensor.apply", None),
            ("column", "tensor.apply", None),
            ("map", "tensor.map", None),
        ):
            self._method(Matrix, attr, self._span(Matrix.__dict__[attr], name, (name,), extra))
        for fn in (tensor.kron, tensor.flip, tensor.leg12, tensor.leg13, tensor.leg23):
            name = f"tensor.{fn.__name__}"
            self._replace(fn, self._span(fn, name, (name,)))
        for name in ("identity", "zeros", "from_rows", "from_cols"):
            bound = getattr(Matrix, name)
            self._method(Matrix, name, classmethod(self._span(bound.__func__, "tensor.new", ("tensor.new",))))

        for fn in (structures.validate, structures.validate_hom_algebra,
                   structures.validate_hom_coalgebra, structures.validate_hom_lie):
            self._replace(fn, self._span(fn, f"structures.{fn.__name__}", ("structures.validate",)))

        for fn in (constructions.algebra_solution, constructions.algebra_solution_inverse,
                   constructions.coalgebra_solution, constructions.coalgebra_solution_inverse,
                   constructions.lie_solution, constructions.lie_solution_inverse,
                   constructions.chybe_r, constructions.system_algebra, constructions.system_coalgebra):
            self._replace(fn, self._span(fn, f"constructions.{fn.__name__}",
                                         ("constructions.build",), _max_terms))

        for fn, short in ((verify.commutes_with_alpha, "alpha"), (verify.hybe_holds, "hybe"),
                          (verify.inverse_holds, "inverse"), (verify.system_holds, "system"),
                          (verify.chybe_holds, "chybe")):
            self._replace(fn, self._span(fn, f"verify.{short}", (f"verify.{short}", "verify.check"),
                                         _by_dimension(short)))
        self._replace(verify.yb_commutator,
                      self._span(verify.yb_commutator, "verify.yb_commutator", ("verify.yb_commutator",)))

        self._replace(catalog.verify_all, self._span(catalog.verify_all, "catalog.verify_all", ("catalog.verify_all",)))
        self._replace(catalog.verify_entry, self._span(catalog.verify_entry, "catalog.verify_entry",
                                                       ("catalog.entry",), _by_entry))
        self._replace(catalog.compare_table, self._span(catalog.compare_table, "catalog.table", ("catalog.table",)))

        for fn in (files.load_structure, files.load_operator):
            self._replace(fn, self._span(fn, f"files.{fn.__name__}", ("files.load",), _read_bytes))
        self._replace(files.structure_from_dict,
                      self._span(files.structure_from_dict, "files.structure_from_dict", ("files.load",)))
        self._replace(files.dump_json, self._span(files.dump_json, "files.dump_json", ("files.dump",), _written_bytes))
        for fn in (files.report_to_dict, files.operator_to_dict, files.system_to_dict, files.structure_to_dict):
            self._replace(fn, self._span(fn, f"files.{fn.__name__}", ("files.dump",)))

        self._replace(cli.main, self._span(cli.main, "cli.main", ("cli.main",)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Everything recorded since the last reset, as flat metric name -> value."""
        out: dict[str, float] = {}
        scalar_time = sum(t for g, t in self.time.items() if g.startswith("scalar."))
        self_time = dict(self.self_time)
        self_time["scalar"] = scalar_time
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time.get(layer, 0.0)
        out["trace.self_s"] = self_time.get("trace", 0.0)
        for group, seconds in self.time.items():
            out[f"{group}_s"] = seconds
        out["scalar.arith_s"] = self.time.get("scalar.mul", 0.0) + self.time.get("scalar.add", 0.0)
        for group, calls in self.calls.items():
            out[f"{group}.calls"] = calls
        out.update(self.named_time)
        out.update(self.counts)
        out.update(self.maxima)
        return out

    def span_records(self) -> list[tuple[str, float, float, int]]:
        return [s for s in self.spans if s is not None]


def _has_zero_operand(args) -> bool:
    """An arithmetic call on the zero Scalar: work that sparse storage would skip."""
    if not args[0].terms:
        return True
    terms = getattr(args[1], "terms", None) if len(args) > 1 else None
    return terms is not None and not terms


# -- counters computed from a call's arguments or result ------------------------------
#
# Each takes (tracer, args, result, outer groups, duration) and runs outside
# the timed span.


def _count_cells(tracer: Tracer, args, result, outer, duration) -> None:
    _, rows, cols = args[:3]
    tracer.counts["tensor.cells"] += rows * cols


def _count_nnz(tracer: Tracer, args, result, outer, duration) -> None:
    for m in args[:2]:
        tracer.counts["tensor.operand_entries"] += len(m.data)
        tracer.counts["tensor.operand_nonzeros"] += sum(1 for e in m.data if e.terms)


def _max_terms(tracer: Tracer, args, result, outer, duration) -> None:
    for op in result if isinstance(result, tuple) else (result,):
        matrix = getattr(op, "matrix", None)
        if matrix is not None:
            longest = max(len(e.terms) for e in matrix.data)
            tracer.maxima["scalar.terms.max"] = max(tracer.maxima["scalar.terms.max"], longest)


def _by_dimension(short: str):
    def extra(tracer: Tracer, args, result, outer, duration) -> None:
        if "verify.check" not in outer:
            return
        tracer.counts["verify.witnesses"] += len(result.witnesses)
        if short in ("hybe", "system"):
            # alpha is the last positional argument of both checks
            tracer.named_time[f"verify.{short}_s.d{args[-1].rows}"] += duration
    return extra


def _by_entry(tracer: Tracer, args, result, outer, duration) -> None:
    tracer.named_time[f"catalog.entry_s.{args[0].id}"] += duration


def _read_bytes(tracer: Tracer, args, result, outer, duration) -> None:
    if outer:
        tracer.counts["files.bytes"] += os.path.getsize(args[0])


def _written_bytes(tracer: Tracer, args, result, outer, duration) -> None:
    if outer:
        tracer.counts["files.bytes"] += len(result.encode("utf-8"))
