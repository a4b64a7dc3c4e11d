"""Benchmark for homyb: time to an exact verdict, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``catalog``: the six published entries through ``verify_all``.
* ``ladder``: generated twisted structures of dimension 4 to 6 with monomial
  constants; sparse n³×n³ cubes in dense storage, so most work is spent on
  zero entries (``scalar.zero_operand_ratio``, ``tensor.nnz_ratio``).
* ``skewed``: the same families at dimension 3 in a skewed basis; denser cubes
  of multi-term Laurent polynomials, so scalar arithmetic dominates.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``pass_s``: median seconds of one in-process pass of the workload's checks.
* ``cli_s``: median seconds of one ``python -m homyb.cli`` process running
  the workload's user-facing command.
* ``setup_s``: median seconds to import homyb and build or parse the inputs,
  each measured in a fresh interpreter.
* ``peak_rss_mb``: peak resident memory of this process.

The three timings are sampled in cycles (one pass, CLI runs until they have
taken as long as the passes so far, two set-up probes) repeated for
``--seconds`` and at least three times, so that each median spans the whole
run.  Child processes run one at a time.

The timings are host-normalised seconds.  A shared host's speed swings by up
to 2x within seconds, which no number of samples averages out of a 30-second
run.  So a fixed pure-Python calibration mix (`calibrate`) runs before each
timed piece of work and after it, and the piece's wall time is scaled by
``REFERENCE_CALIB_S`` over the mean of those two calibrations: the seconds it
would take on a host where the mix takes ``REFERENCE_CALIB_S``.  A pass is
timed input by input, with a calibration between inputs.  The calibration
does not touch homyb, so a change to homyb moves these figures as it moves
wall time.  The run and its child processes keep to one CPU, the one the
calibrations measure.  The raw wall-time medians and every calibration are
printed too.

With ``--trace 1`` the run wraps homyb's public functions from outside (see
`tracer`) and reports per-layer counts and times for one session: the traced
set-up, the median traced pass and one in-process run of the CLI command.
Spans are written to ``.perfbench_out/`` when the run ends.

Every pass and every CLI run is gated: a check that raises, whose verdict
differs from the known answer, or whose witnesses differ from the golden list
counts as failed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1 when
any check failed, and 2 (with no result line) when homyb cannot be found.
Temporary files go to ``.perfbench_tmp/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

# One cycle of an untraced run is a pass, as many CLI runs as keep the CLI's
# total wall time level with the passes', and SETUP_PER_CYCLE set-up probes;
# cycles repeat until --seconds have passed, and at least MIN_CYCLES run.
MIN_CYCLES = 3
# A round figure in the range `calibrate` takes on the machine in BASELINE.json
# (0.05 to 0.23 s, median near 0.1 s); it only sets the scale of the
# host-normalised timings.
REFERENCE_CALIB_S = 0.08
SETUP_PER_CYCLE = 2
IMPORT_RUNS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {"pass_s": "s", "cli_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics in the result line: those that every workload exercises.
# The traced run also prints the workload-specific ones (catalog.entry_s.<id>,
# catalog.table_s, verify.chybe_s, verify.hybe_s.d<n>, files.load_s, ...).
PER_LAYER = {
    "scalar.mul.calls": "count",
    "scalar.add.calls": "count",
    "scalar.arith_s": "s",
    "scalar.parse.calls": "count",
    "scalar.parse_s": "s",
    "scalar.terms.max": "count",
    "scalar.zero_operand_ratio": "ratio",
    "scalar.self_s": "s",
    "tensor.matmul.calls": "count",
    "tensor.matmul_s": "s",
    "tensor.kron.calls": "count",
    "tensor.kron_s": "s",
    "tensor.leg13_s": "s",
    "tensor.cells": "count",
    "tensor.nnz_ratio": "ratio",
    "tensor.self_s": "s",
    "structures.validate.calls": "count",
    "structures.validate_s": "s",
    "structures.self_s": "s",
    "constructions.build.calls": "count",
    "constructions.build_s": "s",
    "constructions.self_s": "s",
    "verify.alpha_s": "s",
    "verify.hybe_s": "s",
    "verify.system_s": "s",
    "verify.inverse_s": "s",
    "verify.witnesses": "count",
    "verify.self_s": "s",
    "files.dump_s": "s",
    "files.bytes": "count",
    "cli.main_s": "s",
    "cli.import_s": "s",
    "host.calib_s": "s",
    "trace.overhead_s": "s",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "homyb" / "__init__.py").is_file():
        print(f"error: homyb sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        if args.setup_probe:
            return _setup_probe(args, tmp)
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


# -- measurement helpers -------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python mix of the kinds of work homyb does.

    Integer arithmetic, Fraction arithmetic (homyb's scalars are dicts of
    Fractions), and dict updates and list building; each part takes 15 to
    30 ms on the reference host.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    f = Fraction(0)
    for i in range(1, 4000):
        f = f + Fraction(i, i + 1) * Fraction(3, i + 2)
        f = Fraction(f.numerator % 1_000_003, f.denominator % 1000 + 1)
    table: dict = {}
    for i in range(60_000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    [[j for j in range(50)] for _ in range(400)]
    return time.perf_counter() - start


class HostClock:
    """Rescales measured seconds to the reference host's speed.

    It calibrates when made and after each piece of work it is given, and
    scales the piece by the mean of the calibrations just before and after it.
    """

    def __init__(self):
        self.calibs = [calibrate()]

    def normalise(self, seconds: float) -> float:
        """`seconds`, measured since the last calibration, at the reference speed."""
        before = self.calibs[-1]
        self.calibs.append(calibrate())
        return seconds * REFERENCE_CALIB_S / ((before + self.calibs[-1]) / 2)


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU.

    The speed of each CPU of a shared host swings on its own, so a calibration
    only tracks work that runs on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
    }


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(cmd: list[str], cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


# -- set-up probe (runs in a child process) -----------------------------------------------


def _setup_probe(args, tmp: Path) -> int:
    start = time.perf_counter()
    workloads.setup(args.workload, args.seed, tmp, goldens={})
    print(time.perf_counter() - start)
    return 0


# -- the runs ------------------------------------------------------------------------


class Tally:
    """Checks attempted and failure messages, over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)


def timed_pass(session, tally: Tally, clock: HostClock) -> tuple[float, float]:
    """Wall and host-normalised seconds of one pass, timed segment by segment."""
    wall = normalised = 0.0
    checks = []
    for segment in workloads.pass_segments(session):
        start = time.perf_counter()
        checks.extend(segment())
        elapsed = time.perf_counter() - start
        wall += elapsed
        normalised += clock.normalise(elapsed)
    tally.add(len(checks), workloads.gate(session, checks))
    return wall, normalised


def passes_until(session, tally: Tally, clock: HostClock, deadline: float,
                 minimum: int) -> list[float]:
    """Wall seconds of untraced passes, run until `deadline` and at least `minimum` times."""
    times: list[float] = []
    while len(times) < minimum or time.perf_counter() < deadline:
        times.append(timed_pass(session, tally, clock)[0])
    return times


def _run(args, tmp: Path) -> int:
    host = machine()
    print(f"# machine {json.dumps(host)}")
    tally = Tally()
    session = workloads.open_session(args.workload, args.seed, tmp)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()  # before the inputs are built, so that set-up is traced
    try:
        workloads.build_inputs(session)
    finally:
        if tracer:
            tracer.uninstall()
    print(f"# workload {args.workload} seed {args.seed} inputs "
          + json.dumps([[i['doc']['name'], i['choice']] for i, _, _ in session.inputs]))
    if args.trace:
        metrics, detail = _traced(args, session, tally, tracer)
    else:
        metrics, detail = _untraced(args, session, tally)
    detail["machine"] = host
    failed = len(tally.failures)
    detail["failed_ratio"] = failed / tally.attempted
    for message in tally.failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"failed_ratio {failed}/{tally.attempted} = {failed / tally.attempted:g}")
    print(f"# detail {json.dumps(detail, sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _untraced(args, session, tally: Tally):
    """Interleave passes, CLI runs and set-up probes, so each spans the whole run."""
    cli = workloads.cli_args(session)
    probe = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"]
    samples: dict[str, list[float]] = {"pass_s": [], "cli_s": [], "setup_s": []}
    wall: dict[str, list[float]] = {name: [] for name in samples}
    clock = HostClock()
    deadline = time.perf_counter() + args.seconds
    while len(samples["pass_s"]) < MIN_CYCLES or time.perf_counter() < deadline:
        elapsed, normalised = timed_pass(session, tally, clock)
        wall["pass_s"].append(elapsed)
        samples["pass_s"].append(normalised)
        while sum(wall["cli_s"]) < sum(wall["pass_s"]):
            elapsed, proc = run_child([sys.executable, "-m", "homyb.cli", *cli], session.tmp)
            wall["cli_s"].append(elapsed)
            samples["cli_s"].append(clock.normalise(elapsed))
            tally.add(1, workloads.cli_gate(session, cli, proc.returncode, proc.stdout))
        for _ in range(SETUP_PER_CYCLE):
            _, proc = run_child(probe, ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
            elapsed = float(proc.stdout.strip().splitlines()[-1])
            wall["setup_s"].append(elapsed)
            samples["setup_s"].append(clock.normalise(elapsed))

    values = {name: statistics.median(times) for name, times in samples.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for name, value in values.items():
        line = f"{name:12} {value:.6g} {END_TO_END[name]}"
        if name in samples:
            q = quartiles(samples[name])
            line += (f"  (median of {len(samples[name])}; quartiles {q[0]:.6g} .. {q[2]:.6g};"
                     f" wall median {statistics.median(wall[name]):.6g} s)")
        print(line)
    print(f"host.calib_s median {statistics.median(clock.calibs):.6g} s of {len(clock.calibs)}"
          f" (reference {REFERENCE_CALIB_S} s)")
    detail = {"samples": samples, "wall": wall, "host.calib_s": clock.calibs, "cli": ["homyb", *cli]}
    return {name: (value, END_TO_END[name]) for name, value in values.items()}, detail


def _traced(args, session, tally: Tally, tracer):
    phases: dict[str, dict] = {"setup": tracer.snapshot()}

    start = time.perf_counter()
    budget = args.seconds
    clock = HostClock()
    plain = passes_until(session, tally, clock, start + budget / 3, 2)
    traced_times, traced_phases = [], []
    tracer.install()
    try:
        deadline = time.perf_counter() + budget * 2 / 3
        while len(traced_times) < 2 or time.perf_counter() < deadline:
            tracer.reset()
            t0 = time.perf_counter()
            checks = workloads.run_pass(session)
            traced_times.append(time.perf_counter() - t0)
            traced_phases.append(tracer.snapshot())
            spans = tracer.span_records()
            tally.add(len(checks), workloads.gate(session, checks))

        tracer.reset()
        cli = workloads.cli_args(session)
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
            code = session.hb.cli.main(cli)
        phases["cli"] = tracer.snapshot()
        cli_spans = tracer.span_records()
        tally.add(1, workloads.cli_gate(session, cli, code, out.getvalue()))
    finally:
        tracer.uninstall()

    keys = sorted({k for snap in traced_phases for k in snap})
    # median_low: with an even number of passes the value is still one that was measured
    phases["pass"] = {k: statistics.median_low(s.get(k, 0) for s in traced_phases) for k in keys}

    session_totals: dict[str, float] = {}
    for phase in phases.values():
        for k, v in phase.items():
            if k == "scalar.terms.max":
                session_totals[k] = max(session_totals.get(k, 0), v)
            else:
                session_totals[k] = session_totals.get(k, 0) + v
    entries = session_totals.get("tensor.operand_entries", 0)
    arith = session_totals.get("scalar.mul.calls", 0) + session_totals.get("scalar.add.calls", 0)
    session_totals["scalar.zero_operand_ratio"] = (
        session_totals.get("scalar.zero_operand_calls", 0) / arith if arith else 0.0
    )
    session_totals["tensor.nnz_ratio"] = (
        session_totals.get("tensor.operand_nonzeros", 0) / entries if entries else 0.0
    )
    imports = []
    for _ in range(IMPORT_RUNS):
        _, proc = run_child([sys.executable, "-c", "import time; t = time.perf_counter(); "
                             "import homyb.cli; print(time.perf_counter() - t)"], ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        imports.append(float(proc.stdout.strip()))
    session_totals["cli.import_s"] = statistics.median(imports)
    session_totals["host.calib_s"] = statistics.median(clock.calibs)
    session_totals["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain)

    pass_self = {layer: phases["pass"].get(f"{layer}.self_s", 0.0) for layer in LAYERS}
    total_self = sum(pass_self.values()) or 1.0
    print("per-layer self time in one traced pass:")
    for layer, seconds in sorted(pass_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:14} {seconds:10.4f} s  {100 * seconds / total_self:5.1f}%")
    print(f"trace.overhead_s {session_totals['trace.overhead_s']:.6g} s "
          f"(traced pass {statistics.median(traced_times):.6g} s, untraced {statistics.median(plain):.6g} s)")
    for name in PER_LAYER:
        print(f"  {name:28} {session_totals.get(name, 0):.6g} {PER_LAYER[name]}")

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({"pass": spans, "cli": cli_spans}) + "\n", encoding="utf-8")

    metrics = {name: (session_totals.get(name, 0), unit) for name, unit in PER_LAYER.items()}
    detail = {
        "session": session_totals,
        "phases": phases,
        "self_share_pass": {k: v / total_self for k, v in pass_self.items()},
        "pass_s": {"traced": traced_times, "untraced": plain},
        "spans_file": str(trace_file.relative_to(ROOT)),
    }
    return metrics, detail


if __name__ == "__main__":
    raise SystemExit(main())
