"""Self-tests of the benchmark: generated inputs, the gate, the tracer, BENCHMARK.json.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import generators  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

GENERATED = [
    (workload, family, dim, skew, choice)
    for workload in ("ladder", "skewed")
    for family, dim, skew in generators.specs(workload)
    for choice in generators.choices(family, dim, skew)
]


@pytest.mark.parametrize("workload,family,dim,skew,choice", GENERATED)
def test_every_generated_input_passes_axioms(workload, family, dim, skew, choice):
    import homyb.files

    structure = homyb.files.structure_from_dict(generators.make_input(family, dim, choice, skew)["doc"])
    assert structure.dim == dim
    assert homyb.validate(structure).holds


@pytest.mark.parametrize("workload", ["ladder", "skewed"])
def test_seed_picks_choices_but_never_dimensions(workload):
    first = generators.generate(workload, 1)
    assert first == generators.generate(workload, 1)
    picked = set()
    for seed in range(40):
        inputs = generators.generate(workload, seed)
        assert [i["doc"]["dim"] for i in inputs] == [i["doc"]["dim"] for i in first]
        picked.add(json.dumps([i["choice"] for i in inputs], sort_keys=True))
    assert len(picked) > 1


@pytest.fixture(scope="module")
def catalog_pass(tmp_path_factory):
    session = workloads.setup("catalog", 0, tmp_path_factory.mktemp("catalog"))
    return session, workloads.run_pass(session)


@pytest.fixture(scope="module")
def ladder_t5(tmp_path_factory):
    session = workloads.setup("ladder", 0, tmp_path_factory.mktemp("ladder"))
    inp, structure, _ = next(item for item in session.inputs if item[0]["doc"]["name"] == "T5")
    return session, workloads.generated_suite(session, 0, inp, structure)


def test_catalog_pass_matches_expectations_and_goldens(catalog_pass):
    session, checks = catalog_pass
    assert workloads.gate(session, checks) == []
    failing = {c.name for c in checks if not c.expected}
    assert {"ex2.3 inverse-symbolic", "ex4.3 hybe", "ex2.5-verbatim axioms"} <= failing


def test_a_wrong_expected_verdict_fails_the_gate(catalog_pass, ladder_t5):
    for session, checks in (catalog_pass, ladder_t5):
        flipped = checks[0]
        flipped.expected = not flipped.expected
        try:
            failures = workloads.gate(session, checks)
        finally:
            flipped.expected = not flipped.expected
        # the check's verdict is its original expectation; the flipped one is reported
        assert failures == [f"{flipped.name}: verdict {flipped.expected}, expected {not flipped.expected}"]


def test_generated_witnesses_are_gated_against_goldens(ladder_t5):
    session, checks = ladder_t5
    assert workloads.gate(session, checks) == []
    symbolic = next(c for c in checks if c.name.endswith("inverse-symbolic"))
    assert len(symbolic.report.witnesses) == 48
    key = workloads.golden_key(symbolic.input, symbolic.name.split(" ", 1)[1])
    golden = session.goldens["ladder"][key]
    session.goldens["ladder"][key] = golden[1:]
    try:
        assert workloads.gate(session, checks) == [f"{symbolic.name}: witnesses differ from the golden list"]
    finally:
        session.goldens["ladder"][key] = golden


def test_a_raising_check_fails_the_gate(ladder_t5):
    session, checks = ladder_t5
    broken = workloads.Check("T5 broken", True, error="ValueError: boom")
    assert workloads.gate(session, [broken]) == ["T5 broken: raised ValueError: boom"]


def test_cli_gate_checks_the_verify_all_document(tmp_path):
    import io
    from contextlib import redirect_stdout

    session = workloads.open_session("catalog", 0, tmp_path)
    args = ["catalog", "verify-all", "--json", str(tmp_path / "verify-all.json")]
    with redirect_stdout(io.StringIO()):
        assert session.hb.cli.main(args) == 0
    assert workloads.cli_gate(session, args, 0, "") == []
    path = Path(args[-1])
    doc = json.loads(path.read_text())
    doc["entries"][0]["report"]["elapsed_ms"] = 12345.0  # timings are not compared
    path.write_text(json.dumps(doc))
    assert workloads.cli_gate(session, args, 0, "") == []
    doc["entries"][0]["as_expected"] = False
    path.write_text(json.dumps(doc))
    assert workloads.cli_gate(session, args, 0, "") != []
    assert workloads.cli_gate(session, args, 1, "") != []


def test_tracer_counts_and_restores(ladder_t5):
    import homyb
    import homyb.catalog
    import homyb.cli

    session, _ = ladder_t5
    inp, structure, _ = session.inputs[0]
    originals = (homyb.hybe_holds, homyb.catalog.hybe_holds, homyb.cli.hybe_holds,
                 homyb.Scalar.__mul__, homyb.Matrix.__matmul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert homyb.catalog.hybe_holds is not originals[1]
        runs = []
        for _ in range(2):
            tracer.reset()
            workloads.generated_suite(session, 0, inp, structure)
            runs.append(tracer.snapshot())
    finally:
        tracer.uninstall()
    assert (homyb.hybe_holds, homyb.catalog.hybe_holds, homyb.cli.hybe_holds,
            homyb.Scalar.__mul__, homyb.Matrix.__matmul__) == originals
    counts = [{k: v for k, v in snap.items() if isinstance(v, int)} for snap in runs]
    assert counts[0] == counts[1]
    assert counts[0]["tensor.matmul.calls"] > 0 and counts[0]["scalar.mul.calls"] > 0
    spans = tracer.span_records()
    assert all(parent < index for index, (_, _, _, parent) in enumerate(spans))


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_host_clock_scales_by_the_calibrations_around_the_work(monkeypatch):
    calibs = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run, "calibrate", lambda: next(calibs))
    clock = run.HostClock()
    # each piece is scaled by the mean of the calibrations before and after it
    assert clock.normalise(2.0) == pytest.approx(2.0 * run.REFERENCE_CALIB_S / 0.2)
    assert clock.normalise(1.0) == pytest.approx(1.0 * run.REFERENCE_CALIB_S / 0.25)
    assert clock.calibs == [0.1, 0.3, 0.2]
