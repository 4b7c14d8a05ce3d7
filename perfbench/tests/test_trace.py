"""Tracing changes no output; a traced run reports every per-layer metric."""

import json
import shutil
import sys
from pathlib import Path

import pytest

import compare
import inputs
import program
import run
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".perfbench_work" / "test-trace"


@pytest.fixture(autouse=True, scope="module")
def _clean_work():
    yield
    shutil.rmtree(WORK, ignore_errors=True)


def _light(requests):
    """Requests without a Monte Carlo oracle, plus the oracle's rejections."""
    return [r for r in requests if not r.mc and not (r.doc and "mc" in r.doc and r.expect == "ok")]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_in_process_outputs_are_identical(workload):
    requests = inputs.generate(workload, 2)
    light = _light(requests)[:60]
    heavy = [r for r in requests if r.doc and "mc" in r.doc and r.expect == "ok"
             and r.doc["mc"]["n"] <= inputs.CHUNK][:2]
    inputs.write_inputs(requests, WORK)
    plain = [program.call_inprocess(r, r.file(ROOT, WORK)) for r in light + heavy]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [program.call_inprocess(r, r.file(ROOT, WORK)) for r in light + heavy]
    finally:
        tracer.uninstall()
    assert [(o, t) for o, _d, t in traced] == [(o, t) for o, _d, t in plain]
    assert tracer.spans and all(span[2] >= span[1] for span in tracer.spans)


def test_traced_cli_child_output_is_identical():
    requests = inputs.generate("cli_cold", 2)[:10]
    inputs.write_inputs(requests, WORK)
    env = program.child_env(ROOT)
    trace_out = WORK / "child-trace.json"
    with open(WORK / "stderr", "w+b") as errfile:
        for req in requests:
            file = req.file(ROOT, WORK)
            plain = program.run_child(program.cli_argv(req, file), env, ROOT, errfile)
            traced = program.run_child(
                [sys.executable, "-X", "importtime", str(ROOT / "perfbench" / "child.py"),
                 str(trace_out), *req.cli_args(file)], env, ROOT, errfile)
            assert traced[:2] == plain[:2], req.key
            names = {span[0] for span in json.loads(trace_out.read_text())["spans"]}
            assert {"cli.import", "cli.main"} <= names


@pytest.mark.parametrize("workload", ["inproc_mixed", "cli_cold"])
def test_traced_run_reports_every_per_layer_metric(workload):
    bench = run.Run(workload, 5, 2.0 if workload == "cli_cold" else 0.8, trace=True)
    try:
        bench.setup()
        bench.window()
        failed, reasons, _ = bench.check()
        metrics, _sources = bench.per_layer(floor_ms=1.0)
    finally:
        bench.close()
    assert failed == 0, reasons
    names = [m["name"] for m in run.benchmark_spec()["per_layer"]]
    assert sorted(metrics) == sorted(names)
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    if workload == "inproc_mixed":
        assert metrics["trace.unattributed_share"] <= 0.10
        assert metrics["scenarios.validate.calls_per_request"] > 0.9
        assert metrics["montecarlo.samples"] == 0


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.verdict(parent, [v * 1.2 for v in parent], "higher", 0.1)["verdict"] == "better"
    assert compare.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1)["verdict"] == "worse"
    assert compare.verdict(parent, list(parent), "higher", 0.1)["verdict"] == "unchanged"
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
    assert compare.verdict(parent, noisy, "higher", 0.1)["verdict"] == "unresolved"
    row = compare.verdict(parent, [v * 0.5 for v in parent], "lower", 0.1)
    assert row["verdict"] == "better" and row["win_share"] == 1.0 and row["ratio"] == pytest.approx(0.5)
