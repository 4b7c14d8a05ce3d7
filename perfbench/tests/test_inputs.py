"""The generator: reproducible from the seed, with outcomes that hold at this commit."""

import sys
from collections import Counter
from pathlib import Path

import pytest

import inputs
import program

ROOT = Path(__file__).resolve().parents[2]


def _shape(requests):
    return [(r.key, r.command, r.fmt, r.expect, r.path, r.flags, r.strikes, r.mc, r.golden)
            for r in requests]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a, b = inputs.generate(workload, 7), inputs.generate(workload, 7)
    assert inputs.materialize(a) == inputs.materialize(b)
    assert _shape(a) == _shape(b)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_gives_other_inputs_with_the_same_mix(workload):
    a, b = inputs.generate(workload, 7), inputs.generate(workload, 8)
    assert inputs.materialize(a) != inputs.materialize(b)
    mix = lambda reqs: Counter((r.command, r.fmt, r.expect, r.mc) for r in reqs)  # noqa: E731
    assert mix(a) == mix(b)


@pytest.fixture(scope="module")
def workdir():
    path = ROOT / ".perfbench_work" / "test-inputs"
    yield path
    import shutil

    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_labels_hold_in_process(workload, seed, workdir):
    requests = inputs.generate(workload, seed)
    inputs.write_inputs(requests, workdir)
    for req in requests:
        # oracle documents cost up to 10M samples each; their labels are
        # exercised by the benchmark runs, the rejections are checked here
        if req.mc or (req.doc is not None and "mc" in req.doc and req.expect == "ok"):
            continue
        outcome, _doc, _text = program.call_inprocess(req, req.file(ROOT, workdir))
        assert outcome == req.expect, req.key


def test_rejections_exit_with_their_codes(workdir):
    requests = [r for w in inputs.WORKLOADS for r in inputs.generate(w, 4)[:40]
                if r.expect != "ok"]
    assert {r.expect for r in requests} == {"validation", "liquidity"}
    inputs.write_inputs(requests, workdir)
    env = program.child_env(ROOT)
    with open(workdir / "stderr", "w+b") as errfile:
        for req in requests:
            code, out, err, _wall, _usage = program.run_child(
                program.cli_argv(req, req.file(ROOT, workdir)), env, ROOT, errfile)
            assert program.OUTCOME_OF_EXIT.get(code) == req.expect, (req.key, err)
            assert out == b"", req.key
            assert err.startswith(b"error: "), req.key


def test_cli_and_in_process_agree(workdir):
    requests = inputs.generate("cli_cold", 5)[:8]
    inputs.write_inputs(requests, workdir)
    env = program.child_env(ROOT)
    with open(workdir / "stderr", "w+b") as errfile:
        for req in requests:
            file = req.file(ROOT, workdir)
            code, out, _err, _wall, _usage = program.run_child(
                program.cli_argv(req, file), env, ROOT, errfile)
            outcome, _doc, text = program.call_inprocess(req, file)
            assert program.OUTCOME_OF_EXIT[code] == outcome == req.expect
            assert out == (text or "").encode("utf-8"), req.key


def test_children_use_this_interpreter():
    req = inputs.generate("cli_cold", 0)[0]
    assert program.cli_argv(req, None)[:3] == [sys.executable, "-m", "repo_options.cli"]
    env = program.child_env(ROOT)
    assert env["PYTHONPATH"].split(":")[0] == str(ROOT / "src")
