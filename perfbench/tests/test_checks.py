"""Output checks: golden comparison, rendering round trips, failure counting."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import golden
import run

ROOT = Path(__file__).resolve().parents[2]


def test_first_difference_allows_new_fields_only():
    expected = {"a": 1, "b": {"c": [1.5, "x"], "d": None}}
    assert checks.first_difference(expected, {"a": 1, "b": {"c": [1.5, "x"], "d": None}, "e": 2}) is None
    assert checks.first_difference(expected, {"a": 1, "b": {"c": [1.5, "y"], "d": None}}) == "/b/c/1"
    assert checks.first_difference(expected, {"a": 1.0, "b": {"c": [1.5, "x"], "d": None}}) == "/a"
    assert checks.first_difference(expected, {"a": 1, "b": {"c": [1.5], "d": None}}) == "/b/c"
    assert checks.first_difference(expected, {"a": 1, "b": {"c": [1.5, "x"]}}) == "/b/d"
    assert checks.first_difference({"f": True}, {"f": 1}) == "/f"


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_rendering_check_catches_a_changed_value(fmt):
    from repo_options.reports import render

    doc = checks.load_golden()["general_3sigma"]["stdout"]
    text = render(doc, fmt)
    assert checks.rendering(doc, fmt, text) is None
    haircut = doc["outputs"]["quote"]["haircut"]
    show = repr if fmt != "table" else (lambda v: f"{v:.10g}")
    broken = text.replace(show(haircut), show(haircut * (1 + 1e-6)), 1)
    assert broken != text
    assert checks.rendering(doc, fmt, broken) is not None


def test_golden_check_passes_and_names_a_perturbed_leaf(capsys):
    assert golden.main(["check"]) == 0
    perturbed = ROOT / ".perfbench_work" / "test-golden.json"
    perturbed.parent.mkdir(exist_ok=True)
    data = checks.load_golden()
    data["general_3sigma"]["stdout"]["outputs"]["quote"]["haircut"] += 1e-9
    perturbed.write_text(json.dumps(data), "utf-8")
    try:
        assert golden.main(["check", "--golden", str(perturbed)]) == 1
    finally:
        perturbed.unlink()
    out = capsys.readouterr().out
    assert "general_3sigma: FAIL differs at /outputs/quote/haircut" in out
    assert "golden: 8/9 cases match" in out


def _short_run(monkeypatch=None, corrupt_every=0):
    bench = run.Run("inproc_mixed", 3, 0.4, trace=False)
    try:
        bench.setup()
        corrupted = []
        if corrupt_every:
            import repo_options.reports as reports

            original = reports.render

            def render(doc, fmt):
                text = original(doc, fmt)
                corrupted.append(len(corrupted) % corrupt_every == corrupt_every - 1)
                return text.replace("0", "9", 1) if corrupted[-1] else text

            monkeypatch.setattr(reports, "render", render)
        bench.window()
        failed, reasons, _samples = bench.check()
    finally:
        bench.close()
    return sum(bench.attempts.values()), failed, reasons, sum(corrupted)


def test_a_clean_run_has_no_failures():
    attempted, failed, reasons, _ = _short_run()
    assert attempted > 50
    assert failed == 0, reasons


def test_corrupted_outputs_count_as_failures(monkeypatch):
    attempted, failed, reasons, corrupted = _short_run(monkeypatch, corrupt_every=7)
    assert corrupted > 5
    assert failed >= corrupted
    assert 0 < failed / attempted < 1
    assert reasons


def test_benchmark_without_the_program_exits_nonzero():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "tests"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "inproc_mixed", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
