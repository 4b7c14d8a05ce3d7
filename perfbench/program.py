"""The benchmark's only contact with the program: its public entry points.

In process, a request is ``scenarios.load_scenario`` then the matching
``cli.*_report`` then ``reports.render``.  Functions are looked up on their
modules at call time, so the tracer's wrappers are seen.  Out of process, a
request is one ``python -m repo_options.cli`` child with ``src`` first on
``PYTHONPATH``; the harness sets no thread-count variable for it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

#: Outcome class of each expected exit code.
OUTCOME_OF_EXIT = {0: "ok", 3: "validation", 5: "liquidity"}

OUTCOME_OF_ERROR = {"ValidationError": "validation", "LiquidityError": "liquidity"}


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repo_options`` to benchmark."""


def import_program(root: Path) -> dict[str, float]:
    """Import the package from ``root/src``; return the import split in ms.

    numpy and jsonschema are imported first, on their own, so their cost
    is separated from the package's own modules.
    """
    src = root / "src"
    if not (src / "repo_options" / "cli.py").is_file():
        raise MissingProgram(f"no src/repo_options/cli.py under {root}")
    sys.path.insert(0, str(src))
    split = {}
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import jsonschema  # noqa: F401

    t2 = time.perf_counter()
    import repo_options.cli

    t3 = time.perf_counter()
    if Path(repo_options.cli.__file__).resolve().parent != (src / "repo_options").resolve():
        raise MissingProgram(f"repo_options imported from {repo_options.cli.__file__}, not {src}")
    split["cli.import_numpy_ms"] = 1e3 * (t1 - t0)
    split["cli.import_jsonschema_ms"] = 1e3 * (t2 - t1)
    split["cli.import_own_ms"] = 1e3 * (t3 - t2)
    split["cli.import_ms"] = 1e3 * (t3 - t0)
    return split


def modules():
    import repo_options.cli as cli
    import repo_options.reference as reference
    import repo_options.reports as reports
    import repo_options.scenarios as scenarios

    return cli, scenarios, reports, reference


def build_doc(req, file: Path | None) -> dict:
    """The report document the CLI would print for ``req``; raises its typed errors."""
    cli, scenarios, _reports, reference = modules()
    if req.command == "reproduce-examples":
        return cli.reproduce_report(360, req.mc, reference.DEFAULT_MC_SEED, reference.DEFAULT_MC_N)
    scenario = scenarios.load_scenario(file)
    if req.command == "compare-bs":
        return cli.compare_bs_report(scenario, req.strikes)
    if scenario.kind == "general":
        return cli.general_report(scenario)
    if scenario.kind == "special_lender":
        return cli.special_lender_report(scenario)
    if scenario.kind == "special_relations":
        return cli.special_relations_report(scenario)
    return cli.dealer_report(scenario, strict="--no-strict" not in req.flags)


def call_inprocess(req, file: Path | None) -> tuple[str, dict | None, str | None]:
    """(outcome, document, rendered text) of one in-process request.

    Any exception is an outcome: the request fails unless it is the one
    the input was built to raise.
    """
    _cli, _scenarios, reports, _reference = modules()
    try:
        doc = build_doc(req, file)
        return "ok", doc, reports.render(doc, req.fmt)
    except Exception as exc:  # noqa: BLE001 - every error class is an outcome
        name = type(exc).__name__
        return OUTCOME_OF_ERROR.get(name, name), None, None


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment with ``root/src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict[str, str], cwd: Path, errfile) -> tuple[int, bytes, bytes, float, object]:
    """Run one child to completion; (exit code, stdout, stderr, wall s, rusage).

    The child is reaped with ``wait4`` so its own peak RSS and CPU time are
    known.  stderr goes to a file so that one pipe is read at a time.
    """
    errfile.seek(0)
    errfile.truncate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=errfile, env=env, cwd=cwd)
    with proc.stdout:
        out = proc.stdout.read()
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    errfile.seek(0)
    return proc.returncode, out, errfile.read(), wall, usage


def cli_argv(req, file: Path | None) -> list[str]:
    return [sys.executable, "-m", "repo_options.cli", *req.cli_args(file)]
