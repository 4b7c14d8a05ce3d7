"""Golden-output check for the bundled scenarios and ``reproduce-examples --mc``.

    python3 perfbench/golden.py check [--golden FILE]   # exit 1 on a mismatch
    python3 perfbench/golden.py capture                 # rewrite golden/golden.json

``check`` runs each case as ``python -m repo_options.cli ... --format json``
and compares exit code and output leaf by leaf: every leaf of the golden
output must be equal in type and value, fields the golden output lacks are
allowed, and the first differing path is printed.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import checks
import program
from inputs import BUNDLED

ROOT = Path(__file__).resolve().parent.parent


def cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments (without ``--format json``)."""
    found = {stem: [command, f"scenarios/{stem}.json", *flags]
             for stem, command, flags, _expect in BUNDLED}
    found["reproduce_examples_mc"] = ["reproduce-examples", "--mc"]
    return found


def run_case(args: list[str], errfile) -> tuple[int, object]:
    argv = [sys.executable, "-m", "repo_options.cli", *args, "--format", "json"]
    code, out, _err, _wall, _usage = program.run_child(argv, program.child_env(ROOT), ROOT, errfile)
    return code, json.loads(out) if out else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("check", "capture"))
    parser.add_argument("--golden", type=Path, default=checks.GOLDEN_FILE)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repo_options" / "cli.py").is_file():
        print(f"error: no src/repo_options under {ROOT}", file=sys.stderr)
        return 2
    with tempfile.TemporaryFile(dir=ROOT) as errfile:
        results = {name: run_case(case, errfile) for name, case in cases().items()}
    if args.action == "capture":
        golden = {name: {"args": case, "exit_code": results[name][0], "stdout": results[name][1]}
                  for name, case in cases().items()}
        args.golden.parent.mkdir(parents=True, exist_ok=True)
        args.golden.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", "utf-8")
        print(f"captured {len(golden)} cases in {args.golden}")
        return 0
    golden = checks.load_golden(args.golden)
    failed = 0
    for name, expected in sorted(golden.items()):
        code, out = results[name]
        if code != expected["exit_code"]:
            reason = f"exit code {code}, golden {expected['exit_code']}"
        elif expected["stdout"] is None:
            reason = None if out is None else "output where the golden case has none"
        else:
            diff = checks.first_difference(expected["stdout"], out)
            reason = None if diff is None else f"differs at {diff}"
        print(f"{name}: {'ok' if reason is None else 'FAIL ' + reason}")
        failed += reason is not None
    print(f"golden: {len(golden) - failed}/{len(golden)} cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
