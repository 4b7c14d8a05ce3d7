"""Benchmark of the repo-options engine: three workloads, one command.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py                     # every workload, one table
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

A run builds its inputs from ``--seed``, sets up (imports the package from
``src``, writes the inputs, warms up), then sends requests in a closed loop
with one client for ``--seconds``.  Afterwards it checks every output and
prints the metrics; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer ones with ``--trace 1``).  The whole result,
with machine facts, is appended to ``--out``.

A traced run alternates untraced and traced quarters of the window; the
per-layer metrics come from the traced quarters, and the mean latency of
the same requests in both kinds of quarter gives ``trace.overhead_share``.  End-to-end metrics are only
ever taken untraced.  See README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import inputs
import program

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".perfbench_work"

#: Set-ups timed per run: this process plus this many probe children.
SETUP_PROBES = 4
#: ``python -c pass`` calls behind ``cli.python_floor_ms``.
FLOOR_CALLS = 5
#: Quarters of a traced window, untraced and traced in turn.
TRACE_SEGMENTS = (False, True, False, True)

#: End-to-end metrics printed besides the ones BENCHMARK.json gates: they
#: read 0 on some workload at this commit, and a gated metric never may.
EXTRA_E2E = (
    {"name": "mc_samples_per_s", "unit": "samples/s", "better": "higher", "bound": 0.1},
    {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0},
)

THREAD_VARS = re.compile(r"(OPENBLAS|OMP|MKL|BLIS|VECLIB|NUMEXPR|GOTO)\w*THREADS")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _importtime_ms(stderr: bytes, module: str) -> float:
    for line in stderr.decode("utf-8", "replace").splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[2].strip() == module and parts[1].strip().isdigit():
            return int(parts[1]) / 1000.0
    return 0.0


class Run:
    """One workload run: set-up, timed window, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cli = workload == "cli_cold"
        self.workdir = ROOT / WORK / f"{workload}-s{seed}-p{os.getpid()}"
        self.env = program.child_env(ROOT)
        self.tracer = None
        self.cli_children: list[dict] = []
        self.errfile = None

    # ------------------------------------------------------------ set-up

    def setup(self) -> float:
        """Import, generate, warm up; the seconds it took."""
        t0 = time.perf_counter()
        self.import_split = program.import_program(ROOT)
        self.requests = inputs.generate(self.workload, self.seed)
        inputs.write_inputs(self.requests, self.workdir)
        self.files = [req.file(ROOT, self.workdir) for req in self.requests]
        self.errfile = open(self.workdir / "child.stderr", "w+b")
        if self.trace:
            from tracing import Tracer

            self.tracer = Tracer()
            self.tracer.install()
        self.warm_up()
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer.counts.clear()
        return time.perf_counter() - t0

    def warm_up(self) -> None:
        """Every bundled scenario and reproduce-examples once, in process; one CLI child
        for ``cli_cold`` and for any traced run."""
        warm = [inputs.bundled_request(f"warm-{stem}", stem, "json") for stem, *_ in inputs.BUNDLED]
        warm.append(inputs.Request(key="warm-reproduce", command="reproduce-examples",
                                   fmt="json", expect="ok"))
        for i, req in enumerate(warm):
            if self.tracer is not None:
                self.tracer.request = -1 - i
            program.call_inprocess(req, req.file(ROOT, self.workdir))
        if self.cli or self.trace:
            req = inputs.bundled_request("warm-cli", "general_3sigma", "json")
            self.call_cli(req, req.file(ROOT, self.workdir), -100, self.trace)

    def setup_probes(self) -> list[float]:
        """Set-up time of fresh processes doing this run's set-up."""
        argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
                self.workload, "--seed", str(self.seed)]
        times = []
        for _ in range(SETUP_PROBES):
            code, out, err, _wall, _usage = program.run_child(argv, self.env, ROOT, self.errfile)
            if code != 0:
                raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')}")
            times.append(float(out.split()[-1]))
        return times

    def python_floor_ms(self) -> float:
        walls = [program.run_child([sys.executable, "-c", "pass"], self.env, ROOT, self.errfile)[3]
                 for _ in range(FLOOR_CALLS)]
        return 1e3 * statistics.median(walls)

    # ------------------------------------------------------------ requests

    def call_cli(self, req, file, rid: int, traced: bool) -> tuple[str, bytes, float, int]:
        """One CLI child: (outcome, stdout, wall s, peak RSS KiB)."""
        if traced:
            trace_out = self.workdir / "child-trace.json"
            argv = [sys.executable, "-X", "importtime", str(HERE / "child.py"), str(trace_out),
                    *req.cli_args(file)]
        else:
            argv = program.cli_argv(req, file)
        t0 = time.perf_counter_ns()
        code, out, err, wall, usage = program.run_child(argv, self.env, ROOT, self.errfile)
        if traced:
            self._merge_child(json.loads(trace_out.read_text("utf-8")), err, rid, t0,
                              t0 + int(wall * 1e9))
        return program.OUTCOME_OF_EXIT.get(code, f"exit {code}"), out, wall, usage.ru_maxrss

    def _merge_child(self, trace: dict, stderr: bytes, rid: int, t0: int, t1: int) -> None:
        tracer = self.tracer
        tracer.request = rid
        root = len(tracer.spans)
        tracer.spans.append(["request", t0, t1, -1, rid, None, None])
        offset = len(tracer.spans)
        for name, s0, s1, parent, _rid, error, extra in trace["spans"]:
            tracer.spans.append([name, s0, s1, parent + offset if parent >= 0 else root, rid,
                                 error, extra])
        for name, n in trace["counts"].items():
            tracer.counts[name] = tracer.counts.get(name, 0) + n
        imp = next(s for s in trace["spans"] if s[0] == "cli.import")
        main = [s for s in trace["spans"] if s[0] == "cli.main"]
        numpy_ms = _importtime_ms(stderr, "numpy")
        jsonschema_ms = _importtime_ms(stderr, "jsonschema")
        import_ms = (imp[2] - imp[1]) / 1e6
        self.cli_children.append({
            "window": rid >= 0,
            "import_ms": import_ms,
            "import_numpy_ms": numpy_ms,
            "import_jsonschema_ms": jsonschema_ms,
            "import_own_ms": import_ms - numpy_ms - jsonschema_ms,
            "main_ms": (main[0][2] - main[0][1]) / 1e6 if main else 0.0,
        })

    # ------------------------------------------------------------ window

    def window(self) -> None:
        """Closed loop over the request pool for ``seconds``."""
        segments = TRACE_SEGMENTS if self.trace else (False,)
        self.latencies: list[float] = []
        self.attempts: Counter = Counter()
        self.first: dict[str, tuple] = {}
        self.mismatch: Counter = Counter()
        self.window_rids: set[int] = set()
        self.segment_stats: list[tuple[bool, int, float]] = []
        self.key_wall = {False: Counter(), True: Counter()}
        self.key_calls = {False: Counter(), True: Counter()}
        self.child_rss_kib = 0
        n = len(self.requests)
        i = 0
        cpu0 = _cpu_s()
        for traced in segments:
            if traced:
                self.tracer.install()
            done = 0
            start = time.perf_counter()
            end = start + self.seconds / len(segments)
            while time.perf_counter() < end:
                req, file = self.requests[i % n], self.files[i % n]
                if self.cli:
                    outcome, text, wall, rss = self.call_cli(req, file, i, traced)
                    self.child_rss_kib = max(self.child_rss_kib, rss)
                else:
                    if traced:
                        self.tracer.request = i
                        root = self.tracer.open("request")
                    t0 = time.perf_counter()
                    outcome, doc, text = program.call_inprocess(req, file)
                    wall = time.perf_counter() - t0
                    if traced:
                        self.tracer.close(root)
                if traced:
                    self.window_rids.add(i)
                else:
                    self.latencies.append(wall)
                self.key_wall[traced][req.key] += wall
                self.key_calls[traced][req.key] += 1
                self._record(req, outcome, text, None if self.cli else doc)
                i += 1
                done += 1
            self.segment_stats.append((traced, done, time.perf_counter() - start))
            if traced:
                self.tracer.uninstall()
        self.window_cpu_s = _cpu_s() - cpu0
        self.self_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def _record(self, req, outcome: str, text, doc) -> None:
        self.attempts[req.key] += 1
        first = self.first.get(req.key)
        if first is None:
            self.first[req.key] = (outcome, text, doc)
        elif first[0] != outcome or first[1] != text:
            self.mismatch[req.key] += 1

    # ------------------------------------------------------------ checks

    def check(self) -> tuple[int, list[str], int]:
        """(failed requests, reasons, oracle samples) over the window."""
        import checks

        golden = checks.load_golden()
        by_key = {req.key: (req, file) for req, file in zip(self.requests, self.files)}
        failed = 0
        reasons = []
        samples = 0
        for key, (outcome, text, doc) in self.first.items():
            req, file = by_key[key]
            reason = None
            if self.cli:
                ref_outcome, doc, ref_text = program.call_inprocess(req, file)
                if outcome != ref_outcome:
                    reason = f"CLI outcome {outcome}, in process {ref_outcome}"
                elif outcome == "ok" and text != ref_text.encode("utf-8"):
                    reason = "CLI stdout differs from reports.render in process"
                elif outcome != "ok" and text:
                    reason = "output on a rejected request"
                text = ref_text
            if reason is None and outcome != req.expect:
                reason = f"outcome {outcome}, expected {req.expect}"
            if reason is None and outcome == "ok":
                reason = checks.check_report(req, doc, text, golden)
            if reason is not None:
                failed += self.attempts[key]
                reasons.append(f"{key}: {reason}")
            else:
                failed += self.mismatch[key]
                if self.mismatch[key]:
                    reasons.append(f"{key}: {self.mismatch[key]} outputs differ from the first")
                samples += self.attempts[key] * _oracle_samples(doc)
        return failed, reasons, samples

    # ------------------------------------------------------------ metrics

    def end_to_end(self, setup_times: list[float], samples: int) -> dict[str, float]:
        wall = sum(s[2] for s in self.segment_stats if not s[0])
        count = sum(s[1] for s in self.segment_stats if not s[0])
        lat = sorted(self.latencies)
        rss_kib = self.child_rss_kib if self.cli else self.self_rss_kib
        return {
            "setup_s": statistics.median(setup_times),
            "throughput_rps": count / wall,
            "latency_p50_ms": 1e3 * percentile(lat, 50),
            "latency_p95_ms": 1e3 * percentile(lat, 95),
            "mc_samples_per_s": samples / wall,
            "cpu_ms_per_request": 1e3 * self.window_cpu_s / sum(s[1] for s in self.segment_stats),
            "peak_rss_mb": rss_kib / 1024.0,
        }

    def per_layer(self, floor_ms: float) -> tuple[dict[str, float], dict[str, str]]:
        import layers
        import repo_options.montecarlo as montecarlo

        # Mean latency of the same requests traced and untraced, so that the
        # share does not depend on which requests fell in which quarter.
        common = set(self.key_calls[False]) & set(self.key_calls[True])
        mean = {traced: sum(self.key_wall[traced][k] / self.key_calls[traced][k] for k in common)
                for traced in (False, True)}
        spans = layers.Spans(self.tracer.spans, self.window_rids)
        metrics = layers.layer_metrics(
            spans, self.tracer.counts, len(self.window_rids), montecarlo.CHUNK_SIZE,
            self.cli_children, floor_ms, 1.0 - mean[False] / mean[True] if common else 0.0)
        return metrics, spans.sources

    def close(self) -> None:
        if self.errfile is not None:
            self.errfile.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _oracle_samples(doc) -> int:
    if doc is None:
        return 0
    if "oracle" in doc:
        return doc["oracle"]["n"]
    mc = doc["inputs"].get("mc")
    if isinstance(mc, dict) and mc.get("enabled"):
        return 3 * mc["n"]
    return 0


def facts(run: Run, floor_ms: float) -> dict:
    import repo_options.montecarlo as montecarlo

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "numpy": version("numpy"),
        "jsonschema": version("jsonschema"),
        "thread_vars": {k: v for k, v in sorted(os.environ.items()) if THREAD_VARS.fullmatch(k)},
        "cli.python_floor_ms": floor_ms,
        "seed": run.seed,
        "seconds": run.seconds,
        "montecarlo.CHUNK_SIZE": montecarlo.CHUNK_SIZE,
        "cli_launch": "python -m repo_options.cli, with src first on PYTHONPATH",
        "console_script_on_path": shutil.which("repo-options"),
        "setup_probes": SETUP_PROBES + 1,
        "loop": "closed, one client",
        "pool_size": len(run.requests),
    }


def run_workload(args) -> int:
    spec = benchmark_spec()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        setup = run.setup()
        if args.setup_probe:
            print(setup)
            return 0
        run.window()
        setup_times = [setup, *run.setup_probes()]
        floor_ms = run.python_floor_ms()
        failed, reasons, samples = run.check()
        attempted = sum(run.attempts.values())
        record = {
            "workload": run.workload,
            "trace": args.trace,
            "attempted": attempted,
            "failed": failed,
            "failures": reasons[:20],
            "facts": facts(run, floor_ms),
            "import_split_ms": run.import_split,
            "setup_times_s": setup_times,
            "segments": run.segment_stats,
        }
        if args.trace:
            metrics, sources = run.per_layer(floor_ms)
            specs = spec["per_layer"]
            record["per_layer"] = metrics
            record["per_layer_sources"] = sources
        else:
            metrics = run.end_to_end(setup_times, samples)
            metrics["failed_share"] = failed / attempted
            lat = run.latencies
            record["latency_samples"] = len(lat)
            record["beyond_p95"] = sum(1 for v in lat if 1e3 * v > metrics["latency_p95_ms"])
            specs = [*spec["end_to_end"], *EXTRA_E2E]
            record["end_to_end"] = metrics
    finally:
        run.close()
    out = Path(args.out) if args.out else ROOT / WORK / "results.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    print(f"{run.workload} seed={run.seed} trace={args.trace} attempted={attempted} failed={failed}")
    sources = record.get("per_layer_sources", {})
    for s in specs:
        note = f"  (from {sources[s['name']]})" if s["name"] in sources else ""
        print(f"  {s['name']:<42} {metrics[s['name']]:>16.6g} {s['unit']}{note}")
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in gated},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other, then one table."""
    out = ROOT / WORK / f"all-{os.getpid()}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in inputs.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(out)]
        code = os.spawnv(os.P_WAIT, sys.executable, argv)
        if code != 0:
            print(f"error: workload {workload} exited with {code}", file=sys.stderr)
            return code
    records = [json.loads(line) for line in out.read_text("utf-8").splitlines()]
    out.unlink()
    spec = benchmark_spec()
    key = "per_layer" if args.trace else "end_to_end"
    specs = spec["per_layer"] if args.trace else [*spec["end_to_end"], *EXTRA_E2E]
    print(f"{'metric':<42} {'unit':<12}" + "".join(f"{r['workload']:>16}" for r in records))
    for s in specs:
        print(f"{s['name']:<42} {s['unit']:<12}"
              + "".join(f"{r[key][s['name']]:>16.6g}" for r in records))
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}.{s['name']}": {"value": r[key][s["name"]], "unit": s["unit"]}
                    for r in records for s in specs},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS,
                        help="one workload (default: all of them, one after the other)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON-lines file the result is appended to")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two result files instead of running")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "repo_options" / "cli.py").is_file():
            raise program.MissingProgram(f"no src/repo_options/cli.py under {ROOT}")
        if args.compare:
            import compare

            return compare.main(benchmark_spec(), EXTRA_E2E, *args.compare)
        if args.seconds is None:
            args.seconds = benchmark_spec()["run_seconds"]
        return run_workload(args) if args.workload else run_all(args)
    except program.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
