"""Per-layer metrics from the spans of a traced run.

Self time is a span's duration minus the durations of its direct children.
Times are means per call over the traced part of the timed window.  A layer
that the workload's window never calls (``montecarlo`` on ``inproc_mixed``,
``dealer`` on ``oracle_mc``) takes its times from the traced set-up calls
instead, so every metric is a measured number; ``sources`` names those.
Counts and per-request ratios always come from the window alone.
"""

from __future__ import annotations

import math
from collections import defaultdict


class Spans:
    """Spans split into window and set-up phases, with self times."""

    def __init__(self, spans: list, window_requests: set[int]):
        child_time = defaultdict(int)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        self.by_name: dict[tuple[str, bool], list] = defaultdict(list)
        for idx, (name, t0, t1, _parent, request, error, extra) in enumerate(spans):
            in_window = request in window_requests
            self.by_name[(name, in_window)].append((t1 - t0, t1 - t0 - child_time[idx], error, extra))
        self.sources: dict[str, str] = {}

    def window(self, name: str) -> list:
        return self.by_name[(name, True)]

    def timed(self, metric: str, name: str) -> list:
        """Window spans of ``name``, or the set-up ones when the window has none."""
        found = self.window(name)
        if found:
            return found
        self.sources[metric] = "setup"
        return self.by_name[(name, False)]


def _mean(values, scale: float) -> float:
    values = list(values)
    return scale * sum(values) / len(values) if values else 0.0


def layer_metrics(spans: Spans, counts: dict[str, int], requests: int, chunk_size: int,
                  cli_children: list[dict], floor_ms: float, overhead_share: float) -> dict[str, float]:
    m: dict[str, float] = {}
    us, ms = 1e-3, 1e-6

    def mean_time(metric: str, name: str, scale: float, *, self_time=False) -> None:
        found = spans.timed(metric, name)
        if name == "scenarios.validate":
            found = [s for s in found if s[2] is None]
        m[metric] = _mean((s[1] if self_time else s[0] for s in found), scale)

    m["cli.python_floor_ms"] = floor_ms
    children = [c for c in cli_children if c["window"]] or cli_children
    if not any(c["window"] for c in cli_children):
        for name in ("cli.import_ms", "cli.import_numpy_ms", "cli.import_jsonschema_ms",
                     "cli.import_own_ms", "cli.main_ms"):
            spans.sources[name] = "setup"
    for key in ("import_ms", "import_numpy_ms", "import_jsonschema_ms", "import_own_ms", "main_ms"):
        m[f"cli.{key}"] = _mean((c[key] for c in children), 1.0)

    mean_time("scenarios.load_scenario.us", "scenarios.load_scenario", us)
    mean_time("scenarios.validate.us", "scenarios.validate", us)
    m["scenarios.validate.calls_per_request"] = len(spans.window("scenarios.validate")) / requests
    rejected = [s for s in spans.window("scenarios.load_scenario") if s[2] == "ValidationError"]
    m["scenarios.reject.us"] = _mean((s[0] for s in rejected), us)
    m["scenarios.rejected.count"] = len(rejected)

    mean_time("general_repo.price_general_repo.us", "general_repo.price_general_repo", us)
    mean_time("general_repo.bs_haircut.us", "general_repo.bs_haircut", us)
    mean_time("special_repo.price_lender_fail.us", "special_repo.price_lender_fail", us)
    mean_time("special_repo.build_special_relations.us", "special_repo.build_special_relations", us)
    quotes = (len(spans.window("general_repo.price_general_repo"))
              + len(spans.window("special_repo.price_lender_fail")))
    m["stochastic.calls_per_quote"] = counts.get("stochastic.calls", 0) / max(quotes, 1)
    m["blackscholes.calls_per_quote"] = counts.get("blackscholes.calls", 0) / max(quotes, 1)
    mean_time("cli.report.self_us", "cli.report", us, self_time=True)

    mean_time("dealer.run_dealer_scenario.us", "dealer.run_dealer_scenario", us)
    mean_time("dealer.check_liquidity.us", "dealer.check_liquidity", us)
    m["dealer.refusals.count"] = sum(
        1 for s in spans.window("dealer.run_dealer_scenario") if s[2] == "LiquidityError")

    for fmt in ("json", "csv", "table"):
        mean_time(f"reports.render_{fmt}.us", f"reports.render_{fmt}", us)
    m["reports.bytes_per_request"] = sum(
        s[3] for s in spans.window("reports.render") if s[3] is not None) / requests

    oracle = [s for s in spans.timed("montecarlo.ns_per_sample", "montecarlo.mc_sample_stats")
              if s[3][0] is not None]
    wall = sum(s[0] for s in oracle)
    samples = sum(s[3][0] for s in oracle)
    m["montecarlo.ns_per_sample"] = wall / samples if samples else 0.0
    if "montecarlo.ns_per_sample" in spans.sources:
        spans.sources["montecarlo.cpu_per_wall"] = "setup"
    m["montecarlo.cpu_per_wall"] = sum(s[3][1] for s in oracle) / wall if wall else 0.0
    window_samples = [s[3][0] for s in spans.window("montecarlo.mc_sample_stats") if s[3][0]]
    m["montecarlo.samples"] = sum(window_samples)
    m["montecarlo.chunks"] = sum(math.ceil(n / chunk_size) for n in window_samples)

    mean_time("reference.build_reference_rows.self_ms", "reference.build_reference_rows", ms,
              self_time=True)

    roots = spans.window("request")
    total = sum(s[0] for s in roots)
    m["trace.overhead_share"] = overhead_share
    m["trace.unattributed_share"] = sum(s[1] for s in roots) / total if total else 0.0
    return m
