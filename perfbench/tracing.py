"""In-memory spans around calls into each layer of the program.

The tracer replaces a function on the module where its caller looks it up
(``repo_options.cli.price_general_repo``, not ``general_repo``'s own name),
records ``(name, start_ns, end_ns, parent, request, error, extra)`` per
call, and puts the original back on ``uninstall``.  Tiny kernels that run
many times per quote are counted, not timed.  This module imports nothing
beyond ``sys`` and ``time`` so that the traced CLI child can load it before
the program without moving the program's import cost.
"""

from __future__ import annotations

import sys
import time

#: (module, attribute, span name) of each timed call site.
SPANS = (
    ("repo_options.scenarios", "load_scenario", "scenarios.load_scenario"),
    ("repo_options.cli", "load_scenario", "scenarios.load_scenario"),
    ("repo_options.scenarios", "validate_scenario_data", "scenarios.validate"),
    ("repo_options.scenarios", "build_special_relations", "special_repo.build_special_relations"),
    ("repo_options.cli", "general_report", "cli.report"),
    ("repo_options.cli", "special_lender_report", "cli.report"),
    ("repo_options.cli", "special_relations_report", "cli.report"),
    ("repo_options.cli", "dealer_report", "cli.report"),
    ("repo_options.cli", "compare_bs_report", "cli.report"),
    ("repo_options.cli", "reproduce_report", "cli.report"),
    ("repo_options.cli", "price_general_repo", "general_repo.price_general_repo"),
    ("repo_options.reference", "price_general_repo", "general_repo.price_general_repo"),
    ("repo_options.cli", "bs_haircut", "general_repo.bs_haircut"),
    ("repo_options.reference", "bs_haircut", "general_repo.bs_haircut"),
    ("repo_options.cli", "lender_rate_from_bs", "general_repo.lender_rate_from_bs"),
    ("repo_options.cli", "price_lender_fail", "special_repo.price_lender_fail"),
    ("repo_options.reference", "price_lender_fail", "special_repo.price_lender_fail"),
    ("repo_options.cli", "run_dealer_scenario", "dealer.run_dealer_scenario"),
    ("repo_options.cli", "check_liquidity", "dealer.check_liquidity"),
    ("repo_options.cli", "build_reference_rows", "reference.build_reference_rows"),
    ("repo_options.cli", "mc_sample_stats", "montecarlo.mc_sample_stats"),
    ("repo_options.reference", "mc_sample_stats", "montecarlo.mc_sample_stats"),
    ("repo_options.reports", "render", "reports.render"),
    ("repo_options.cli", "render", "reports.render"),
    ("repo_options.reports", "to_json", "reports.render_json"),
    ("repo_options.reports", "to_csv", "reports.render_csv"),
    ("repo_options.reports", "to_table", "reports.render_table"),
)

#: (module, attribute, counter name) of each counted call site.
COUNTS = (
    ("repo_options.general_repo", "censored_min_mean", "stochastic.calls"),
    ("repo_options.general_repo", "censored_min_sd", "stochastic.calls"),
    ("repo_options.special_repo", "put_payoff_mean", "stochastic.calls"),
    ("repo_options.general_repo", "bs_call", "blackscholes.calls"),
    ("repo_options.special_repo", "bs_put", "blackscholes.calls"),
)


def _extra(name: str, result) -> object:
    """What a span keeps besides its times: samples for the oracle, bytes for rendering."""
    if name == "montecarlo.mc_sample_stats":
        return result.n_samples
    if name == "reports.render":
        return len(result.encode("utf-8"))
    return None


class Tracer:
    """Spans and counters of one process; wrappers are live between install and uninstall."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.request = 0
        self.current = -1
        self._saved: list = []

    def install(self, extra_sites=()) -> None:
        for module, attr, name in (*SPANS, *extra_sites):
            self._replace(module, attr, self._span_wrapper(name, getattr(sys.modules[module], attr)))
        for module, attr, name in COUNTS:
            self._replace(module, attr, self._count_wrapper(name, getattr(sys.modules[module], attr)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _replace(self, module_name: str, attr: str, wrapper) -> None:
        module = sys.modules[module_name]
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def open(self, name: str) -> int:
        """Start a span by hand (the harness's request span); close it with ``close``."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.current, self.request, None, None])
        self.current = idx
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        self.current = span[3]

    def _span_wrapper(self, name: str, fn):
        spans = self.spans
        clock = time.perf_counter_ns
        cpu = time.process_time_ns
        timed_cpu = name == "montecarlo.mc_sample_stats"

        def wrapper(*args, **kwargs):
            parent = self.current
            idx = len(spans)
            spans.append(None)
            self.current = idx
            error = None
            result = None
            c0 = cpu() if timed_cpu else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                extra = None if error else _extra(name, result)
                if timed_cpu:
                    extra = (extra, cpu() - c0)
                spans[idx] = [name, t0, t1, parent, self.request, error, extra]
                self.current = parent

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper
