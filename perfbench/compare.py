"""Compare two result files: one row per workload and end-to-end metric.

    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

Runs are paired in the order each file holds them per workload, so make
them alternating: parent, change, parent, change, ...  Verdicts:

* ``unresolved``: either side's interquartile spread, as a share of its
  median, exceeds the metric's bound; if every change run beats every
  parent run the verdict is ``better`` instead (``worse`` if it loses to
  every one);
* ``better``: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's
  interquartile distance;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unchanged``: anything else.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if "end_to_end" in record:
                runs[record["workload"]].append(record["end_to_end"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    worse_share = -sign * (cm - pm) / abs(pm) if pm else (1.0 if -sign * (cm - pm) > 0 else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound:
        result = "better" if all_better else "worse" if all_worse else "unresolved"
    elif pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        result = "better"
    elif worse_share > bound:
        result = "worse"
    else:
        result = "unchanged"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "ratio": cm / pm if pm else float("inf") if cm else 1.0,
        "win_share": wins / len(pairs) if pairs else 0.0,
        "verdict": result,
    }


def main(spec: dict, extra: tuple[dict, ...], parent_path: str, change_path: str) -> int:
    parent, change = load(parent_path), load(change_path)
    metrics = [*spec["end_to_end"], *extra]
    print(f"{'workload':<13} {'metric':<20} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'ratio':>7} {'wins':>5} {'verdict':>10}")
    for workload in sorted(set(parent) & set(change)):
        for m in metrics:
            p = [r[m["name"]] for r in parent[workload]]
            c = [r[m["name"]] for r in change[workload]]
            v = verdict(p, c, m["better"], m["bound"])
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"{workload:<13} {m['name']:<20} {fmt(v['parent']):>32} {fmt(v['change']):>32} "
                  f"{v['ratio']:>7.4f} {v['win_share']:>5.2f} {v['verdict']:>10}")
    print(f"(ratio = change median / parent median; {len(parent)} parent and "
          f"{len(change)} change workloads; pairs in file order)")
    return 0
