"""``run.py compare A.json B.json``: per-metric verdicts between two result sets.

One row per (workload, end-to-end metric): direction, both medians, the
ratio B / A (A is the base), and a verdict under that metric's bound from
``BENCHMARK.json``:

``better`` / ``worse``
    B's median differs from A's by more than the bound in that direction
    — or, when A's own runs spread wider than the bound, every run of B
    reads better (worse) than every run of A.
``same``
    within the bound.
``unresolved``
    A's run-to-run spread (interquartile distance over median) is wider
    than the bound and the runs overlap: the data cannot tell.

The exit code is non-zero when any row is ``worse`` or when a workload's
failed share of attempted operations is higher in B than in A.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List, Sequence


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 below 2 runs)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (high - low) / middle if middle else 0.0


def verdict(
    base: Sequence[float], other: Sequence[float], better: str, bound: float
) -> str:
    """Classify ``other`` against ``base`` (see the module docstring)."""
    # Work in costs (lower is better) so both directions read the same.
    sign = 1.0 if better == "lower" else -1.0
    base_cost = [sign * value for value in base]
    other_cost = [sign * value for value in other]
    base_median = statistics.median(base)
    # Positive = worse, as a share of the base median.
    change = (
        statistics.median(other_cost) - statistics.median(base_cost)
    ) / abs(base_median)
    if spread(base) > bound:
        if min(other_cost) > max(base_cost) and change > bound:
            return "worse"
        if max(other_cost) < min(base_cost):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def load_runs(path: str) -> Dict[str, List[dict]]:
    """Untraced runs of a results file, grouped by workload."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    grouped: Dict[str, List[dict]] = defaultdict(list)
    for run in record["runs"]:
        if not run["trace"]:
            grouped[run["workload"]].append(run)
    return grouped


def failed_share(runs: Sequence[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(path_a: str, path_b: str, benchmark: dict) -> int:
    """Print the comparison table; return the process exit code."""
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    status = 0
    header = (
        f"{'workload':<15} {'metric':<18} {'better':<6} {'A median':>12} "
        f"{'B median':>12} {'B/A':>7} {'bound':>6}  verdict"
    )
    print(header)
    print("-" * len(header))
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        if workload not in runs_a or workload not in runs_b:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in runs_a[workload]]
            other = [r["metrics"][name]["value"] for r in runs_b[workload]]
            outcome = verdict(base, other, metric["better"], metric["bound"])
            if outcome == "worse":
                status = 1
            base_median = statistics.median(base)
            other_median = statistics.median(other)
            print(
                f"{workload:<15} {name:<18} {metric['better']:<6} "
                f"{base_median:>12.4f} {other_median:>12.4f} "
                f"{other_median / base_median:>7.3f} {metric['bound']:>6.2f}"
                f"  {outcome}  (n={len(base)}/{len(other)}, "
                f"unit {metric['unit']}, base A)"
            )
        share_a = failed_share(runs_a[workload])
        share_b = failed_share(runs_b[workload])
        if share_b > share_a:
            status = 1
            print(
                f"{workload:<15} failed share rose: {share_a:.4%} -> "
                f"{share_b:.4%} of attempted"
            )
    return status
