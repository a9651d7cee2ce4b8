"""``python -m perfbench compare A B``: do two sets of runs agree?

Each directory holds the result files of one or more runs.  Timings are
compared as medians against the bound ``BENCHMARK.json`` fixes; a metric
whose own spread is wider than its bound is ``unresolved``, never ``same``.
The numbers every run prints but no bound holds (the raw ``op_p90_ms`` and
``op_p50_ms``, and the plain throughput ``ops_per_s``) are listed beside
them without a verdict.  Digests, counts and the per-layer metrics that are
counts must be identical in every run of the same workload and seed.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List, Tuple

from perfbench import ROOT, layers, stats
from perfbench.run import UNBOUNDED

#: per-layer ratios that are quotients of exact counts
EXACT_RATIOS = (
    "core.classify.useless_share",
    "core.classify.valuable_share",
    "core.classify.delayed_share",
    "incremental.repair.run_share",
    "serve.cache.hit_ratio",
)
EXACT_FIELDS = ("input_digest", "answers_digest", "opcounts_digest", "counts")


def load(directory: str) -> List[dict]:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            run = json.load(handle)
        if "workload" in run and "metrics" in run:
            run["_path"] = path
            runs.append(run)
    if not runs:
        raise SystemExit(f"perfbench compare: no result files in {directory}")
    return runs


def end_to_end_spec() -> Dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m for m in json.load(handle)["end_to_end"]}


def worse_by(a: List[float], b: List[float], better: str) -> float:
    """How much worse B's median is than A's, as a share of A's."""
    median_a, median_b = stats.quartiles(a)[1], stats.quartiles(b)[1]
    worse = (median_b - median_a) / median_a
    return -worse if better == "higher" else worse


def verdict(a: List[float], b: List[float], better: str, bound: float
            ) -> Tuple[float, str]:
    """(``worse_by``; same / differs / unresolved against ``bound``)."""
    worse = worse_by(a, b, better)
    if stats.spread(a) > bound or stats.spread(b) > bound:
        return worse, "unresolved"
    return worse, "differs" if abs(worse) > bound else "same"


def _quartiles(values: List[float]) -> str:
    return "/".join(f"{x:.5g}" for x in stats.quartiles(values))


def exact_view(run: dict) -> dict:
    """The part of a run that must repeat exactly."""
    view = {name: run.get(name) for name in EXACT_FIELDS}
    if run["trace"]:
        view["attempted"] = run["attempted"]
        view["layer_counts"] = {
            name: value for name, value in run["metrics"].items()
            if layers.UNITS.get(name) in ("count", "bytes")
            or name in EXACT_RATIOS
        }
    return view


def main(dir_a: str, dir_b: str) -> int:
    runs_a, runs_b = load(dir_a), load(dir_b)
    spec = end_to_end_spec()
    differs = 0

    print(f"A = {dir_a} ({len(runs_a)} runs)   B = {dir_b} ({len(runs_b)} runs)")
    header = (f"{'workload':<14} {'metric':<16} {'A q1/median/q3':<32} "
              f"{'B q1/median/q3':<32} {'B worse by':>10} {'bound':>6}  verdict")
    print(header)
    workloads = sorted({r["workload"] for r in runs_a if not r["trace"]})
    for workload in workloads:
        # a run with a failed operation carries no timings: it has no row
        side_a, side_b = (
            [r for r in runs if r["workload"] == workload and not r["trace"]
             and r["metrics"]]
            for runs in (runs_a, runs_b)
        )
        if not side_a or not side_b:
            continue
        for name, metric in spec.items():
            a = [r["metrics"][name] for r in side_a]
            b = [r["metrics"][name] for r in side_b]
            worse, word = verdict(a, b, metric["better"], metric["bound"])
            differs += word == "differs"
            print(f"{workload:<14} {name:<16} {_quartiles(a):<32} "
                  f"{_quartiles(b):<32} "
                  f"{worse:>+10.2%} {metric['bound']:>6.0%}  {word}")
        for name, (_, better) in UNBOUNDED.items():
            a = [r["detail"][name] for r in side_a]
            b = [r["detail"][name] for r in side_b]
            print(f"{workload:<14} {name:<16} {_quartiles(a):<32} "
                  f"{_quartiles(b):<32} {worse_by(a, b, better):>+10.2%} "
                  f"{'-':>6}  (no bound)")

    # exact fields: every run of one (workload, seed, mode) must agree
    groups: Dict[tuple, List[dict]] = {}
    for run in runs_a + runs_b:
        key = (run["workload"], run["seed"], run["quick"], run["trace"])
        groups.setdefault(key, []).append(run)
    mismatches = 0
    compared = 0
    for key, runs in sorted(groups.items()):
        first = exact_view(runs[0])
        for run in runs[1:]:
            compared += 1
            view = exact_view(run)
            for name in first:
                if view[name] != first[name]:
                    mismatches += 1
                    print(f"EXACT MISMATCH {key} {name}: "
                          f"{runs[0]['_path']} vs {run['_path']}")
    print(f"exact fields: {compared} run pairs compared, "
          f"{mismatches} mismatches")
    failed = sum(r["failed"] for r in runs_a + runs_b)
    if failed:
        print(f"ops_failed: {failed} across the runs compared")
    return 1 if differs or mismatches or failed else 0
