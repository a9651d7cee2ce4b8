#!/usr/bin/env python
"""Fixed-workload telemetry snapshot: the repo's perf-trajectory seed.

Runs a small deterministic workload (OR stand-in dataset, seed 0, two
batches, PPSP) through the software engine and the accelerator simulator
with the unified observability layer enabled, and writes the resulting
metrics document to ``BENCH_observability.json`` at the repo root.

The committed file is the baseline every future PR measures against:

* ``--check`` re-runs the workload and fails (exit 1) if the *schema* of
  the fresh document drifts from the committed one — renamed metrics,
  dropped series, changed histogram buckets.  Values are allowed to move
  (wall-clock noise; algorithmic improvements regenerate the baseline).
* without ``--check`` the file is (re)written, which is how a PR that
  intentionally changes the metric surface refreshes the baseline.

Usage::

    PYTHONPATH=src python tools/bench_snapshot.py            # regenerate
    PYTHONPATH=src python tools/bench_snapshot.py --check    # smoke check
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.bench.schema import check_baseline, write_baseline  # noqa: E402

DEFAULT_OUTPUT = os.path.join(ROOT, "BENCH_observability.json")

#: bump when the snapshot layout itself (not the metric surface) changes
SNAPSHOT_SCHEMA_VERSION = 1

WORKLOAD = {
    "dataset": "OR",
    "algorithm": "ppsp",
    "batches": 2,
    "seed": 0,
    "engines": ["cisgraph-o", "cisgraph"],
}


def run_fixed_workload() -> Dict[str, object]:
    """Run the fixed workload under telemetry; return the snapshot document."""
    from repro.algorithms import get_algorithm
    from repro.bench.datasets import (
        dataset_by_abbreviation,
        make_workload,
        pick_query_pairs,
    )
    from repro.core.engine import CISGraphEngine
    from repro.hw.accelerator import CISGraphAccelerator
    from repro.obs import Telemetry, use_telemetry

    factories = {
        "cisgraph-o": CISGraphEngine,
        "cisgraph": CISGraphAccelerator,
    }
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        spec = dataset_by_abbreviation(WORKLOAD["dataset"])
        workload = make_workload(
            spec, num_batches=WORKLOAD["batches"], seed=WORKLOAD["seed"]
        )
        query = pick_query_pairs(
            workload.initial, count=1, seed=WORKLOAD["seed"]
        )[0]
        answers = {}
        for name in WORKLOAD["engines"]:
            # initial_graph is a fresh copy per access, so engines don't
            # see each other's applied updates
            engine = factories[name](
                workload.replay.initial_graph,
                get_algorithm(WORKLOAD["algorithm"]),
                query,
            )
            engine.initialize()
            for step in workload.replay.batches():
                result = engine.on_batch(step.batch)
            answers[name] = result.answer

    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "workload": dict(WORKLOAD, scale=os.environ.get("CISGRAPH_SCALE", "small")),
        "answers": answers,
        "telemetry": telemetry.metrics_document(),
        "tracing": measure_tracing(),
        "process_telemetry": measure_process_overhead(),
    }


def measure_tracing(repeats: int = 3) -> Dict[str, object]:
    """Tracing-on vs tracing-off wall time over the same batch stream.

    Scalar keys only (the schema check compares key paths, and values are
    free to move): best-of-``repeats`` per mode plus the on/off ratio —
    the committed snapshot documents what enabling causal tracing costs
    on the fixed workload.
    """
    import time

    from repro.algorithms import get_algorithm
    from repro.bench.datasets import (
        dataset_by_abbreviation,
        make_workload,
        pick_query_pairs,
    )
    from repro.core.engine import CISGraphEngine
    from repro.obs import Telemetry

    spec = dataset_by_abbreviation(WORKLOAD["dataset"])
    workload = make_workload(
        spec, num_batches=WORKLOAD["batches"], seed=WORKLOAD["seed"]
    )
    query = pick_query_pairs(workload.initial, count=1, seed=WORKLOAD["seed"])[0]
    algorithm = get_algorithm(WORKLOAD["algorithm"])

    def run(telemetry) -> float:
        engine = CISGraphEngine(
            workload.replay.initial_graph, algorithm, query
        )
        engine.telemetry = telemetry
        engine.initialize()
        started = time.perf_counter()
        for step in workload.replay.batches():
            engine.on_batch(step.batch)
        return time.perf_counter() - started

    off = min(run(None) for _ in range(repeats))
    on = min(run(Telemetry()) for _ in range(repeats))
    return {
        "batches": WORKLOAD["batches"],
        "repeats": repeats,
        "tracing_off_best_s": off,
        "tracing_on_best_s": on,
        "on_over_off_ratio": (on / off) if off > 0 else 0.0,
    }


def measure_process_overhead(repeats: int = 3) -> Dict[str, object]:
    """Process-backend batch time with and without distributed telemetry.

    Same scalar-keys-only discipline as :func:`measure_tracing`.  With
    telemetry off the process backend spawns children with *no* agent
    (the zero-overhead contract: the child never builds a telemetry
    instance, never ships a frame, never spills a ring); with it on,
    every batch pays for the child-side span, one ``OUT_TELEMETRY``
    frame per command and the flight-ring spill file.  The committed
    ratio documents what cross-process observability costs on the fixed
    workload.
    """
    import time

    from repro.algorithms import get_algorithm
    from repro.bench.datasets import (
        dataset_by_abbreviation,
        make_workload,
        pick_query_pairs,
    )
    from repro.obs import Telemetry, use_telemetry
    from repro.serve import ServeHarness

    spec = dataset_by_abbreviation(WORKLOAD["dataset"])
    workload = make_workload(
        spec, num_batches=WORKLOAD["batches"], seed=WORKLOAD["seed"]
    )
    query = pick_query_pairs(workload.initial, count=1, seed=WORKLOAD["seed"])[0]
    algorithm = get_algorithm(WORKLOAD["algorithm"])

    def run(telemetry, directory) -> float:
        import contextlib

        scope = (
            use_telemetry(telemetry) if telemetry is not None
            else contextlib.nullcontext()
        )
        with scope:
            harness = ServeHarness.open(
                directory, workload.replay.initial_graph, algorithm, query,
                num_shards=2, backend="process",
            )
            try:
                started = time.perf_counter()
                for step in workload.replay.batches():
                    harness.submit(step.batch)
                return time.perf_counter() - started
            finally:
                harness.close()

    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-proc-") as root:
        off = min(
            run(None, os.path.join(root, f"off{i}")) for i in range(repeats)
        )
        on = min(
            run(Telemetry(), os.path.join(root, f"on{i}"))
            for i in range(repeats)
        )
    return {
        "backend": "process",
        "batches": WORKLOAD["batches"],
        "repeats": repeats,
        "telemetry_off_best_s": off,
        "telemetry_on_best_s": on,
        "on_over_off_ratio": (on / off) if off > 0 else 0.0,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline instead of rewriting it",
    )
    args = parser.parse_args(argv)

    document = run_fixed_workload()

    if args.check:
        return check_baseline(
            document,
            args.output,
            "BENCH_observability",
            "PYTHONPATH=src python tools/bench_snapshot.py",
        )
    write_baseline(document, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
