"""The layer table: which calls are boundaries, and the traced pass.

The traced pass replays the stream three times on fresh state: untraced
(the baseline), with the wrappers of
:mod:`perfbench.trace` installed, and — on ``core-repair`` and
``serve-write`` — with ``repro.obs.Telemetry`` attached and no wrappers.
Probes then time the process backend's own costs with direct calls.

Which end-to-end metric each layer metric should move, on which workload, is
written down in the README ("How they interact").
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from typing import Callable, Dict, List

from perfbench import drive, oracle, stats
from perfbench.trace import Span, Target, Tracer, self_times, write_spans
from perfbench.workloads import NUM_SHARDS, Inputs

TARGETS = (
    Target("core.engine", "repro.core.engine", "CISGraphEngine.on_batch"),
    Target("graph.net_effects", "repro.graph.batch", "net_effects"),
    Target("graph.apply", "repro.graph.dynamic", "DynamicGraph.apply_update"),
    Target("graph.build", "repro.graph.dynamic", "DynamicGraph.from_edges"),
    Target("graph.build", "repro.graph.dynamic", "DynamicGraph.copy"),
    Target("core.classify", "repro.core.classification", "classify_batch"),
    Target("incremental.add", "repro.incremental",
           "IncrementalState.process_addition"),
    Target("incremental.repair", "repro.incremental",
           "IncrementalState.process_deletion", note=int),
    Target("incremental.propagate", "repro.incremental",
           "IncrementalState.propagate"),
    Target("core.keypath", "repro.core.keypath", "KeyPathTracker.rebuild"),
    Target("algorithms.solve", "repro.algorithms.solvers", "dijkstra"),
    Target("serve.harness.submit", "repro.serve.harness", "ServeHarness.submit"),
    Target("serve.harness.read", "repro.serve.harness", "ServeHarness.read"),
    Target("serve.admission", "repro.serve.admission",
           "AdmissionController.admit_batch"),
    Target("resilience.pipeline", "repro.resilience.pipeline",
           "ResilientPipeline.run_batch"),
    Target("resilience.wal", "repro.resilience.wal", "WriteAheadLog.append"),
    Target("checkpoint.save", "repro.checkpoint", "save_checkpoint"),
    Target("serve.engine", "repro.serve.engine", "ShardedServeEngine.on_batch"),
    Target("serve.fanout", "repro.serve.shard", "ShardWorker.submit_batch"),
    Target("serve.barrier", "repro.serve.shard", "ShardWorker.wait_outcome"),
    Target("core.group", "repro.core.multiquery", "SourceGroup.process_batch"),
    Target("serve.cache.fetch", "repro.serve.cache", "ResultCache.fetch"),
    Target("serve.cache.invalidate", "repro.serve.cache", "ResultCache.on_batch"),
    Target("serve.supervise", "repro.serve.supervision", "Supervisor.review"),
)
BOUNDARIES = tuple(dict.fromkeys(target.boundary for target in TARGETS))
#: the calls the driver itself makes; everything else nests under them
ROOTS = ("core.engine", "serve.harness.submit", "serve.harness.read")

_EXTRAS = {
    # plain operations / summed time of the measured calls, nothing capped:
    # demoted from end-to-end because it does not repeat from seed to seed
    "stream.ops_per_s": "1/s",
    # the raw tail: bounded end-to-end only as a share of the set-up
    "stream.op_p90_ms": "ms",
    "core.engine.p50_ms": "ms",
    "graph.apply.us_per_update": "us",
    "core.classify.useless_share": "ratio",
    "core.classify.valuable_share": "ratio",
    "core.classify.delayed_share": "ratio",
    "incremental.repair.run_share": "ratio",
    "incremental.ops.relaxations": "count",
    "incremental.ops.state_reads": "count",
    "incremental.ops.activations": "count",
    "algorithms.solve.ms_per_call": "ms",
    "serve.harness.submit.p50_ms": "ms",
    "serve.harness.read.hit_us": "us",
    "resilience.wal.us_per_update": "us",
    "checkpoint.save.ms_per_call": "ms",
    "checkpoint.bytes": "bytes",
    "core.group.busy_s.max": "s",
    "core.group.skew": "ratio",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.solves": "count",
    "serve.cache.dropped_families": "count",
    "serve.ipc.encode_us_per_update": "us",
    "serve.ipc.decode_us_per_update": "us",
    "graph.csr.build_s": "s",
    "graph.csr.copy_s": "s",
    "resilience.recover.s": "s",
    "obs.trace_overhead_ratio": "ratio",
    "obs.telemetry_overhead_ratio": "ratio",
}
#: per-layer metric -> unit; a metric a workload never reaches reads 0
UNITS: Dict[str, str] = {}
for _boundary in BOUNDARIES:
    UNITS[f"{_boundary}.calls"] = "count"
    UNITS[f"{_boundary}.self_s"] = "s"
    UNITS[f"{_boundary}.share"] = "ratio"
UNITS.update(_EXTRAS)

#: workloads that also replay the stream with Telemetry attached
TELEMETRY_ON = ("core-repair", "serve-write")
PROBES_ON = ("serve-write",)
PROBE_REPEATS = 5


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def layer_table(spans: List[Span]) -> Dict[str, float]:
    """``B.calls`` / ``B.self_s`` / ``B.share`` for every boundary seen.

    ``self_s`` covers every call on every thread, set-up included;
    ``share`` is the driver-thread self time spent under a root call,
    divided by the summed wall of those root calls.
    """
    own = self_times(spans)
    driver = next((s.thread for s in spans if s.name in ROOTS), None)
    under_root: Dict[int, bool] = {}
    root_wall = 0.0
    table: Dict[str, float] = {}
    shares: Dict[str, float] = {}
    for span in spans:  # a parent always precedes its children
        inside = under_root.get(span.parent, False)
        if span.thread == driver and span.name in ROOTS and not inside:
            root_wall += span.end - span.start
            inside = True
        under_root[span.id] = inside
        table[f"{span.name}.calls"] = table.get(f"{span.name}.calls", 0) + 1
        table[f"{span.name}.self_s"] = (
            table.get(f"{span.name}.self_s", 0.0) + own[span.id]
        )
        if inside and span.thread == driver:
            shares[span.name] = shares.get(span.name, 0.0) + own[span.id]
    for name, value in shares.items():
        table[f"{name}.share"] = value / root_wall if root_wall else 0.0
    table["_root_wall_s"] = root_wall
    table["_self_under_roots_s"] = sum(shares.values())
    return table


def group_busy(spans: List[Span]) -> Dict[str, float]:
    """Busy seconds per shard thread inside ``SourceGroup.process_batch``."""
    busy: Dict[str, float] = {}
    for span in spans:
        if span.name == "core.group" and span.thread.startswith("serve-shard"):
            busy[span.thread] = busy.get(span.thread, 0.0) + span.end - span.start
    return busy


# ----------------------------------------------------------------------
# probes: the process backend's own costs, by direct single-threaded calls
# ----------------------------------------------------------------------
def _median_s(probe: Callable[[], float]) -> float:
    """Median of ``PROBE_REPEATS`` readings of a probe that returns seconds."""
    return statistics.median(probe() for _ in range(PROBE_REPEATS))


def _timing(call: Callable[[], object]) -> Callable[[], float]:
    """A probe reading the seconds one ``call()`` takes."""
    def probe() -> float:
        started = time.perf_counter()
        call()
        return time.perf_counter() - started
    return probe


def probes(inputs: Inputs, state_dir: str) -> Dict[str, float]:
    from repro.graph.csr import CSRGraph
    from repro.serve import ServeHarness
    from repro.serve.ipc import decode_batch, encode_batch

    batches = inputs.batches
    updates = sum(len(batch) for batch in batches)
    rows = [encode_batch(batch) for batch in batches]
    csr = CSRGraph.from_dynamic(inputs.initial)
    out = {
        "serve.ipc.encode_us_per_update": _median_s(_timing(
            lambda: [encode_batch(batch) for batch in batches])) / updates * 1e6,
        "serve.ipc.decode_us_per_update": _median_s(_timing(
            lambda: [decode_batch(row) for row in rows])) / updates * 1e6,
        "graph.csr.build_s": _median_s(_timing(
            lambda: CSRGraph.from_dynamic(inputs.initial))),
        # The copy a process child makes of the published topology at
        # bootstrap.  ``SharedCSR.publish`` / ``attach`` are not probed: they
        # write a segment outside the checkout and make ``multiprocessing``
        # start its resource-tracker process, which outlives the run.
        "graph.csr.copy_s": _median_s(_timing(csr.to_dynamic)),
    }

    # a state directory cut as far past its last checkpoint as commits get
    harness = drive.open_harness(inputs, state_dir, drive.Replay())
    try:
        every = harness.pipeline.checkpoint_every
        for batch in inputs.batches[: 2 * every - 1]:
            harness.submit(batch)
    finally:
        harness.close(final_checkpoint=False)

    def recover() -> float:
        copy = state_dir + "-copy"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(state_dir, copy)
        try:
            started = time.perf_counter()
            resumed = ServeHarness.resume(
                copy, num_shards=NUM_SHARDS, wal_sync=drive.WAL_SYNC
            )
            elapsed = time.perf_counter() - started
            resumed.close(final_checkpoint=False)
        finally:
            shutil.rmtree(copy, ignore_errors=True)
        return elapsed

    try:
        out["resilience.recover.s"] = _median_s(recover)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    return out


# ----------------------------------------------------------------------
# the traced pass
# ----------------------------------------------------------------------
def traced(inputs: Inputs, state_dir: str, out: str) -> Dict[str, object]:
    """Untraced, traced and telemetry replays, then the probes."""
    spec = inputs.spec
    expected = oracle.expected(inputs)
    plain = drive.replay(inputs, expected, state_dir)
    with Tracer() as tracer:
        tracer.install(TARGETS)
        watched = drive.replay(inputs, expected, state_dir)
    spans = tracer.spans()
    replays = [plain, watched]
    telemetry_s = 0.0
    if spec.name in TELEMETRY_ON:
        from repro.obs import Telemetry

        observed = drive.replay(
            inputs, expected, state_dir, telemetry=Telemetry()
        )
        replays.append(observed)
        telemetry_s = sum(observed.batch_s) + sum(observed.read_s)
    result = drive.verdict(replays)
    if result["failed"]:
        # as in the end-to-end pass: failures are reported, timings are not
        return {**result, "metrics": {}, "detail": {"absent": tracer.absent}}

    table = layer_table(spans)
    root_wall = table.pop("_root_wall_s")
    covered = table.pop("_self_under_roots_s")
    metrics = dict.fromkeys(UNITS, 0.0)
    metrics.update((k, v) for k, v in table.items() if k in UNITS)

    def per_call(boundary: str, scale: float) -> float:
        calls = table.get(f"{boundary}.calls", 0)
        return table.get(f"{boundary}.self_s", 0.0) / calls * scale if calls else 0.0

    counts = watched.counts
    plain_s = sum(plain.batch_s) + sum(plain.read_s)
    updates = sum(watched.batch_ops)
    classified = sum(
        counts[k] for k in ("valuable_additions", "nondelayed_deletions",
                            "delayed_deletions", "useless")
    )
    repairs = [s.note for s in spans if s.name == "incremental.repair"]
    busy = group_busy(spans)
    hits = [t for t, hit in zip(plain.read_s, plain.read_hit) if hit]
    p50_ms = statistics.median(plain.batch_s) * 1e3
    measured = plain.read_s if spec.measured == "read" else plain.batch_s
    metrics.update({
        "stream.ops_per_s": inputs.measured_ops / sum(measured),
        "stream.op_p90_ms": stats.percentile(
            measured, stats.reported_tail(len(measured))) * 1e3,
        "core.engine.p50_ms": p50_ms if spec.kind == "core" else 0.0,
        "serve.harness.submit.p50_ms": p50_ms if spec.kind == "serve" else 0.0,
        "serve.harness.read.hit_us": statistics.median(hits) * 1e6 if hits else 0.0,
        "graph.apply.us_per_update": per_call("graph.apply", 1e6),
        "algorithms.solve.ms_per_call": per_call("algorithms.solve", 1e3),
        "checkpoint.save.ms_per_call": per_call("checkpoint.save", 1e3),
        "resilience.wal.us_per_update":
            table.get("resilience.wal.self_s", 0.0) / updates * 1e6,
        "checkpoint.bytes": counts.get("checkpoint.bytes", 0),
        "core.classify.useless_share": counts["useless"] / classified,
        "core.classify.valuable_share":
            (counts["valuable_additions"] + counts["nondelayed_deletions"])
            / classified,
        "core.classify.delayed_share": counts["delayed_deletions"] / classified,
        "incremental.repair.run_share":
            sum(repairs) / len(repairs) if repairs else 0.0,
        "incremental.ops.relaxations": counts["ops.relaxations"],
        "incremental.ops.state_reads": counts["ops.state_reads"],
        "incremental.ops.activations": counts["ops.activations"],
        "core.group.busy_s.max": max(busy.values(), default=0.0),
        "core.group.skew":
            max(busy.values()) / statistics.mean(busy.values()) if busy else 0.0,
        "serve.cache.hit_ratio":
            counts["cache.hits"] / counts["cache.lookups"]
            if counts.get("cache.lookups") else 0.0,
        "serve.cache.solves": counts.get("cache.solves", 0),
        "serve.cache.dropped_families": counts.get("cache.dropped_families", 0),
        "obs.trace_overhead_ratio": root_wall / plain_s,
        "obs.telemetry_overhead_ratio": telemetry_s / plain_s,
    })
    if spec.name in PROBES_ON:
        metrics.update(probes(inputs, state_dir))

    coverage = covered / root_wall if root_wall else 0.0
    if abs(coverage - 1.0) > 0.05:
        result["failed"] += 1
        result["failures"].append(
            f"driver-thread self times cover {coverage:.3f} of the root wall"
        )
    spans_path = os.path.join(out, f"{spec.name}-seed{inputs.seed}.spans.jsonl")
    write_spans(spans_path, spans)
    result.update({
        "metrics": metrics,
        "detail": {
            "root_calls": len(plain.batch_s) + len(plain.read_s),
            "root_wall_s": root_wall,
            "self_time_coverage": coverage,
            "untraced_s": plain_s,
            "absent": tracer.absent,
            "spans": len(spans),
            "spans_file": spans_path,
            "classes_by_algorithm": watched.classes_by_algorithm,
        },
    })
    return result
