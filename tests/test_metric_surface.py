"""Metric-surface pin: every metric name, type and series label set.

Two fixed telemetry workloads, both on the OR stand-in's seed-0 stream
at ``small`` scale:

* two batches of PPSP through ``cisgraph-o`` (the software engine) and
  ``cisgraph`` (the accelerator simulator) — 17 metric names;
* a serve session: 8 standing queries on 3 shards, two extra
  registrations refused by a non-refilling rate limit, four batches and
  two read passes over the standing pairs — 44 names.

Each test asserts the whole surface as a literal, so a renamed metric,
a dropped series or a changed label fails here.  A change meant to move
the surface edits the literal in the same diff.  Values are not pinned:
wall-clock costs are measured by ``perfbench``, exact work by CI's
digest and count gates.
"""

import pytest

from repro.algorithms import get_algorithm
from repro.bench.datasets import (
    dataset_by_abbreviation,
    make_workload,
    pick_query_pairs,
)
from repro.core.engine import CISGraphEngine
from repro.errors import AdmissionError
from repro.hw.accelerator import CISGraphAccelerator
from repro.obs import Telemetry, use_telemetry
from repro.serve import ServeHarness

pytestmark = pytest.mark.telemetry

STANDING_QUERIES = 8


def surface(telemetry):
    """``{name: (type, sorted label sets)}``; a label set reads
    ``key=value,...`` and an unlabelled series ``""``."""
    return {
        name: (
            metric["type"],
            sorted(
                ",".join(f"{key}={value}" for key, value in series["labels"])
                for series in metric["series"]
            ),
        )
        for name, metric in telemetry.metrics_document()["metrics"].items()
    }


def or_stream(batches):
    # an explicit scale: the pin must not follow CISGRAPH_SCALE
    return make_workload(
        dataset_by_abbreviation("OR", scale="small"),
        num_batches=batches,
        seed=0,
    )


ENGINE_SURFACE = {
    "engine_activations_total": ("counter", [
        "engine=cisgraph-o,kind=activated_by_additions",
        "engine=cisgraph-o,kind=activated_by_deletions",
        "engine=cisgraph-o,kind=activated_by_deletions_response",
    ]),
    "engine_batch_relaxations": ("histogram", [
        "engine=cisgraph",
        "engine=cisgraph-o",
    ]),
    "engine_batch_seconds": ("histogram", [
        "engine=cisgraph",
        "engine=cisgraph-o",
    ]),
    "engine_batches_total": ("counter", [
        "engine=cisgraph",
        "engine=cisgraph-o",
    ]),
    "engine_classified_total": ("counter", [
        "class=delayed_deletions,engine=cisgraph",
        "class=delayed_deletions,engine=cisgraph-o",
        "class=nondelayed_deletions,engine=cisgraph",
        "class=nondelayed_deletions,engine=cisgraph-o",
        "class=useless,engine=cisgraph",
        "class=useless,engine=cisgraph-o",
        "class=valuable_additions,engine=cisgraph",
        "class=valuable_additions,engine=cisgraph-o",
    ]),
    "engine_ops_total": ("counter", [
        "engine=cisgraph,op=activations,phase=init",
        "engine=cisgraph,op=activations,phase=response",
        "engine=cisgraph,op=classification_checks,phase=response",
        "engine=cisgraph,op=edges_scanned,phase=init",
        "engine=cisgraph,op=heap_ops,phase=init",
        "engine=cisgraph,op=relaxations,phase=init",
        "engine=cisgraph,op=relaxations,phase=response",
        "engine=cisgraph,op=state_reads,phase=init",
        "engine=cisgraph,op=state_writes,phase=init",
        "engine=cisgraph-o,op=activations,phase=init",
        "engine=cisgraph-o,op=activations,phase=post",
        "engine=cisgraph-o,op=activations,phase=response",
        "engine=cisgraph-o,op=classification_checks,phase=response",
        "engine=cisgraph-o,op=edges_scanned,phase=init",
        "engine=cisgraph-o,op=edges_scanned,phase=post",
        "engine=cisgraph-o,op=edges_scanned,phase=response",
        "engine=cisgraph-o,op=heap_ops,phase=init",
        "engine=cisgraph-o,op=relaxations,phase=init",
        "engine=cisgraph-o,op=relaxations,phase=post",
        "engine=cisgraph-o,op=relaxations,phase=response",
        "engine=cisgraph-o,op=state_reads,phase=init",
        "engine=cisgraph-o,op=state_reads,phase=post",
        "engine=cisgraph-o,op=state_reads,phase=response",
        "engine=cisgraph-o,op=state_writes,phase=init",
        "engine=cisgraph-o,op=state_writes,phase=post",
        "engine=cisgraph-o,op=state_writes,phase=response",
        "engine=cisgraph-o,op=tag_ops,phase=post",
        "engine=cisgraph-o,op=updates_processed,phase=post",
        "engine=cisgraph-o,op=updates_processed,phase=response",
    ]),
    "hw_batch_cycles": ("histogram", [
        "window=identify",
        "window=response",
        "window=total",
    ]),
    "hw_buffer_peak": ("gauge", [""]),
    "hw_cycles_total": ("counter", [
        "window=identify",
        "window=response",
        "window=total",
    ]),
    "hw_dram_row_hit_rate": ("gauge", [""]),
    "hw_prefetch_bytes_total": ("counter", [
        "prefetcher=neighbor",
        "prefetcher=state",
    ]),
    "hw_prefetch_requests_total": ("counter", [
        "prefetcher=neighbor",
        "prefetcher=state",
    ]),
    "hw_prefetch_stall_cycles_total": ("counter", [
        "prefetcher=neighbor",
        "prefetcher=state",
    ]),
    "hw_spm_hit_rate": ("gauge", [""]),
    "hw_work_total": ("counter", [
        "kind=activations",
        "kind=promoted",
        "kind=relaxations",
        "kind=repairs",
    ]),
    "obs.events.dropped": ("counter", ["ring=events"]),
    "span_seconds": ("histogram", [
        "span=engine.batch",
        "span=engine.classify",
        "span=engine.drain",
        "span=engine.init",
        "span=engine.propagate",
        "span=engine.schedule",
    ]),
}

SERVE_SURFACE = {
    "deadletter_queued": ("gauge", [""]),
    "engine_batch_relaxations": ("histogram", ["engine=serve-sharded"]),
    "engine_batch_seconds": ("histogram", ["engine=serve-sharded"]),
    "engine_batches_total": ("counter", ["engine=serve-sharded"]),
    "engine_classified_total": ("counter", [
        "class=delayed_deletions,engine=serve-sharded",
        "class=nondelayed_deletions,engine=serve-sharded",
        "class=useless,engine=serve-sharded",
        "class=valuable_additions,engine=serve-sharded",
    ]),
    "engine_ops_total": ("counter", [
        "engine=serve-sharded,op=activations,phase=init",
        "engine=serve-sharded,op=activations,phase=post",
        "engine=serve-sharded,op=activations,phase=response",
        "engine=serve-sharded,op=classification_checks,phase=response",
        "engine=serve-sharded,op=edges_scanned,phase=init",
        "engine=serve-sharded,op=edges_scanned,phase=post",
        "engine=serve-sharded,op=edges_scanned,phase=response",
        "engine=serve-sharded,op=heap_ops,phase=init",
        "engine=serve-sharded,op=relaxations,phase=init",
        "engine=serve-sharded,op=relaxations,phase=post",
        "engine=serve-sharded,op=relaxations,phase=response",
        "engine=serve-sharded,op=state_reads,phase=init",
        "engine=serve-sharded,op=state_reads,phase=post",
        "engine=serve-sharded,op=state_reads,phase=response",
        "engine=serve-sharded,op=state_writes,phase=init",
        "engine=serve-sharded,op=state_writes,phase=post",
        "engine=serve-sharded,op=state_writes,phase=response",
        "engine=serve-sharded,op=tag_ops,phase=post",
        "engine=serve-sharded,op=updates_processed,phase=post",
        "engine=serve-sharded,op=updates_processed,phase=response",
    ]),
    "obs.events.dropped": ("counter", ["ring=events"]),
    "resilience_batches_replayed": ("gauge", [""]),
    "resilience_batches_skipped": ("gauge", [""]),
    "resilience_checkpoints_written": ("gauge", [""]),
    "resilience_guard_checks": ("gauge", [""]),
    "resilience_guard_divergences": ("gauge", [""]),
    "resilience_guard_fallbacks": ("gauge", [""]),
    "resilience_quarantined": ("gauge", [""]),
    "resilience_recoveries": ("gauge", [""]),
    "resilience_retries": ("gauge", [""]),
    "resilience_retry_giveups": ("gauge", [""]),
    "resilience_skipped_updates": ("gauge", [""]),
    "resilience_wal_corrupt_records": ("gauge", [""]),
    "resilience_wal_records_appended": ("gauge", [""]),
    "resilience_wal_records_replayed": ("gauge", [""]),
    "resilience_wal_torn_tails": ("gauge", [""]),
    "serve_admission_delays": ("gauge", [""]),
    "serve_admission_rejections": ("gauge", ["reason=rate-limited"]),
    "serve_admitted_batches": ("gauge", [""]),
    "serve_admitted_registrations": ("gauge", [""]),
    "serve_answer_seconds": ("histogram", [
        "session=s0001,worker=shard-2",
        "session=s0002,worker=shard-1",
        "session=s0003,worker=shard-0",
        "session=s0004,worker=shard-0",
        "session=s0005,worker=shard-0",
        "session=s0006,worker=shard-1",
        "session=s0007,worker=shard-2",
        "session=s0008,worker=shard-0",
    ]),
    "serve_awaiting_rescue": ("gauge", [""]),
    "serve_cache_evicted_families": ("gauge", [""]),
    "serve_cache_hit_rate": ("gauge", [""]),
    "serve_cache_hits": ("gauge", [""]),
    "serve_cache_invalidated_entries": ("gauge", [""]),
    "serve_cache_invalidated_families": ("gauge", [""]),
    "serve_cache_lookups": ("gauge", [""]),
    "serve_cache_misses": ("gauge", [""]),
    "serve_cache_owned_hits": ("gauge", [""]),
    "serve_degraded_reads": ("gauge", [""]),
    "serve_queue_bound": ("gauge", [""]),
    "serve_queue_depth": ("gauge", [
        "shard=0,worker=shard-0",
        "shard=1,worker=shard-1",
        "shard=2,worker=shard-2",
    ]),
    "serve_sessions": ("gauge", [
        "state=closed",
        "state=degraded",
        "state=live",
        "state=pending",
        "state=warming",
    ]),
    "serve_supervisor_blocked": ("gauge", [""]),
    "serve_supervisor_restarts": ("gauge", [""]),
    "serve_supervisor_resurrections": ("gauge", [""]),
    "span_seconds": ("histogram", [
        "span=engine.anchor",
        "span=engine.barrier",
        "span=engine.batch",
        "span=engine.init",
        "span=pipeline.checkpoint",
        "span=pipeline.commit",
        "span=pipeline.wal_append",
        "span=serve.cache_invalidate",
        "span=shard.batch",
    ]),
}


def test_engine_metric_surface():
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        workload = or_stream(batches=2)
        query = pick_query_pairs(workload.initial, count=1, seed=0)[0]
        for factory in (CISGraphEngine, CISGraphAccelerator):
            # initial_graph is a fresh copy per access
            engine = factory(
                workload.replay.initial_graph, get_algorithm("ppsp"), query
            )
            engine.initialize()
            for step in workload.replay.batches():
                engine.on_batch(step.batch)
    assert surface(telemetry) == ENGINE_SURFACE


@pytest.mark.serve
def test_serve_metric_surface(tmp_path):
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        workload = or_stream(batches=4)
        pairs = pick_query_pairs(
            workload.initial, count=STANDING_QUERIES + 2, seed=0
        )
        standing = pairs[:STANDING_QUERIES]
        with ServeHarness.open(
            str(tmp_path / "state"),
            workload.replay.initial_graph,
            get_algorithm("ppsp"),
            pairs[0],
            num_shards=3,
            queue_bound=16,
            # rate 0 never refills: exactly `burst` registrations pass
            registration_rate=0.0,
            registration_burst=STANDING_QUERIES,
        ) as harness:
            for query in standing:
                harness.register(query.source, query.destination)
            rejected = 0
            for query in pairs[STANDING_QUERIES:]:
                try:
                    harness.register(query.source, query.destination)
                except AdmissionError:
                    rejected += 1
            harness.wait_all_live()
            for step in workload.replay.batches():
                harness.submit(step.batch)
            # the second pass over the standing pairs is all cache hits
            for _ in range(2):
                for query in standing:
                    harness.query(query.source, query.destination)
            stats = harness.stats()

    assert rejected == 2
    assert stats["admission"]["rejections"] == {"rate-limited": 2}
    assert stats["cache"]["hit_rate"] > 0
    assert surface(telemetry) == SERVE_SURFACE
