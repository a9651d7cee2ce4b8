"""Bridges from the existing instrumentation into the metrics registry.

The repo already counts things in three dialects — :class:`repro.metrics.OpCounts`
on the software engines, :class:`repro.metrics.ResilienceCounters` in the
fault-tolerance layer, and ``HwBatchStats``/:class:`repro.hw.trace.TraceRecorder`
in the simulator.  These functions translate each into registry metrics
under one naming scheme (see docs/observability.md for the catalog), so a
software run and a simulated run export in the same format.

Everything is duck-typed on ``as_dict()``/attributes so this module keeps
:mod:`repro.obs` free of imports from the rest of the package.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.obs.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry

#: classification tallies copied from ``BatchResult.stats`` into counters
CLASSIFICATION_KEYS = (
    "valuable_additions",
    "nondelayed_deletions",
    "delayed_deletions",
    "useless",
)

#: activation tallies copied from ``BatchResult.stats`` into counters
ACTIVATION_KEYS = (
    "activated_by_additions",
    "activated_by_deletions",
    "activated_by_deletions_response",
)


def record_op_counts(
    registry: MetricsRegistry, ops, engine: str, phase: str
) -> None:
    """``OpCounts`` -> ``engine_ops_total{engine,phase,op}`` counters."""
    for op, value in ops.as_dict().items():
        if value:
            registry.counter(
                "engine_ops_total", {"engine": engine, "phase": phase, "op": op}
            ).inc(value)


def record_batch_result(
    registry: MetricsRegistry,
    engine: str,
    result,
    duration: Optional[float] = None,
) -> None:
    """One ``BatchResult`` -> batch counters, tallies and latency.

    ``duration`` is the wall-clock seconds of ``on_batch`` (observed into
    ``engine_batch_seconds``); per-op work lands in ``engine_ops_total``
    split by response/post phase so registry totals reconcile exactly with
    ``BatchResult.total_ops``.
    """
    registry.counter("engine_batches_total", {"engine": engine}).inc()
    record_op_counts(registry, result.response_ops, engine, "response")
    record_op_counts(registry, result.post_ops, engine, "post")
    if duration is not None:
        registry.histogram("engine_batch_seconds", {"engine": engine}).observe(duration)
    stats: Mapping[str, float] = result.stats
    for key in CLASSIFICATION_KEYS:
        if key in stats:
            registry.counter(
                "engine_classified_total", {"engine": engine, "class": key}
            ).inc(stats[key])
    for key in ACTIVATION_KEYS:
        if key in stats:
            registry.counter(
                "engine_activations_total", {"engine": engine, "kind": key}
            ).inc(stats[key])
    registry.histogram(
        "engine_batch_relaxations",
        {"engine": engine},
        buckets=DEFAULT_COUNT_BUCKETS,
    ).observe(result.total_ops.relaxations)


def record_resilience_counters(registry: MetricsRegistry, counters) -> None:
    """``ResilienceCounters`` -> ``resilience_*`` gauges (cumulative levels).

    The source counters are cumulative already, so they map onto gauges
    set to the current level — calling this after every batch keeps the
    registry view consistent without double counting.
    """
    for name, value in counters.as_dict().items():
        registry.gauge(f"resilience_{name}").set(value)


def record_deadletters(registry: MetricsRegistry, deadletters) -> None:
    """``DeadLetterQueue`` -> per-reason quarantine gauges."""
    registry.gauge("deadletter_queued").set(len(deadletters))
    for reason, count in deadletters.summary().items():
        registry.gauge("deadletter_by_reason", {"reason": reason}).set(count)


def record_serve_state(
    registry: MetricsRegistry,
    shard_depths: Mapping[int, int],
    session_counts: Mapping[str, int],
    workers: Optional[Mapping[int, str]] = None,
) -> None:
    """Serve-layer occupancy -> per-shard depth and per-state session gauges.

    ``workers`` (shard index -> worker identity, e.g. ``shard-0``) adds a
    ``worker`` label to each depth series so the cross-process rollups
    (``telemetry summarize --by-worker``) can join queue depth against
    the ``worker``-stamped span events from the same shard.
    """
    for index, depth in shard_depths.items():
        labels = {"shard": str(index)}
        if workers is not None and index in workers:
            labels["worker"] = workers[index]
        registry.gauge("serve_queue_depth", labels).set(depth)
    for state, count in session_counts.items():
        registry.gauge("serve_sessions", {"state": state}).set(count)


def record_serve_admission(registry: MetricsRegistry, stats: Mapping) -> None:
    """``AdmissionController.stats()`` -> admission gauges.

    The controller's counts are cumulative, so (like
    :func:`record_resilience_counters`) they map onto gauges set to the
    current level — safe to call after every admission decision.
    """
    registry.gauge("serve_queue_bound").set(stats["queue_bound"])
    registry.gauge("serve_admitted_registrations").set(
        stats["admitted_registrations"]
    )
    registry.gauge("serve_admitted_batches").set(stats["admitted_batches"])
    registry.gauge("serve_admission_delays").set(stats["delays"])
    for reason, count in stats["rejections"].items():
        registry.gauge(
            "serve_admission_rejections", {"reason": reason}
        ).set(count)


def record_serve_cache(registry: MetricsRegistry, stats: Mapping) -> None:
    """``CacheStats.as_dict()`` -> ``serve_cache_*`` gauges."""
    for name, value in stats.items():
        registry.gauge(f"serve_cache_{name}").set(value)


#: breaker states encoded for the ``serve_breaker_state`` gauge
_BREAKER_STATE_CODES = {"closed": 0, "open": 1, "half-open": 2}


def record_supervision(registry: MetricsRegistry, stats: Mapping) -> None:
    """``Supervisor.stats()`` -> supervision gauges.

    Restart/resurrection/blocked/degraded-read counts are cumulative on
    the supervisor, so they map onto gauges set to the current level;
    each source's breaker exports its state (0 closed / 1 open / 2
    half-open) and trip count labelled by source.
    """
    registry.gauge("serve_supervisor_restarts").set(stats["shard_restarts"])
    registry.gauge("serve_supervisor_resurrections").set(
        stats["session_resurrections"]
    )
    registry.gauge("serve_supervisor_blocked").set(stats["blocked_rescues"])
    registry.gauge("serve_degraded_reads").set(stats["degraded_reads"])
    registry.gauge("serve_awaiting_rescue").set(stats["awaiting_rescue"])
    for source, breaker in stats["breakers"].items():
        labels = {"source": str(source)}
        registry.gauge("serve_breaker_state", labels).set(
            _BREAKER_STATE_CODES.get(breaker["state"], -1)
        )
        registry.gauge("serve_breaker_opens", labels).set(breaker["opens"])


def record_controller(registry: MetricsRegistry, stats: Mapping) -> None:
    """``RuntimeController.stats()`` -> controller health gauges.

    Decision/condition counts are cumulative on the controller, so they
    map onto gauges set to the current level (the same convention as
    :func:`record_supervision`).
    """
    registry.gauge("serve_controller_frozen").set(1 if stats["frozen"] else 0)
    registry.gauge("serve_controller_decisions").set(stats["decisions_total"])
    for condition, count in stats["conditions"].items():
        registry.gauge(
            "serve_controller_conditions", {"condition": condition}
        ).set(count)
    for knob, value in stats["knobs"].items():
        registry.gauge("serve_controller_knob", {"knob": knob}).set(value)


def record_answer_latency(
    registry: MetricsRegistry,
    session_id: str,
    latency: float,
    worker: Optional[str] = None,
) -> None:
    """One standing-query answer -> ``serve_answer_seconds{session}``.

    ``worker`` names the shard worker that produced the answer (stable
    ``shard-N`` identity on both backends), splitting answer latency per
    worker without changing the metric name.
    """
    labels = {"session": session_id}
    if worker is not None:
        labels["worker"] = worker
    registry.histogram("serve_answer_seconds", labels).observe(latency)


def record_hw_stats(registry: MetricsRegistry, stats) -> None:
    """``HwBatchStats`` -> ``hw_*`` cycle counters and occupancy gauges."""
    for attr in ("identify_cycles", "response_cycles", "total_cycles"):
        registry.counter("hw_cycles_total", {"window": attr.replace("_cycles", "")}).inc(
            getattr(stats, attr)
        )
        registry.histogram(
            "hw_batch_cycles",
            {"window": attr.replace("_cycles", "")},
            buckets=DEFAULT_COUNT_BUCKETS,
        ).observe(getattr(stats, attr))
    for attr in ("relaxations", "activations", "repairs", "promoted"):
        registry.counter("hw_work_total", {"kind": attr}).inc(getattr(stats, attr))
    registry.gauge("hw_buffer_peak").set(stats.buffer_peak)
    registry.gauge("hw_spm_hit_rate").set(stats.spm.hit_rate)
    registry.gauge("hw_dram_row_hit_rate").set(stats.dram.row_hit_rate)
    for name, prefetch in (
        ("state", stats.state_prefetch),
        ("neighbor", stats.neighbor_prefetch),
    ):
        labels = {"prefetcher": name}
        registry.counter("hw_prefetch_requests_total", labels).inc(prefetch.requests)
        registry.counter("hw_prefetch_bytes_total", labels).inc(prefetch.bytes_requested)
        registry.counter("hw_prefetch_stall_cycles_total", labels).inc(
            prefetch.stall_cycles
        )


def record_trace_recorder(registry: MetricsRegistry, tracer) -> None:
    """``TraceRecorder`` occupancy -> gauges (incl. the ``dropped`` count)."""
    registry.gauge("hw_trace_records").set(len(tracer))
    registry.gauge("hw_trace_dropped").set(tracer.dropped)
    registry.gauge("hw_trace_capacity").set(tracer.capacity)
