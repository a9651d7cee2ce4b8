"""Command/outcome codec for process-backed shard workers.

The process backend (:mod:`repro.serve.executor`) moves every byte
between the engine and a shard child over two ``multiprocessing`` queues.
Queues pickle whatever they are given, so nothing *forces* a wire format
— but an implicit format is exactly how rich parent-side objects
(sessions with locks, fault hooks with thread gates, telemetry handles)
leak into the channel and die at pickling time, or worse, drag
un-forkable state into the child.  This module makes the wire format
explicit and primitive:

* **commands** (parent → child) are tuples of str/int/float only —
  ``register`` carries the session *id*, never the session object;
  ``batch`` carries the effective updates as ``(kind, u, v, w)`` rows;
  ``read`` carries ``(source, destination, epoch)``;
* **outcomes** (child → parent) are tuples/dicts of the same primitives
  — heartbeats, session lifecycle events, encoded epoch outcomes, read
  replies, acks, telemetry frames and a ``fatal`` last-gasp record.

Two observability payloads cross the channel in primitive form as well:
the ingest :class:`~repro.obs.tracing.TraceContext` rides every batch
command as a ``(trace_id, parent_span_id)`` pair
(:func:`encode_context`/:func:`decode_context`), and the child's
telemetry agent ships batched span events plus metric deltas back as
``OUT_TELEMETRY`` frames (:func:`encode_telemetry_frame`/
:func:`decode_telemetry_frame`) — see ``docs/tracing.md`` for how the
parent merges them.

Every encode has a matching decode, and both ends round-trip through
this codec, so a schema change breaks loudly in one file (and in
``tests/test_serve_process.py``'s codec suite) instead of silently
desynchronising parent and child.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.batch import EdgeUpdate, UpdateBatch, UpdateKind
from repro.metrics import OpCounts
from repro.obs.tracing import TraceContext

__all__ = [
    "CMD_BATCH",
    "CMD_DIE",
    "CMD_DEREGISTER",
    "CMD_READ",
    "CMD_REGISTER",
    "CMD_STOP",
    "CMD_WEDGE",
    "OUT_ACK",
    "OUT_FATAL",
    "OUT_HEARTBEAT",
    "OUT_OUTCOME",
    "OUT_READ",
    "OUT_SESSION",
    "OUT_TELEMETRY",
    "decode_batch",
    "decode_context",
    "decode_outcome",
    "decode_telemetry_frame",
    "encode_batch",
    "encode_context",
    "encode_outcome",
    "encode_read",
    "encode_read_reply",
    "encode_telemetry_frame",
]

# command tags (parent -> child)
CMD_REGISTER = "register"
CMD_DEREGISTER = "deregister"
CMD_BATCH = "batch"
CMD_READ = "read"    # (source, destination, epoch): one owned-state lookup
CMD_WEDGE = "wedge"  # spin without heartbeating (chaos wedge fault)
CMD_DIE = "die"      # exit with a nonzero code (chaos crash fault)
CMD_STOP = "stop"

# outcome tags (child -> parent)
OUT_HEARTBEAT = "hb"
OUT_SESSION = "session"
OUT_OUTCOME = "outcome"
OUT_READ = "read"    # (value or None, the core's sealed epoch or None)
OUT_ACK = "ack"
OUT_FATAL = "fatal"
OUT_TELEMETRY = "telemetry"


# ----------------------------------------------------------------------
# trace contexts
# ----------------------------------------------------------------------
def encode_context(
    context: Optional[TraceContext],
) -> Optional[Tuple[str, Optional[int]]]:
    """The ingest trace context as a wire pair (None stays None)."""
    if context is None:
        return None
    return (context.trace_id, context.parent_span_id)


def decode_context(
    wire: Optional[Tuple[str, Optional[int]]],
) -> Optional[TraceContext]:
    """Rebuild the :class:`TraceContext` a batch command carried."""
    if wire is None:
        return None
    trace_id, parent_span_id = wire
    return TraceContext(
        trace_id=str(trace_id),
        parent_span_id=None if parent_span_id is None else int(parent_span_id),
    )


# ----------------------------------------------------------------------
# telemetry frames
# ----------------------------------------------------------------------
def encode_telemetry_frame(
    worker: int,
    pid: int,
    skew: float,
    events: Sequence[Dict[str, object]],
    counters: Sequence[Tuple[str, Sequence[Tuple[str, str]], float]],
    gauges: Sequence[Tuple[str, Sequence[Tuple[str, str]], float]],
    dropped: int,
) -> Dict[str, object]:
    """One child-telemetry frame as a primitive dict.

    ``events`` are :meth:`~repro.obs.events.Event.as_dict` payloads;
    ``counters`` carry *deltas* since the previous frame and ``gauges``
    carry current levels, each as ``(name, label_pairs, value)`` rows.
    ``skew`` is the child's ``time.time() - time.perf_counter()`` so the
    parent can shift event timestamps into its own clock domain;
    ``dropped`` is the cumulative count of events the bounded frame
    buffer shed (telemetry backpressure must never stall batch work).
    """
    return {
        "worker": int(worker),
        "pid": int(pid),
        "skew": float(skew),
        "events": [dict(event) for event in events],
        "counters": [
            [str(name), [[str(k), str(v)] for k, v in labels], float(value)]
            for name, labels, value in counters
        ],
        "gauges": [
            [str(name), [[str(k), str(v)] for k, v in labels], float(value)]
            for name, labels, value in gauges
        ],
        "dropped": int(dropped),
    }


def decode_telemetry_frame(data: Dict[str, object]) -> Dict[str, object]:
    """Normalise a telemetry frame on the parent side (types re-asserted)."""
    return {
        "worker": int(data["worker"]),
        "pid": int(data["pid"]),
        "skew": float(data["skew"]),
        "events": [dict(event) for event in data["events"]],
        "counters": [
            (str(name), [(str(k), str(v)) for k, v in labels], float(value))
            for name, labels, value in data["counters"]
        ],
        "gauges": [
            (str(name), [(str(k), str(v)) for k, v in labels], float(value))
            for name, labels, value in data["gauges"]
        ],
        "dropped": int(data["dropped"]),
    }


# ----------------------------------------------------------------------
# batches
# ----------------------------------------------------------------------
def encode_batch(batch: UpdateBatch) -> List[Tuple[str, int, int, float]]:
    """Flatten a batch to ``(kind, u, v, w)`` rows (the per-epoch delta)."""
    return [
        (update.kind.value, update.u, update.v, float(update.weight))
        for update in batch
    ]


def decode_batch(rows: List[Tuple[str, int, int, float]]) -> UpdateBatch:
    """Rebuild the effective batch on the child side."""
    return UpdateBatch([
        EdgeUpdate(UpdateKind(kind), u, v, w) for kind, u, v, w in rows
    ])


# ----------------------------------------------------------------------
# owned-state reads
# ----------------------------------------------------------------------
def encode_read(source: int, destination: int, epoch: int) -> Tuple:
    """The ``CMD_READ`` command: which pair, exact for which epoch."""
    return (CMD_READ, int(source), int(destination), int(epoch))


def encode_read_reply(
    value: Optional[float], sealed_epoch: Optional[int]
) -> Tuple:
    """The ``OUT_READ`` reply; ``value`` is None unless the child's core
    owns the source and is sealed at the epoch asked for."""
    return (
        OUT_READ,
        None if value is None else float(value),
        None if sealed_epoch is None else int(sealed_epoch),
    )


# ----------------------------------------------------------------------
# epoch outcomes
# ----------------------------------------------------------------------
def encode_outcome(outcome) -> Dict[str, object]:
    """Flatten a :class:`~repro.serve.shard.ShardBatchOutcome` to a dict.

    Answer keys become ``[source, destination, value]`` rows because
    tuple dict keys do not survive a JSON detour (flight bundles embed
    these dicts verbatim).
    """
    return {
        "epoch": outcome.epoch,
        "shard": outcome.shard,
        "answers": [
            [source, destination, value]
            for (source, destination), value in outcome.answers.items()
        ],
        "response_ops": dataclasses.asdict(outcome.response_ops),
        "post_ops": dataclasses.asdict(outcome.post_ops),
        "stats": dict(outcome.stats),
        "degraded": [[source, reason] for source, reason in outcome.degraded],
    }


def decode_outcome(data: Dict[str, object]):
    """Rebuild the outcome on the parent side."""
    from repro.serve.shard import ShardBatchOutcome

    return ShardBatchOutcome(
        epoch=int(data["epoch"]),
        shard=int(data["shard"]),
        answers={
            (int(source), int(destination)): float(value)
            for source, destination, value in data["answers"]
        },
        response_ops=OpCounts(**data["response_ops"]),
        post_ops=OpCounts(**data["post_ops"]),
        stats={str(k): int(v) for k, v in data["stats"].items()},
        degraded=[(int(source), str(reason))
                  for source, reason in data["degraded"]],
    )
