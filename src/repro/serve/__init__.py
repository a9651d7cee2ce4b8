"""Concurrent query serving over streaming pairwise analytics.

The paper's engine answers one fixed query; a deployment serves *many
clients* registering and dropping standing queries while the topology
keeps streaming.  This package is that serving layer:

* :mod:`repro.serve.session` — standing-query sessions with a
  pending/warming/live/degraded/closed lifecycle and a registry enforcing
  one session per query;
* :mod:`repro.serve.shard` — worker threads partitioning sessions by
  source group, each with a bounded inbox, all reading the one canonical
  graph the engine moves between epochs;
* :mod:`repro.serve.executor` — the pluggable backend layer:
  :class:`ProcessShardWorker` runs the same worker surface as a real OS
  process over an inherited replica of the canonical graph, with
  exit-code failure taxonomy (crashed/hung/killed);
* :mod:`repro.serve.ipc` — the primitive-only command/outcome codec the
  process backend speaks;
* :mod:`repro.serve.engine` — the sharded engine, a
  :class:`~repro.core.engine.CISGraphEngine` subclass, so the resilience
  stack (WAL, checkpoints, guard, recovery) wraps it unchanged;
* :mod:`repro.serve.admission` — token-bucket registration limits and
  reject-vs-delay load shedding with typed errors;
* :mod:`repro.serve.cache` — the read chokepoint: owner first, then a
  live family per unowned source (one solve per residency, carried
  through each commit it was read before), plus the last-known store
  degraded reads stand on;
* :mod:`repro.serve.health` — heartbeats, the shard health monitor, and
  the per-source circuit breaker;
* :mod:`repro.serve.supervision` — the :class:`Supervisor` that detects
  crashed/hung shards, resurrects them, and paces rescues through the
  breakers;
* :mod:`repro.serve.harness` — :class:`ServeHarness`, the façade wiring
  all of the above plus telemetry;
* :mod:`repro.serve.control` — the adaptive :class:`RuntimeController`
  that self-tunes shards, admission, cache and staleness against an
  :class:`SLOPolicy` after every committed epoch;
* :mod:`repro.serve.protocol` — the line-oriented script protocol behind
  ``repro serve``.

See ``docs/serving.md`` for the architecture and the backpressure and
cache-invalidation policies, ``docs/self_healing.md`` for the
supervision tree, breaker semantics and the degraded-read staleness
contract, and ``docs/adaptive_control.md`` for the feedback controller's
decision table, audit log and kill switch.
"""

from repro.serve.admission import AdmissionController, ShedPolicy, TokenBucket
from repro.serve.cache import CacheStats, ResultCache
from repro.serve.control import (
    Condition,
    ControlDecision,
    ControlSignals,
    DecisionEngine,
    RuntimeController,
    SLOPolicy,
    SLOVerdict,
)
from repro.serve.engine import ServeBatchResult, ShardedServeEngine
from repro.serve.executor import BACKENDS, ProcessShardWorker, resolve_backend
from repro.serve.harness import ReadResult, ServeHarness
from repro.serve.health import (
    BreakerState,
    CircuitBreaker,
    HealthMonitor,
    Heartbeat,
    ShardHealth,
)
from repro.serve.protocol import ScriptRunner, format_event, parse_script
from repro.serve.session import (
    AnswerEvent,
    QuerySession,
    SessionRegistry,
    SessionState,
)
from repro.serve.shard import ShardBatchOutcome, ShardWorker
from repro.serve.supervision import Supervisor, SupervisorConfig

__all__ = [
    "AdmissionController",
    "BACKENDS",
    "ProcessShardWorker",
    "resolve_backend",
    "AnswerEvent",
    "BreakerState",
    "CacheStats",
    "CircuitBreaker",
    "Condition",
    "ControlDecision",
    "ControlSignals",
    "DecisionEngine",
    "HealthMonitor",
    "Heartbeat",
    "QuerySession",
    "RuntimeController",
    "SLOPolicy",
    "SLOVerdict",
    "ReadResult",
    "ResultCache",
    "ScriptRunner",
    "ServeBatchResult",
    "ServeHarness",
    "SessionRegistry",
    "SessionState",
    "ShardBatchOutcome",
    "ShardHealth",
    "ShardWorker",
    "ShardedServeEngine",
    "ShedPolicy",
    "Supervisor",
    "SupervisorConfig",
    "TokenBucket",
    "format_event",
    "parse_script",
]
