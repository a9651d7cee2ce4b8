"""The supervisor: detect, resurrect, and rate-limit serve-layer failures.

:class:`Supervisor` closes the self-healing loop around the
:class:`~repro.serve.engine.ShardedServeEngine` (see
``docs/self_healing.md`` for the full tree).  After every committed batch
the harness calls :meth:`Supervisor.review` with the epoch's
:class:`~repro.serve.engine.ServeBatchResult`, and the supervisor:

1. **respawns** every shard that produced no outcome (crashed thread or
   hang past the epoch deadline) via
   :meth:`~repro.serve.engine.ShardedServeEngine.replace_shard` — the
   replacement starts from the canonical graph, which is exactly what the
   checkpoint plus WAL tail reconstruct, so state is *re-derived*, never
   replayed from batch 0;
2. **resolves** earlier rescues: a rescued source whose sessions came back
   ``LIVE`` records a breaker success; one that degraded again records a
   failure (which re-trips a half-open breaker);
3. **counts** each new outage exactly once per source on that source's
   :class:`~repro.serve.health.CircuitBreaker`;
4. **rescues** what the breakers allow: degraded sessions are requeued
   ``DEGRADED -> PENDING`` and re-registered on the (possibly respawned)
   owning shard, re-entering the normal pending -> warming -> live
   lifecycle.  A refused rescue leaves the sessions degraded; the harness
   serves their reads from the result cache's last-known answers under
   the bounded-staleness contract.

The supervisor runs entirely on the harness thread — it owns no thread of
its own, so "supervision" costs one registry scan per batch and there is
no monitor/ingest race to reason about.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.serve.engine import ServeBatchResult, ShardedServeEngine
from repro.serve.health import (
    BreakerState,
    CircuitBreaker,
    HealthMonitor,
    ShardHealth,
)
from repro.serve.session import QuerySession, SessionRegistry, SessionState


@dataclass
class SupervisorConfig:
    """Tuning knobs for failure detection and resurrection pacing.

    ``failure_threshold`` consecutive failures of one source trip its
    breaker; ``breaker_cooldown`` seconds later the breaker offers one
    half-open trial resurrection.  ``max_staleness`` is the
    degraded-read contract: the oldest last-known answer, in epochs, the
    harness may serve while a breaker is open.
    """

    failure_threshold: int = 3
    breaker_cooldown: float = 30.0
    max_staleness: int = 8

    def validate(self) -> None:
        if self.failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if self.breaker_cooldown <= 0:
            raise ValueError("breaker_cooldown must be positive")
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be non-negative")


class Supervisor:
    """Per-batch failure review over the shard pool and session registry."""

    def __init__(
        self,
        engine: ShardedServeEngine,
        registry: SessionRegistry,
        config: Optional[SupervisorConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.engine = engine
        self.registry = registry
        self.config = config or SupervisorConfig()
        self.config.validate()
        self.clock = clock
        self.monitor = HealthMonitor(clock=clock)
        #: one breaker per source that ever failed (lazily created)
        self.breakers: Dict[int, CircuitBreaker] = {}
        #: sources with a counted outage, awaiting a successful rescue
        self._awaiting: Dict[int, str] = {}
        #: sources rescued this/last review whose outcome is unresolved
        self._pending: Set[int] = set()
        # cumulative observability counters
        self.shard_restarts = 0
        self.session_resurrections = 0
        self.blocked_rescues = 0
        self.degraded_reads = 0
        self.reviews = 0
        # engine raises at the barrier unless told a supervisor will
        # handle shard loss after the batch
        engine.tolerate_shard_failures = True

    # ------------------------------------------------------------------
    def breaker(self, source: int) -> CircuitBreaker:
        """The breaker guarding ``source``'s resurrection (lazily built)."""
        breaker = self.breakers.get(source)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.config.failure_threshold,
                cooldown=self.config.breaker_cooldown,
                clock=self.clock,
            )
            self.breakers[source] = breaker
        return breaker

    def breaker_open(self, source: int) -> bool:
        """Is ``source``'s circuit currently refusing normal service?

        True for ``OPEN`` *and* ``HALF_OPEN``: until the trial
        resurrection is confirmed live, ad-hoc reads for the source stay
        on the degraded path.
        """
        breaker = self.breakers.get(source)
        return breaker is not None and breaker.state is not BreakerState.CLOSED

    # ------------------------------------------------------------------
    def review(self, result: ServeBatchResult) -> Dict[str, int]:
        """One post-batch supervision pass; returns this pass's tallies."""
        self.reviews += 1
        tallies = {"restarted": 0, "resurrected": 0, "blocked": 0,
                   "confirmed": 0, "new_outages": 0}
        telemetry = self.engine.telemetry

        # 1. respawn shards that produced no outcome this epoch — dumping
        # a post-mortem bundle FIRST, while the dead worker's flight ring
        # still holds its final events and, crucially, while the dead
        # worker itself is still in the pool: a process worker's
        # post_mortem() harvests its on-disk flight-ring spill (the
        # child's last events survive the loss of its address space)
        # alongside exit code, last heartbeat, and pending inbox depth
        if result.failed_shards and telemetry is not None:
            telemetry.flight.dump(
                "shard-crash",
                {
                    "epoch": result.epoch,
                    "failed_shards": [
                        {"shard": index, "reason": reason}
                        for index, reason in result.failed_shards
                    ],
                    "post_mortem": [
                        self.engine.shards[index].post_mortem()
                        for index, _ in result.failed_shards
                        if 0 <= index < len(self.engine.shards)
                    ],
                },
            )
        for index, reason in result.failed_shards:
            self.engine.replace_shard(index)
            self.shard_restarts += 1
            tallies["restarted"] += 1
            if telemetry is not None:
                telemetry.point(
                    "supervisor.respawn",
                    shard=index, epoch=result.epoch, reason=reason,
                )

        # 2. one registry scan: who is degraded, who came (back) live
        degraded: Dict[int, List[QuerySession]] = {}
        reasons: Dict[int, str] = {}
        live_sources: Set[int] = set()
        for session in self.registry:
            source = session.query.source
            if session.state is SessionState.DEGRADED:
                degraded.setdefault(source, []).append(session)
                reasons.setdefault(
                    source, session.degraded_reason or "unknown failure"
                )
            elif session.state is SessionState.LIVE:
                live_sources.add(source)

        # 3. resolve earlier rescues (trial or regular) by what the scan saw
        for source in list(self._pending):
            if source in degraded:
                # the rescue itself failed: a half-open trial re-trips,
                # a closed-state retry extends the failure streak
                self._breaker_op(source, "record_failure", telemetry)
                self._pending.discard(source)
                self._awaiting[source] = reasons[source]
            elif source in live_sources:
                self._breaker_op(source, "record_success", telemetry)
                self._pending.discard(source)
                self._awaiting.pop(source, None)
                tallies["confirmed"] += 1
            # else: still warming (no batch since the requeue) — keep waiting

        # 4. count each brand-new outage once on its source's breaker
        for source in degraded:
            if source not in self._awaiting and source not in self._pending:
                self._breaker_op(source, "record_failure", telemetry)
                self._awaiting[source] = reasons[source]
                tallies["new_outages"] += 1

        # 5. rescue whatever the breakers allow
        for source in list(self._awaiting):
            if source in self._pending:
                continue  # resolved-failed above; retry next review
            sessions = [s for s in degraded.get(source, [])
                        if s.state is SessionState.DEGRADED]
            if not sessions:
                # every degraded session was closed meanwhile; outage over
                self._awaiting.pop(source)
                continue
            if not self._breaker_op(source, "allow", telemetry):
                self.blocked_rescues += 1
                tallies["blocked"] += 1
                if telemetry is not None:
                    telemetry.point(
                        "supervisor.blocked",
                        source=source, epoch=result.epoch,
                        reason=reasons.get(source)
                        or self._awaiting.get(source, "unknown"),
                    )
                continue
            shard = self.engine.shard_of(source)
            for session in sessions:
                session.transition(SessionState.PENDING)
                shard.submit_register(session, block=True)
                self.session_resurrections += 1
                tallies["resurrected"] += 1
                if telemetry is not None:
                    telemetry.point(
                        "supervisor.resurrect",
                        session=session.id, source=source,
                        shard=shard.index, epoch=result.epoch,
                    )
            self._pending.add(source)
        return tallies

    def _breaker_op(self, source: int, op: str, telemetry):
        """Run one breaker operation, emitting a point on a state change."""
        breaker = self.breaker(source)
        before = breaker.state
        outcome = getattr(breaker, op)()
        after = breaker.state
        if telemetry is not None and after is not before:
            telemetry.point(
                "supervisor.breaker",
                source=source,
                from_state=before.value,
                to_state=after.value,
                op=op,
            )
        return outcome

    # ------------------------------------------------------------------
    def health(self) -> Dict[int, ShardHealth]:
        """Point-in-time probe of the current shard pool."""
        return self.monitor.probe_all(self.engine.shards)

    def stats(self) -> Dict[str, object]:
        """Cumulative supervision summary (stats/telemetry surface)."""
        return {
            "reviews": self.reviews,
            "shard_restarts": self.shard_restarts,
            "session_resurrections": self.session_resurrections,
            "blocked_rescues": self.blocked_rescues,
            "degraded_reads": self.degraded_reads,
            "awaiting_rescue": len(self._awaiting),
            "pending_confirmation": len(self._pending),
            "breakers": {
                source: breaker.as_dict()
                for source, breaker in sorted(self.breakers.items())
            },
            "health": {
                index: verdict.value
                for index, verdict in sorted(self.health().items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"Supervisor(restarts={self.shard_restarts}, "
            f"resurrections={self.session_resurrections}, "
            f"breakers={len(self.breakers)})"
        )
