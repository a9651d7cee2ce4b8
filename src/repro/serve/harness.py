"""The serving harness: sessions + shards + admission + cache + durability.

:class:`ServeHarness` is the one object a serving deployment holds.  It
owns the :class:`~repro.serve.session.SessionRegistry`, routes
registrations to the :class:`~repro.serve.engine.ShardedServeEngine`'s
workers behind the :class:`~repro.serve.admission.AdmissionController`,
pushes every committed batch through a WAL-backed
:class:`~repro.resilience.pipeline.ResilientPipeline` (so a crash mid-serve
is recoverable with :meth:`ServeHarness.resume`), fans per-batch answers
out to live sessions, and serves ad-hoc reads — breaker first, then
:meth:`ResultCache.fetch <repro.serve.cache.ResultCache.fetch>`, which
asks the engine for the source's owner before it touches its own
families — each stamped with the epoch it is exact for (the read
contract, ``docs/serving.md``).

Threading contract: the harness itself is driven from one caller thread
(registrations, batches, reads); the shard workers are the only other
threads and communicate exclusively through their bounded inboxes and
epoch outcomes.  Telemetry, when ambient or passed in, records queue
depths, session states, admission rejections, cache effectiveness and a
per-session answer-latency histogram (``serve_answer_seconds``).
"""

from __future__ import annotations

import contextlib
import queue
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.algorithms.base import MonotonicAlgorithm
from repro.core.classification import KeyPathRule
from repro.errors import (
    ProvenanceMissError,
    QueryError,
    QueueSaturatedError,
    SessionClosedError,
    SessionNotFoundError,
)
from repro.graph.batch import EdgeUpdate, UpdateBatch
from repro.graph.dynamic import DynamicGraph
from repro.metrics import ResilienceCounters
from repro.obs.bridge import (
    record_answer_latency,
    record_controller,
    record_serve_admission,
    record_serve_cache,
    record_serve_state,
    record_supervision,
)
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.telemetry import Telemetry
from repro.query import PairwiseQuery
from repro.resilience.pipeline import ResilientPipeline
from repro.resilience.recovery import RecoveryManager, RecoveryResult
from repro.serve.admission import AdmissionController, ShedPolicy
from repro.serve.cache import ResultCache
from repro.serve.engine import ServeBatchResult, ShardedServeEngine
from repro.serve.session import (
    AnswerEvent,
    QuerySession,
    SessionRegistry,
    SessionState,
)
from repro.serve.supervision import Supervisor, SupervisorConfig


@dataclass(frozen=True)
class ReadResult:
    """One ad-hoc read with its freshness contract.

    ``degraded`` is True when the source's circuit was not closed — the
    answer came from the last-known store (``stale_epochs`` committed
    batches old; 0 means current-epoch) or, with nothing fresh enough
    remembered, from the result cache (exact) with the flag still set so
    clients know the serving path for this source is unhealthy.
    ``epoch`` is the engine epoch ``value`` is exact for: the last
    committed one, minus ``stale_epochs`` for a last-known answer (the
    read contract, ``docs/serving.md``).
    """

    value: float
    degraded: bool = False
    stale_epochs: int = 0
    epoch: int = 0


class ServeHarness:
    """A live query-serving deployment over one streaming graph.

    Build with :meth:`open` (fresh) or :meth:`resume` (after a crash);
    register standing queries with :meth:`register`, stream updates with
    :meth:`submit`, read ad hoc with :meth:`query`, and :meth:`close` when
    done (also usable as a context manager).
    """

    def __init__(
        self,
        pipeline: ResilientPipeline,
        engine: ShardedServeEngine,
        admission: AdmissionController,
        registry: SessionRegistry,
        cache: ResultCache,
        supervisor: Supervisor,
        recovered: Optional[RecoveryResult] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.pipeline = pipeline
        self.engine = engine
        self.admission = admission
        self.sessions = registry
        self.cache = cache
        self.supervisor = supervisor
        #: the serving clock (shared with admission/supervision/engine);
        #: injectable so drivers like repro.bench.traffic can run the whole
        #: deployment on a virtual timeline
        self.clock = clock
        #: recovery report when this harness was built by :meth:`resume`
        self.recovered = recovered
        self.telemetry: Optional[Telemetry] = pipeline.telemetry
        #: contribution-provenance store (shared with the engine; None
        #: only when explicitly disabled at construction)
        self.provenance: Optional[ProvenanceRecorder] = engine.provenance
        self.batches_served = 0
        #: adaptive controller, attached via :meth:`attach_controller`
        self.controller = None
        #: stale reads served over the lifetime of this harness
        self.stale_reads_served = 0
        #: max staleness age served since the last controller review
        self._staleness_high = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: str,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        anchor: PairwiseQuery,
        num_shards: int = 2,
        rule: KeyPathRule = KeyPathRule.PRECISE,
        queue_bound: int = 64,
        policy: ShedPolicy = ShedPolicy.REJECT,
        registration_rate: float = 64.0,
        registration_burst: float = 32.0,
        dedupe: bool = False,
        clock: Callable[[], float] = time.monotonic,
        fault_hook=None,
        epoch_deadline: float = 30.0,
        supervision: Optional[SupervisorConfig] = None,
        provenance: Optional[ProvenanceRecorder] = None,
        backend: str = "thread",
        _recovered: Optional[RecoveryResult] = None,
        **pipeline_kwargs,
    ) -> "ServeHarness":
        """Start serving on a fresh state directory.

        ``anchor`` is the query whose state anchors checkpoints and the
        differential guard; ``supervision`` tunes failure detection and
        resurrection pacing (defaults to :class:`SupervisorConfig`);
        ``provenance`` overrides the default
        :class:`~repro.obs.provenance.ProvenanceRecorder` backing
        :meth:`explain`; ``backend`` picks the shard executor
        (``"thread"`` default, ``"process"`` for real OS processes, each
        inheriting the canonical graph — see
        ``docs/process_shards.md``); ``pipeline_kwargs`` pass through to
        :class:`~repro.resilience.pipeline.ResilientPipeline` (e.g.
        ``checkpoint_every``, ``guard_every``, ``wal_sync``,
        ``write_hook``, ``telemetry``).  ``_recovered`` is internal to
        :meth:`resume`: the engine adopts the recovered anchor state
        instead of solving it, and the pipeline continues the recovered
        snapshot sequence.
        """
        engine = ShardedServeEngine(
            graph,
            algorithm,
            anchor,
            num_shards=num_shards,
            rule=rule,
            queue_bound=queue_bound,
            fault_hook=fault_hook,
            epoch_deadline=epoch_deadline,
            clock=clock,
            provenance=provenance if provenance is not None
            else ProvenanceRecorder(),
            backend=backend,
        )
        if _recovered is None:
            engine.initialize()
        else:
            state = _recovered.engine.state
            engine.adopt_state(state.states, state.parents)
            pipeline_kwargs.update(
                start_snapshot=_recovered.snapshot_id, checkpoint_now=False
            )
        pipeline = ResilientPipeline.wrap(directory, engine, **pipeline_kwargs)
        admission = AdmissionController(
            policy=policy,
            queue_bound=queue_bound,
            registration_rate=registration_rate,
            registration_burst=registration_burst,
            clock=clock,
        )
        registry = SessionRegistry(dedupe=dedupe)
        cache = ResultCache(engine.graph, engine.algorithm, engine.lookup)
        # the supervisor flips the engine into tolerant mode: shard loss
        # degrades and resurrects instead of raising out of submit()
        supervisor = Supervisor(engine, registry, config=supervision,
                                clock=clock)
        return cls(pipeline, engine, admission, registry, cache, supervisor,
                   recovered=_recovered, clock=clock)

    @classmethod
    def resume(
        cls,
        directory: str,
        algorithm: Optional[MonotonicAlgorithm] = None,
        on_corrupt: str = "quarantine",
        **options,
    ) -> "ServeHarness":
        """Recover a crashed serving session from its state directory.

        Checkpoint restore + WAL tail replay rebuild the canonical
        topology and the anchor's converged state; shard workers start
        from the recovered graph, so clients simply re-register their
        standing queries (sessions are in-memory, not durable state).
        ``options`` are :meth:`open`'s serving options and pipeline
        keyword arguments.
        """
        counters = options.pop("counters", None) or ResilienceCounters()
        recovered = RecoveryManager(
            directory, algorithm=algorithm, on_corrupt=on_corrupt,
            counters=counters,
        ).recover()
        base = recovered.engine
        return cls.open(
            directory, base.graph, base.algorithm, base.query,
            _recovered=recovered, counters=counters, **options,
        )

    # ------------------------------------------------------------------
    # standing queries
    # ------------------------------------------------------------------
    def register(
        self,
        source: int,
        destination: int,
        callback: Optional[Callable[[QuerySession, AnswerEvent], None]] = None,
    ) -> QuerySession:
        """Register a standing query; returns its session.

        Admission runs first (token bucket, then the owning shard's inbox
        depth), so a shed registration creates no session.  Raises
        :class:`~repro.errors.RateLimitedError`,
        :class:`~repro.errors.QueueSaturatedError` or
        :class:`~repro.errors.DuplicateQueryError` (unless deduping).
        """
        request = PairwiseQuery(source, destination)
        request.validate(self.engine.graph.num_vertices)
        shard = self.engine.shard_of(request.source)
        try:
            self.admission.admit_registration(shard.depth)
        finally:
            self._record_telemetry()
        session = self.sessions.register(request, callback)
        if session.registered_snapshot is not None:
            return session  # dedupe hit: already queued or live
        session.registered_snapshot = self.pipeline.snapshot_id
        try:
            shard.submit_register(session, block=False)
        except queue.Full:
            # lost the depth race; undo the session and shed like admission
            self.sessions.close(session.id)
            self.admission._count_rejection(QueueSaturatedError.reason)
            self._record_telemetry()
            raise QueueSaturatedError(
                f"shard {shard.index} inbox filled during registration"
            ) from None
        self._record_telemetry()
        return session

    def deregister(self, session_id: str) -> QuerySession:
        """Close a session and detach its destination from the shard."""
        session = self.sessions.close(session_id)
        shard = self.engine.shard_of(session.query.source)
        shard.submit_deregister(session.query.source,
                                session.query.destination)
        self._record_telemetry()
        return session

    def wait_all_live(self, timeout: float = 10.0) -> bool:
        """Block until every active session left warm-up; True iff all LIVE."""
        deadline = time.monotonic() + timeout
        all_live = True
        for session in self.sessions.active_sessions():
            remaining = max(0.0, deadline - time.monotonic())
            all_live &= session.wait_live(remaining)
        return all_live

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    @property
    def snapshot_id(self) -> int:
        return self.pipeline.snapshot_id

    def submit(
        self, batch: Union[UpdateBatch, List[EdgeUpdate]]
    ) -> ServeBatchResult:
        """Commit one update batch and fan answers to live sessions.

        Admission (queue-depth probe under the shed policy) runs *before*
        the WAL append: a shed batch leaves no durable trace, an admitted
        batch is never dropped.  Raises
        :class:`~repro.errors.QueueSaturatedError` when shed.
        """
        if not isinstance(batch, UpdateBatch):
            batch = UpdateBatch(list(batch))
        upper = batch.max_vertex()
        if upper >= self.engine.graph.num_vertices:
            raise QueryError(
                f"batch references vertex {upper} outside the "
                f"{self.engine.graph.num_vertices}-vertex graph"
            )
        try:
            self.admission.admit_batch(self.engine.max_depth)
        finally:
            self._record_telemetry()
        started = time.perf_counter()
        result: ServeBatchResult = self.pipeline.run_batch(batch)
        latency = time.perf_counter() - started
        self.batches_served += 1
        telemetry = self.telemetry
        # re-enter the batch's causal tree: answer delivery, cache
        # invalidation and supervision all descend from the commit root
        scope = (
            telemetry.activate(self.pipeline.last_trace)
            if telemetry is not None else contextlib.nullcontext()
        )
        with scope:
            self._fan_out(result, latency)
            if self.engine.last_effective is not None:
                if telemetry is None:
                    self.cache.on_batch(self.engine.last_effective)
                else:
                    with telemetry.span(
                        "serve.cache_invalidate", epoch=result.epoch
                    ) as span:
                        tallies = self.cache.on_batch(
                            self.engine.last_effective
                        )
                        span.set(**tallies)
            # stamp this epoch's exact answers into the last-known store
            # (after on_batch so the age of a current answer reads as 0)
            for (source, destination), value in result.answers.items():
                self.cache.remember(source, destination, value)
            self.supervisor.review(result)
            if self.controller is not None:
                # still inside the batch's trace scope, so every decision
                # point joins the epoch's causal tree
                self.controller.review(result)
        self._record_telemetry()
        return result

    def _fan_out(self, result: ServeBatchResult, latency: float) -> None:
        """Deliver per-query answers and degrade failed sources' sessions."""
        degraded = dict(result.degraded)
        failed = {index for index, _ in result.failed_shards}
        reasons = dict(result.failed_shards)
        telemetry = self.telemetry
        context = self.pipeline.last_trace
        trace_id = context.trace_id if context is not None else None
        for session in self.sessions.active_sessions():
            source = session.query.source
            shard_index = self.engine.shard_of(source).index
            if source in degraded or shard_index in failed:
                reason = degraded.get(source) or reasons[shard_index]
                if session.state is not SessionState.DEGRADED:
                    session.transition(SessionState.DEGRADED, reason=reason)
                continue
            key = (source, session.query.destination)
            if key not in result.answers:
                continue  # registered after this batch entered the shard
            session.push_answer(AnswerEvent(
                snapshot_id=self.pipeline.snapshot_id,
                answer=result.answers[key],
                latency_seconds=latency,
                trace_id=trace_id,
                epoch=result.epoch,
            ))
            if telemetry is not None:
                record_answer_latency(
                    telemetry.registry, session.id, latency,
                    worker=f"shard-{shard_index}",
                )
                telemetry.point(
                    "serve.answer",
                    session=session.id,
                    source=source,
                    destination=session.query.destination,
                    value=result.answers[key],
                    epoch=result.epoch,
                    snapshot=self.pipeline.snapshot_id,
                )

    # ------------------------------------------------------------------
    # ad-hoc reads
    # ------------------------------------------------------------------
    def query(self, source: int, destination: int) -> float:
        """One-shot pairwise read against the current snapshot (cached).

        Compatibility front for :meth:`read` — returns the bare value.
        """
        return self.read(source, destination).value

    def read(
        self,
        source: Optional[int] = None,
        destination: Optional[int] = None,
        session_id: Optional[str] = None,
    ) -> ReadResult:
        """One-shot pairwise read with an explicit freshness contract.

        Address the pair directly (``source``/``destination``) or through
        a standing session (``session_id``) — the latter raises
        :class:`~repro.errors.SessionClosedError` when the session is
        unknown or already closed, instead of leaking a ``KeyError``.

        On a closed circuit this is the exact read for the last committed
        epoch: the shard that maintains ``source`` (or the inline anchor)
        answers from its converged state when it is alive and has sealed
        that epoch, the result cache (the source's live family) otherwise.
        While ``source``'s breaker is open (or trialling half-open) no
        owner is consulted: the answer comes from the last-known store
        when one exists within the supervisor's ``max_staleness`` bound —
        tagged ``degraded`` with its age — and otherwise falls back to the
        result cache's family, which still carries the flag (the value is
        exact; the serving path for this source is not healthy).
        """
        source, destination = self._resolve_pair(
            source, destination, session_id
        )
        request = PairwiseQuery(source, destination)
        request.validate(self.engine.graph.num_vertices)
        degraded = self.supervisor.breaker_open(source)
        epoch = self.engine.epoch
        if degraded:
            self.supervisor.degraded_reads += 1
            stamped = self.cache.stale_lookup(source, destination)
            if (
                stamped is not None
                and stamped[1] <= self.supervisor.config.max_staleness
            ):
                value, stale_epochs = stamped
                self.stale_reads_served += 1
                self._staleness_high = max(self._staleness_high, stale_epochs)
                self._record_telemetry()
                return ReadResult(value, degraded=True,
                                  stale_epochs=stale_epochs,
                                  epoch=epoch - stale_epochs)
        # breaker first: a source on the degraded path never reaches its owner
        value = self.cache.fetch(source, destination, ask_owner=not degraded)
        return ReadResult(value, degraded=degraded, epoch=epoch)

    def _resolve_pair(
        self,
        source: Optional[int],
        destination: Optional[int],
        session_id: Optional[str],
    ) -> "tuple[int, int]":
        """Resolve a read/explain target to its ``(source, destination)``."""
        if session_id is None:
            if source is None or destination is None:
                raise QueryError(
                    "read/explain needs source and destination "
                    "(or a session_id)"
                )
            return source, destination
        try:
            session = self.sessions.get(session_id)
        except SessionNotFoundError:
            raise SessionClosedError(session_id, "is unknown") from None
        if session.state is SessionState.CLOSED:
            raise SessionClosedError(session_id, "is closed")
        return session.query.source, session.query.destination

    # ------------------------------------------------------------------
    # provenance
    # ------------------------------------------------------------------
    def explain(
        self,
        source: Optional[int] = None,
        destination: Optional[int] = None,
        epoch: Optional[int] = None,
        session_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """Explain ``Q(source -> destination)`` at ``epoch`` (default: the
        latest epoch that answered the pair).

        The pair can also be addressed through a standing session
        (``session_id``), which raises
        :class:`~repro.errors.SessionClosedError` when the session is
        unknown or closed.  Returns the provenance record: classification
        counts, sampled triangle-inequality verdicts, and the key-path
        evolution for the destination.  Raises
        :class:`~repro.errors.ProvenanceMissError` when recording is
        disabled or the epoch has been evicted from the bounded store.
        """
        source, destination = self._resolve_pair(
            source, destination, session_id
        )
        if self.provenance is None:
            raise ProvenanceMissError("provenance recording is disabled")
        return self.provenance.explain(source, destination, epoch=epoch)

    # ------------------------------------------------------------------
    # adaptive control
    # ------------------------------------------------------------------
    def attach_controller(self, policy=None):
        """Attach (or return) the adaptive :class:`RuntimeController`.

        ``policy`` is the :class:`~repro.serve.control.SLOPolicy` the
        controller chases (default-constructed when omitted).  Idempotent:
        a second call returns the existing controller unchanged.  From
        then on every :meth:`submit` ends with a controller review — see
        docs/adaptive_control.md.
        """
        from repro.serve.control import RuntimeController

        if self.controller is None:
            self.controller = RuntimeController(self, policy)
        return self.controller

    def rescale_shards(self, num_shards: int) -> None:
        """Repartition the worker pool live, migrating every session.

        Rescales the engine to ``num_shards`` fresh workers built from
        the canonical graph, then requeues every active session on its
        new owning shard (``engine.shard_of``): the session drops to
        PENDING and re-enters the normal warm-up, answering again from
        the next committed batch.  Degraded sessions stay with the
        supervisor's rescue path, which routes through the new pool.
        Must be called between batches (the harness's quiet point) —
        the controller does so from its post-commit review.
        """
        if num_shards == self.engine.num_shards:
            return
        self.engine.rescale(num_shards)
        for session in self.sessions.active_sessions():
            if session.state is not SessionState.PENDING:
                session.transition(SessionState.PENDING)
            shard = self.engine.shard_of(session.query.source)
            shard.submit_register(session, block=True)
        self._record_telemetry()

    def staleness_high_water(self) -> int:
        """Max staleness age served since the last controller review."""
        return self._staleness_high

    def reset_staleness_high_water(self) -> None:
        """Start a fresh staleness observation window (controller use)."""
        self._staleness_high = 0

    # ------------------------------------------------------------------
    # introspection / shutdown
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Point-in-time summary across every serving subsystem."""
        data: Dict[str, object] = {
            "snapshot_id": self.pipeline.snapshot_id,
            "backend": self.engine.backend,
            "epoch": self.engine.epoch,
            "batches_served": self.batches_served,
            "sessions": self.sessions.by_state(),
            "admission": self.admission.stats(),
            "cache": self.cache.stats.as_dict(),
            "supervisor": self.supervisor.stats(),
            "shards": {
                shard.index: {
                    "depth": shard.depth,
                    "alive": shard.alive,
                    "sources": sorted(shard.groups),
                }
                for shard in self.engine.shards
            },
        }
        if self.controller is not None:
            data["controller"] = self.controller.stats()
        return data

    def _record_telemetry(self) -> None:
        telemetry = self.telemetry
        if telemetry is None:
            return
        record_serve_state(
            telemetry.registry,
            {shard.index: shard.depth for shard in self.engine.shards},
            self.sessions.by_state(),
            workers={
                shard.index: f"shard-{shard.index}"
                for shard in self.engine.shards
            },
        )
        record_serve_admission(telemetry.registry, self.admission.stats())
        record_serve_cache(telemetry.registry, self.cache.stats.as_dict())
        record_supervision(telemetry.registry, self.supervisor.stats())
        if self.controller is not None:
            record_controller(telemetry.registry, self.controller.stats())

    def close(self, final_checkpoint: bool = True) -> None:
        """Close every session, checkpoint, release the WAL, stop shards.

        Shard shutdown is strict: a worker thread that survives its join
        deadline raises :class:`~repro.errors.ShardShutdownError` — leaks
        are errors, not silent daemon-thread residue.
        """
        for session in self.sessions.active_sessions():
            self.sessions.close(session.id)
        self._record_telemetry()
        self.pipeline.close(final_checkpoint=final_checkpoint)
        self.engine.close()

    def __enter__(self) -> "ServeHarness":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # mirror the pipeline: on an injected crash leave disk state as the
        # crash left it (recovery's job), but always stop the worker threads;
        # non-strict so a shutdown straggler cannot mask the real exception
        if exc_type is None:
            self.close()
        else:
            self.pipeline.wal.close()
            self.engine.close(strict=False)
