"""Sharded worker pool: the shard core and its thread transport.

Sessions are partitioned by *source* (``shard = source % num_shards``),
because everything shareable in pairwise streaming analytics is shared
along the source (see :mod:`repro.core.multiquery`): one shard owns the
:class:`~repro.core.multiquery.SourceGroup` — converged state array plus
per-destination key paths — of every source assigned to it.

What a shard owns and does is :class:`ShardCore`, whichever backend runs
it.  The thread backend's :class:`ShardWorker` wraps one in a daemon
thread consuming a **bounded** inbox of commands in FIFO order:

* ``register`` / ``deregister`` — attach or detach a standing query;
  brand-new sources are bootstrapped with a full computation *on the
  shard's own graph copy*, so warming one session never stalls batches on
  other shards;
* ``batch`` — apply one net-effect batch to the shard-local topology and
  drive every owned group through contribution-aware processing, then
  publish a :class:`ShardBatchOutcome` for the epoch.

Reads do not queue: :meth:`ShardWorker.lookup` loads the converged value
straight from the core on the caller's thread, and the core's epoch seal
(:attr:`ShardCore.sealed_epoch`) is what makes that safe.

Every shard holds a private :class:`~repro.graph.dynamic.DynamicGraph`
copy that it alone mutates — no cross-thread topology sharing, hence no
locks on the hot path.  A failure inside one group's processing (or an
injected fault) degrades only that source: the group is dropped, the
failure is reported in the outcome, and all other groups' answers for the
same epoch stay exact.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.algorithms.base import MonotonicAlgorithm
from repro.core.classification import KeyPathRule
from repro.core.multiquery import SourceGroup
from repro.errors import SessionStateError, ShardCrashedError, ShardKilledError
from repro.graph.batch import UpdateBatch
from repro.graph.dynamic import DynamicGraph
from repro.metrics import OpCounts
from repro.obs.provenance import GroupObservation, ProvenanceRecorder
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import TraceContext
from repro.serve.health import Heartbeat
from repro.serve.session import QuerySession, SessionState

#: fault-injection hook signature: (kind, source, epoch) -> None; raising
#: inside ``"batch"`` degrades that source, inside ``"register"`` degrades
#: the registering session; blocking inside either stalls the shard (used
#: by tests to fill the bounded inbox deterministically); raising
#: :class:`~repro.errors.ShardKilledError` escapes the per-source isolation
#: and kills the whole worker thread (the chaos harness's shard-kill fault)
FaultHook = Callable[[str, int, int], None]


@dataclass
class ShardBatchOutcome:
    """What one shard produced for one epoch."""

    epoch: int
    shard: int
    #: converged answers keyed ``(source, destination)``
    answers: Dict[Tuple[int, int], float] = field(default_factory=dict)
    response_ops: OpCounts = field(default_factory=OpCounts)
    post_ops: OpCounts = field(default_factory=OpCounts)
    stats: Dict[str, int] = field(default_factory=dict)
    #: sources whose group failed this epoch, with the failure text
    degraded: List[Tuple[int, str]] = field(default_factory=list)


def process_group(
    group: SourceGroup,
    effective: UpdateBatch,
    response: OpCounts,
    post: OpCounts,
    provenance: Optional[ProvenanceRecorder],
    epoch: int,
    shard: int,
) -> Dict[str, int]:
    """``group.process_batch`` inside the provenance bracket.

    Observe the pre-batch group, process, record what changed — for a
    shard's groups and (as shard ``-1``) the engine's inline anchor
    alike.  Exceptions propagate: isolating a failed source is the
    epoch body's job, and the anchor must not be isolated at all.
    """
    observation = (
        GroupObservation(group, effective, provenance.sample_limit)
        if provenance is not None else None
    )
    counts = group.process_batch(effective, response, post)
    if observation is not None:
        provenance.record_group(observation.finish(group, counts, epoch, shard))
    return counts


class ShardCore:
    """What a shard *is*, whichever transport feeds it.

    Owns the shard-private topology and the source groups hashed to the
    shard, and is the only implementation of their lifecycle
    (:meth:`register` / :meth:`deregister`), of a shard's epoch
    (:meth:`run_epoch`) and of a read of shard-held state
    (:meth:`lookup`).  The thread worker below and the process
    backend's child loop (:mod:`repro.serve.executor`) each hold one and
    add only transport: queues, session-lifecycle delivery, heartbeats,
    acks, kill/wedge/stop.
    """

    def __init__(
        self,
        index: int,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        rule: KeyPathRule,
        fault_hook: Optional[FaultHook] = None,
        provenance: Optional[ProvenanceRecorder] = None,
        epoch: int = 0,
    ) -> None:
        self.index = index
        self.graph = graph
        self.algorithm = algorithm
        self.rule = rule
        self.fault_hook = fault_hook
        self.provenance = provenance
        self.groups: Dict[int, SourceGroup] = {}
        #: the engine epoch this core has fully absorbed — ``epoch`` is the
        #: one ``graph`` was copied at; None from the start of an epoch to
        #: its end, and for good once an epoch was skipped or died half-way
        #: (the topology then lacks a delta no later epoch brings back)
        self.sealed_epoch: Optional[int] = epoch

    def register(self, source: int, destination: int) -> None:
        """Attach a standing query; a brand-new source is bootstrapped
        with a full computation on the shard's own topology.  Raises
        whatever the bootstrap (or an injected fault) raises — mapping
        that onto the session lifecycle is the transport's job."""
        if self.fault_hook is not None:
            self.fault_hook("register", source, -1)
        group = self.groups.get(source)
        if group is None:
            group = SourceGroup(
                self.graph, self.algorithm, source, [destination], self.rule
            )
            group.initialize(OpCounts())
            self.groups[source] = group
        else:
            group.add_destination(destination)

    def deregister(self, source: int, destination: int) -> None:
        group = self.groups.get(source)
        if group is not None and group.remove_destination(destination):
            del self.groups[source]

    def lookup(
        self, source: int, destination: int, epoch: int
    ) -> Optional[float]:
        """Converged ``Q(source -> destination)`` at ``epoch``, or None.

        The read path's one door into shard-held state, open only while
        the source has a group here and the core is sealed at ``epoch``.
        A drained group is converged for *every* vertex, so any
        destination is answerable.  The thread transport calls this from
        the reader's thread, so the seal is checked on both sides of the
        load (a seqlock): a zombie waking into an epoch mid-read unseals
        first and the value is discarded.
        """
        group = self.groups.get(source)
        if group is None or self.sealed_epoch != epoch:
            return None
        value = group.answer(destination)
        return value if self.sealed_epoch == epoch else None

    def run_epoch(
        self,
        epoch: int,
        effective: UpdateBatch,
        telemetry: Optional[Telemetry] = None,
        context: Optional[TraceContext] = None,
    ) -> ShardBatchOutcome:
        """Apply one epoch's delta and drive every owned group through it.

        With telemetry the ingest thread's ``context`` is re-activated
        around a ``shard.batch`` span, so this shard's spans join the
        batch's causal tree instead of rooting a disconnected one.
        """
        if telemetry is None:
            return self._epoch(epoch, effective, None)
        with telemetry.tracer.activate(context):
            with telemetry.span(
                "shard.batch", shard=self.index, epoch=epoch,
                updates=len(effective),
            ) as span:
                outcome = self._epoch(epoch, effective, telemetry)
                span.set(
                    groups=len(self.groups),
                    answers=len(outcome.answers),
                    degraded=len(outcome.degraded),
                )
        return outcome

    def _epoch(
        self,
        epoch: int,
        effective: UpdateBatch,
        telemetry: Optional[Telemetry],
    ) -> ShardBatchOutcome:
        outcome = ShardBatchOutcome(epoch=epoch, shard=self.index)
        contiguous = self.sealed_epoch == epoch - 1
        self.sealed_epoch = None
        self.graph.apply_batch(effective, missing_ok=True)
        totals: Dict[str, int] = {}
        for source in list(self.groups):
            group = self.groups[source]
            try:
                if self.fault_hook is not None:
                    self.fault_hook("batch", source, epoch)
                group_stats = process_group(
                    group, effective, outcome.response_ops, outcome.post_ops,
                    self.provenance, epoch, self.index,
                )
            except ShardKilledError:
                raise  # chaos kill signal: no isolation, the worker dies
            except Exception as exc:  # noqa: BLE001 - isolate the failure
                del self.groups[source]
                outcome.degraded.append((source, str(exc)))
                if telemetry is not None:
                    telemetry.point(
                        "shard.degraded", shard=self.index, epoch=epoch,
                        source=source, error=str(exc),
                    )
                continue
            for key, value in group_stats.items():
                totals[key] = totals.get(key, 0) + value
            for destination in group.destinations:
                outcome.answers[(source, destination)] = group.answer(destination)
        outcome.stats = totals
        if contiguous:
            self.sealed_epoch = epoch
        return outcome


class ShardWorker:
    """The thread transport: one worker thread driving a :class:`ShardCore`.

    ``queue_bound`` caps the inbox; the harness checks headroom *before*
    enqueueing (admission control), while committed batches use a blocking
    put — a WAL-durable batch must never be shed.  The put may still be
    *bounded in time* (``submit_batch(timeout=...)``): when a wedged
    worker's inbox stays full past the epoch deadline, the engine fails
    the shard for the epoch instead of blocking ingest forever.
    """

    backend = "thread"

    def __init__(
        self,
        core: ShardCore,
        queue_bound: int = 64,
        clock: Callable[[], float] = time.monotonic,
        telemetry_source: Optional[Callable[[], Optional[Telemetry]]] = None,
    ) -> None:
        self.index = core.index
        self.core = core
        #: deferred lookup, not a captured instance: the engine's telemetry
        #: may be attached after workers are built (pipeline wrap order)
        self.telemetry_source = telemetry_source
        self.inbox: "queue.Queue" = queue.Queue(maxsize=queue_bound)
        self.heartbeat = Heartbeat(clock)
        self._results: Dict[int, ShardBatchOutcome] = {}
        self._results_cv = threading.Condition()
        self._thread = threading.Thread(
            target=self._run, name=f"serve-shard-{self.index}", daemon=True
        )
        self._started = False
        self._stop_requested = False
        #: set by the worker itself on the way out (is_alive() lags: the
        #: thread is still "alive" while running its own cleanup)
        self._dead = False
        #: :meth:`kill` was requested — the thread analogue of a pending
        #: SIGKILL, honoured at the next command boundary
        self._die_requested = False
        #: the worker actually died from a kill (vs crash/stop)
        self._killed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker thread (idempotent)."""
        if not self._started:
            self._started = True
            self._thread.start()

    def request_stop(self) -> None:
        """Ask the worker to drain and exit, without joining (idempotent).

        Used by the supervisor when retiring a hung or replaced worker:
        the stop flag makes the thread exit at its next command boundary,
        and the sentinel wakes it if it is idle in ``inbox.get()``.  When
        the inbox is full (a wedged worker with backlog) the sentinel is
        skipped — the flag alone suffices once the worker resumes.
        """
        self._stop_requested = True
        try:
            self.inbox.put_nowait(("stop",))
        except queue.Full:
            pass  # flag is set; the worker checks it between commands

    def stop(self, timeout: float = 5.0) -> bool:
        """Stop the worker and join it; True iff the thread exited.

        Never raises on a straggler — the caller
        (:meth:`~repro.serve.engine.ShardedServeEngine.close`) aggregates
        survivors into one typed :class:`~repro.errors.ShardShutdownError`.
        """
        if not self._started:
            return True
        if self._thread.is_alive():
            self.request_stop()
            self._thread.join(timeout)
        return not self._thread.is_alive()

    @property
    def alive(self) -> bool:
        return self._thread.is_alive() and not self._dead

    @property
    def started(self) -> bool:
        return self._started

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    @property
    def depth(self) -> int:
        """Current inbox depth (the admission-control probe)."""
        return self.inbox.qsize()

    @property
    def groups(self) -> Dict[int, SourceGroup]:
        """Source groups this shard owns (keyed by source)."""
        return self.core.groups

    # ------------------------------------------------------------------
    # commands (called from the harness / engine thread)
    # ------------------------------------------------------------------
    def submit_register(self, session: QuerySession, block: bool,
                        timeout: Optional[float] = None) -> None:
        """Enqueue a registration; ``block=False`` raises ``queue.Full``."""
        self.inbox.put(("register", session), block=block, timeout=timeout)

    def submit_deregister(self, source: int, destination: int) -> None:
        self.inbox.put(("deregister", source, destination))

    def submit_batch(
        self,
        epoch: int,
        effective: UpdateBatch,
        context: Optional[TraceContext] = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Enqueue a committed batch (blocking: durable batches never shed).

        ``context`` is the ingest thread's trace context: the worker
        re-activates it around the epoch's processing so the shard-side
        spans parent onto the engine's batch span (one causal tree
        instead of per-thread silos).

        ``timeout`` bounds the wait for inbox headroom.  A worker wedged
        mid-command never drains its inbox, so an unbounded put here
        would block the ingest thread forever — exactly the hang the
        epoch barrier exists to prevent.  On expiry ``queue.Full``
        propagates and the engine converts it into a ``failed_shards``
        entry for the epoch.
        """
        self.inbox.put(("batch", epoch, effective, context), timeout=timeout)

    def submit_wedge(self, millis: int) -> None:
        """Wedge the worker in a busy loop for ``millis`` (chaos fault).

        Unlike the ``fault_hook``-based hang (which parks on an event the
        driver controls), the wedge burns real wall-clock inside one
        command: heartbeats stop, ``busy_seconds`` grows, the inbox backs
        up — the observable signature of a worker stuck in a hot loop.
        """
        self.inbox.put(("wedge", int(millis)))

    def kill(self) -> None:
        """Best-effort immediate kill — the thread analogue of SIGKILL.

        Threads cannot be killed from outside, so this is honoured at the
        next command boundary: the worker raises
        :class:`~repro.errors.ShardKilledError` and dies without draining
        its inbox or publishing pending outcomes.  The process backend
        overrides this with a real ``os.kill``.
        """
        self._die_requested = True
        try:
            self.inbox.put_nowait(("die",))
        except queue.Full:
            pass  # flag is set; the worker checks it between commands

    def lookup(
        self, source: int, destination: int, epoch: int
    ) -> Optional[float]:
        """The core's converged value at ``epoch``, read from the caller's
        thread; None from a worker that is dead, retired or told to die."""
        if self._stop_requested or self._die_requested or not self.alive:
            return None
        return self.core.lookup(source, destination, epoch)

    def wait_outcome(self, epoch: int, timeout: float = 30.0) -> ShardBatchOutcome:
        """Block until this shard publishes its outcome for ``epoch``.

        The deadline is *overall*, stamped once — unrelated wake-ups
        (other epochs' outcomes being published) never restart the
        clock, so a silent worker costs exactly ``timeout`` before the
        barrier converts it into a failed shard.
        """
        deadline = time.monotonic() + timeout
        with self._results_cv:
            while epoch not in self._results:
                if self._dead or not self._thread.is_alive():
                    raise ShardCrashedError(
                        f"shard {self.index} died before epoch {epoch}"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardCrashedError(
                        f"shard {self.index} produced no outcome for epoch "
                        f"{epoch} within {timeout:g}s"
                    )
                self._results_cv.wait(remaining)
            return self._results.pop(epoch)

    # ------------------------------------------------------------------
    # failure taxonomy / post-mortem
    # ------------------------------------------------------------------
    def failure_mode(self) -> Optional[str]:
        """``killed`` / ``crashed`` / ``stopped`` — or None while alive."""
        if not self._started:
            return "stopped"
        if self._thread.is_alive() and not self._dead:
            return None
        if self._killed:
            return "killed"
        if self._stop_requested:
            return "stopped"
        return "crashed"

    def post_mortem(self) -> Dict[str, object]:
        """Flight-recorder context fragment for this worker's death."""
        return {
            "backend": self.backend,
            "shard": self.index,
            "alive": self.alive,
            "failure_mode": self.failure_mode(),
            "stop_requested": self._stop_requested,
            "inbox_depth": self.depth,
            "heartbeat": {
                "beats": self.heartbeat.beats,
                "last_beat": self.heartbeat.last_beat,
                "busy_kind": self.heartbeat.busy_kind,
                "busy_seconds": self.heartbeat.busy_seconds,
            },
            "sources": sorted(self.groups),
        }

    # ------------------------------------------------------------------
    # worker thread body
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            self._serve_loop()
        except ShardKilledError:
            self._killed = True  # injected thread death; no stderr noise
        finally:
            self.heartbeat.end()
            with self._results_cv:
                # wake any barrier waiting on an outcome this thread will
                # never publish; it re-checks liveness and raises at once
                self._dead = True
                self._results_cv.notify_all()

    def _serve_loop(self) -> None:
        while True:
            command = self.inbox.get()
            kind = command[0]
            self.heartbeat.begin(kind)
            try:
                if kind == "die" or self._die_requested:
                    raise ShardKilledError(
                        f"shard {self.index} killed by injected SIGKILL"
                    )
                if kind == "stop" or self._stop_requested:
                    return
                if kind == "register":
                    self._handle_register(command[1])
                elif kind == "deregister":
                    self.core.deregister(command[1], command[2])
                elif kind == "batch":
                    self._handle_batch(*command[1:])
                elif kind == "barrier":
                    # chaos/test primitive: park until released (bounded)
                    command[1].wait(timeout=30.0)
                elif kind == "wedge":
                    # chaos wedge fault: a genuine busy loop — no event to
                    # release, no heartbeat end until the spin expires; a
                    # pending kill is the only thing that breaks it early
                    deadline = time.monotonic() + command[1] / 1000.0
                    while time.monotonic() < deadline:
                        if self._die_requested:
                            raise ShardKilledError(
                                f"shard {self.index} killed mid-wedge"
                            )
                        time.sleep(0.001)
            finally:
                self.heartbeat.end()
                self.inbox.task_done()

    def _handle_register(self, session: QuerySession) -> None:
        if self._stop_requested:
            return  # retired worker; the replacement owns this session now
        query = session.query
        try:
            session.transition(SessionState.WARMING)
        except SessionStateError:
            return  # closed while still queued (or closing concurrently)
        try:
            self.core.register(query.source, query.destination)
        except Exception as exc:  # noqa: BLE001 - degrade, never kill the shard
            try:
                session.transition(SessionState.DEGRADED, reason=str(exc))
            except SessionStateError:
                pass  # already closed by the client; nothing to report
            if isinstance(exc, ShardKilledError):
                # the kill signal escapes session isolation: the session
                # is degraded (its bootstrap is lost) and the thread dies
                raise
            return
        try:
            session.transition(SessionState.LIVE)
        except SessionStateError:
            pass  # closed while warming: the group stays, harmlessly

    def _handle_batch(
        self,
        epoch: int,
        effective: UpdateBatch,
        context: Optional[TraceContext] = None,
    ) -> None:
        telemetry = (
            self.telemetry_source() if self.telemetry_source is not None
            else None
        )
        outcome = self.core.run_epoch(epoch, effective, telemetry, context)
        with self._results_cv:
            self._results[epoch] = outcome
            self._results_cv.notify_all()
