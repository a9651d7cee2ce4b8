"""Sharded worker pool: the shard core, its command loop and its worker.

Sessions are partitioned by *source* (``shard = source % num_shards``),
because everything shareable in pairwise streaming analytics is shared
along the source (see :mod:`repro.core.multiquery`): one shard owns the
:class:`~repro.core.multiquery.SourceGroup` — converged state array plus
per-destination key paths — of every source assigned to it.

What a shard owns and does is :class:`ShardCore`, whichever backend runs
it, and :func:`serve_commands` is the one loop that feeds it commands in
FIFO order:

* ``register`` / ``deregister`` — attach or detach a standing query;
  brand-new sources are bootstrapped with a full computation on the
  shard's thread, so warming one session never stalls batches on other
  shards;
* ``batch`` — drive every owned group through one net-effect batch,
  already applied to the topology the core reads, then publish a
  :class:`ShardBatchOutcome` for the epoch.

A core never writes its topology.  :class:`ShardWorker` is the engine's
handle on one shard: the in-flight ledger, the session lifecycle, the
drain and the outcome barrier, over a *carrier*.  Its own carrier is a
daemon thread whose core reads the engine's canonical
:class:`~repro.graph.dynamic.DynamicGraph` by reference — no locks on the
hot path, because the engine moves the graph only once every shard has
drained — and reads do not queue: :meth:`ShardWorker.lookup` loads the
converged value straight from the core on the caller's thread, and the
core's epoch seal (:attr:`ShardCore.sealed_epoch`) is what makes that
safe.  The process carrier is
:class:`repro.serve.executor.ProcessShardWorker`, whose child keeps a
replica of the graph and applies each batch to it.

A failure inside one group's processing (or an injected fault) degrades
only that source: the group is dropped, the failure is reported in the
outcome, and all other groups' answers for the same epoch stay exact.
"""

from __future__ import annotations

import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

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
from repro.serve.ipc import (
    CMD_BATCH,
    CMD_DEREGISTER,
    CMD_DIE,
    CMD_READ,
    CMD_REGISTER,
    CMD_STOP,
    CMD_WEDGE,
    OUT_ACK,
    OUT_FATAL,
    OUT_HEARTBEAT,
    OUT_OUTCOME,
    OUT_SESSION,
    encode_read_reply,
)
from repro.serve.session import QuerySession, SessionState

#: fault-injection hook signature: (kind, source, epoch) -> None; raising
#: inside ``"batch"`` degrades that source, inside ``"register"`` degrades
#: the registering session; blocking inside either stalls the shard (used
#: by tests to hold commands in flight deterministically); raising
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
    """What a shard *is*, whichever carrier feeds it.

    Owns the source groups hashed to the shard, over a topology it reads
    but never writes — whoever feeds it a batch has applied the batch to
    ``graph`` first — and is the only implementation of their lifecycle
    (:meth:`register` / :meth:`deregister`), of a shard's epoch
    (:meth:`run_epoch`) and of a read of shard-held state
    (:meth:`lookup`).  :func:`serve_commands` drives it, in a worker
    thread or in a process backend child (:mod:`repro.serve.executor`).
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
        #: one ``graph`` holds at construction; None from the start of an
        #: epoch to its end, and for good once an epoch was skipped or died
        #: half-way (the groups then lack a delta no later epoch brings back)
        self.sealed_epoch: Optional[int] = epoch

    def register(self, source: int, destination: int) -> None:
        """Attach a standing query; a brand-new source is bootstrapped
        with a full computation on the current topology.  Raises
        whatever the bootstrap (or an injected fault) raises — mapping
        that onto the session lifecycle is the command loop's job."""
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
        destination is answerable.  The thread carrier calls this from
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
        """Drive every owned group through one epoch's delta, which the
        caller has already applied to ``graph``.

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


def serve_commands(
    core: ShardCore,
    next_command: Callable[[], tuple],
    emit: Callable[[tuple], None],
    telemetry: Callable[[], Optional[Telemetry]] = lambda: None,
    flush: Callable[[], None] = lambda: None,
    killed: Callable[[], bool] = lambda: False,
) -> None:
    """The one command loop of a shard, whichever carrier runs it.

    Takes commands from ``next_command`` in FIFO order until ``stop`` and
    reports everything through ``emit`` as ``OUT_*`` messages: heartbeat
    stamps around each command, a registration's session events
    (``warming``, then ``live`` or ``degraded``), epoch outcomes, read
    replies, and one ack per command, always last (``flush`` runs just
    before it).  ``telemetry`` is asked once per batch.  ``killed`` is
    polled at every command boundary and inside the wedge spin; once it
    holds, the loop raises :class:`~repro.errors.ShardKilledError`.
    """
    while True:
        command = next_command()
        kind = command[0]
        emit((OUT_HEARTBEAT, "begin", kind))
        try:
            if killed():
                raise ShardKilledError(
                    f"shard {core.index} killed by injected SIGKILL"
                )
            if kind == CMD_STOP:
                return
            if kind == CMD_REGISTER:
                _, session_id, source, destination = command
                emit((OUT_SESSION, session_id, "warming", None))
                try:
                    core.register(source, destination)
                except Exception as exc:  # noqa: BLE001 - degrade only
                    emit((OUT_SESSION, session_id, "degraded", str(exc)))
                    if isinstance(exc, ShardKilledError):
                        raise  # the kill signal escapes session isolation
                else:
                    emit((OUT_SESSION, session_id, "live", None))
            elif kind == CMD_DEREGISTER:
                core.deregister(command[1], command[2])
            elif kind == CMD_BATCH:
                _, epoch, effective, context = command
                emit((OUT_OUTCOME, core.run_epoch(
                    epoch, effective, telemetry(), context
                )))
            elif kind == CMD_READ:
                emit(encode_read_reply(
                    core.lookup(*command[1:]), core.sealed_epoch
                ))
            elif kind == CMD_WEDGE:
                # the wedge fault: a genuine busy loop — no heartbeat end,
                # no outcome for anything queued behind it; a kill is the
                # only thing that breaks it early
                deadline = time.monotonic() + command[1] / 1000.0
                while time.monotonic() < deadline:
                    if killed():
                        raise ShardKilledError(
                            f"shard {core.index} killed mid-wedge"
                        )
                    time.sleep(0.001)
            elif kind == "barrier":
                # chaos/test primitive: park until released (bounded)
                command[1].wait(timeout=30.0)
        finally:
            flush()
            emit((OUT_HEARTBEAT, "end", None))
            emit((OUT_ACK,))


class ShardWorker:
    """One shard as the engine sees it: a :class:`ShardCore` behind a carrier.

    The carrier is how commands reach the core and how its reports come
    back.  This class is the thread carrier — a daemon ``serve-shard-{i}``
    thread running :func:`serve_commands` on a core in this process,
    emitting straight into :meth:`_dispatch` — and everything both
    carriers share: the in-flight ledger, the session lifecycle, the
    drain, the outcome barrier and the failure taxonomy.
    :class:`~repro.serve.executor.ProcessShardWorker` replaces only the
    carrier.

    ``queue_bound`` caps the commands in flight (submitted, not yet
    retired; the one running counts).  The harness checks ``depth``
    before submitting (admission control); :meth:`submit` with
    ``block=False`` raises ``queue.Full`` at the bound.  A committed
    batch never waits for headroom: the engine drains the ledger
    (:meth:`wait_idle`, bounded by the epoch deadline) before it fans
    the batch out, and fails a shard that stays busy for the epoch.
    """

    backend = "thread"
    #: how the worker ended, as a process exit code would say it: None
    #: while it runs, 0 after a stop, negative after a kill, 1 otherwise
    exitcode: Optional[int] = None

    def __init__(
        self,
        core: ShardCore,
        queue_bound: int = 64,
        clock: Callable[[], float] = time.monotonic,
        telemetry_source: Optional[Callable[[], Optional[Telemetry]]] = None,
    ) -> None:
        self._setup(core.index, queue_bound, clock, telemetry_source)
        self.core = core
        self._inbox: "queue.Queue" = queue.Queue()
        self._runner = threading.Thread(
            target=self._run, name=f"serve-shard-{self.index}", daemon=True
        )

    def _setup(
        self,
        index: int,
        queue_bound: int,
        clock: Callable[[], float],
        telemetry_source: Optional[Callable[[], Optional[Telemetry]]],
    ) -> None:
        """The carrier-independent state; each carrier's ``__init__``
        calls this, then builds its ``_runner``."""
        self.index = index
        self.queue_bound = queue_bound
        #: deferred lookup, not a captured instance: the engine's telemetry
        #: may be attached after workers are built (pipeline wrap order)
        self.telemetry_source = telemetry_source
        self.heartbeat = Heartbeat(clock)
        #: source -> destinations live on this shard, as the core reports
        self.groups: Dict[int, Set[int]] = {}
        #: last ``fatal`` report from the carrier (a process child's
        #: last gasp), if any
        self.last_error: Optional[str] = None
        #: registrations in flight: session id -> handle, held only until
        #: the core reports the bootstrap's outcome (or a deregister)
        self._sessions: Dict[str, QuerySession] = {}
        self._results: Dict[int, ShardBatchOutcome] = {}
        self._state_cv = threading.Condition()
        self._pending = 0
        #: acks seen so far: command number ``_acks + _pending`` at submit
        #: time is retired once ``_acks`` reaches it (FIFO carrier)
        self._acks = 0
        self._started = False
        self._stop_requested = False
        #: :meth:`kill` was called
        self._killed = False
        #: the carrier has ended and everything it sent was dispatched
        self._dead = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the carrier (idempotent)."""
        if not self._started:
            self._started = True
            self._runner.start()

    def request_stop(self) -> None:
        """Ask the worker to exit at its next command boundary, without
        joining (idempotent); the sentinel bypasses the bound."""
        self._stop_requested = True
        self._put((CMD_STOP,))

    def stop(self, timeout: float = 5.0) -> bool:
        """Stop the worker and join it; True iff the thread exited.

        Never raises on a straggler — the caller
        (:meth:`~repro.serve.engine.ShardedServeEngine.close`) aggregates
        survivors into one typed :class:`~repro.errors.ShardShutdownError`.
        """
        if self._started and self._runner.is_alive():
            self.request_stop()
            self._runner.join(timeout)
        return not self._runner.is_alive()

    def kill(self) -> None:
        """Best-effort immediate kill — the thread analogue of SIGKILL.

        Honoured at the next command boundary or inside a wedge: the
        worker raises :class:`~repro.errors.ShardKilledError` and dies
        without draining what is queued or publishing pending outcomes.
        """
        self._killed = True
        self._put((CMD_DIE,))  # wakes an idle worker

    @property
    def alive(self) -> bool:
        return self._started and not self._dead and self._runner.is_alive()

    @property
    def started(self) -> bool:
        return self._started

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    @property
    def depth(self) -> int:
        """Commands in flight (the admission-control probe)."""
        with self._state_cv:
            return self._pending

    # ------------------------------------------------------------------
    # commands (called from the harness / engine thread)
    # ------------------------------------------------------------------
    def submit(self, command: tuple, block: bool = True) -> int:
        """Put ``command`` in flight under ``queue_bound``; its ticket.

        ``block=False`` raises ``queue.Full`` at the bound; a blocking
        submit waits for an ack.  The ticket is the ack count at which the
        command has retired.
        """
        with self._state_cv:
            if block:
                self._state_cv.wait_for(
                    lambda: self._pending < self.queue_bound or self._dead
                )
            elif self._pending >= self.queue_bound:
                raise queue.Full()
            self._pending += 1
            ticket = self._acks + self._pending
        self._put(command)
        return ticket

    def wait_idle(self, timeout: float) -> bool:
        """The drain: block until every command submitted so far has
        retired (or the carrier has ended); False if ``timeout`` ran out
        first — the engine then fails the shard for the epoch."""
        with self._state_cv:
            return self._state_cv.wait_for(
                lambda: not self._pending or self._dead, timeout
            )

    def submit_register(self, session: QuerySession, block: bool) -> None:
        """Submit a registration; ``block=False`` raises ``queue.Full``.

        Only the session *id* travels with the command — the worker keeps
        the handle and applies the lifecycle events the core reports.
        """
        self._sessions[session.id] = session
        try:
            self.submit(
                (CMD_REGISTER, session.id, session.query.source,
                 session.query.destination),
                block,
            )
        except queue.Full:
            self._sessions.pop(session.id, None)
            raise

    def submit_deregister(self, source: int, destination: int) -> None:
        # a registration still in flight must not re-add the pair to the
        # mirror when its ``live`` event lands after this deregister
        for session_id, session in list(self._sessions.items()):
            query = session.query
            if (query.source, query.destination) == (source, destination):
                self._sessions.pop(session_id, None)
        destinations = self.groups.get(source)
        if destinations is not None:
            destinations.discard(destination)
            if not destinations:
                del self.groups[source]
        self.submit((CMD_DEREGISTER, source, destination))

    def submit_batch(
        self,
        epoch: int,
        effective: UpdateBatch,
        context: Optional[TraceContext] = None,
    ) -> None:
        """Submit one epoch's net-effect delta (never shed; after the
        drain the ledger is empty, so this never waits).

        ``context`` is the ingest thread's trace context: the core
        re-activates it around the epoch, so the shard-side spans parent
        onto the engine's batch span.
        """
        self.submit((CMD_BATCH, epoch, effective, context))

    def submit_wedge(self, millis: int) -> None:
        """Wedge the worker in a heartbeat-free busy loop (chaos fault):
        the observable signature of a worker stuck in a hot loop."""
        self.submit((CMD_WEDGE, int(millis)))

    def lookup(
        self, source: int, destination: int, epoch: int
    ) -> Optional[float]:
        """The core's converged value at ``epoch``, read on the caller's
        thread (the core's seal makes that safe); None from a worker
        that is dead, retired or told to die."""
        if self._stop_requested or self._killed or not self.alive:
            return None
        return self.core.lookup(source, destination, epoch)

    def wait_outcome(self, epoch: int, timeout: float = 30.0) -> ShardBatchOutcome:
        """Block until this shard publishes its outcome for ``epoch``.

        The deadline is *overall*, stamped once — unrelated wake-ups
        (acks, other epochs' outcomes) never restart the clock, so a
        silent worker costs exactly ``timeout`` before the barrier
        converts it into a failed shard.
        """
        deadline = time.monotonic() + timeout
        with self._state_cv:
            while epoch not in self._results:
                if self._dead or not self._started:
                    raise ShardCrashedError(
                        f"shard {self.index} {self.exit_description()} "
                        f"before epoch {epoch}"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardCrashedError(
                        f"shard {self.index} produced no outcome for epoch "
                        f"{epoch} within {timeout:g}s"
                    )
                self._state_cv.wait(remaining)
            return self._results.pop(epoch)

    # ------------------------------------------------------------------
    # failure taxonomy / post-mortem
    # ------------------------------------------------------------------
    def exit_description(self) -> str:
        """How the worker ended, for the barrier's error text."""
        return "died"

    def failure_mode(self) -> Optional[str]:
        """``killed`` / ``crashed`` / ``stopped`` — or None while running.

        Read off :attr:`exitcode`: negative is a kill, zero a clean
        stop, positive an abnormal exit.  A hung-but-running worker stays
        None here; *hung* is the health monitor's verdict (heartbeat
        silence), not an exit state.
        """
        if not self._started:
            return "stopped"
        code = self.exitcode
        if code is None:
            return None
        return "killed" if code < 0 else "stopped" if code == 0 else "crashed"

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
            "last_error": self.last_error,
        }

    # ------------------------------------------------------------------
    # what the core reports
    # ------------------------------------------------------------------
    def _dispatch(self, message: tuple) -> None:
        tag = message[0]
        if tag == OUT_HEARTBEAT:
            if message[1] == "begin":
                self.heartbeat.begin(message[2])
            else:
                self.heartbeat.end()
        elif tag == OUT_ACK:
            with self._state_cv:
                self._pending = max(0, self._pending - 1)
                self._acks += 1
                self._state_cv.notify_all()
        elif tag == OUT_SESSION:
            self._session_event(*message[1:])
        elif tag == OUT_OUTCOME:
            outcome = message[1]
            for source, _ in outcome.degraded:
                self.groups.pop(source, None)
            with self._state_cv:
                self._results[outcome.epoch] = outcome
                self._state_cv.notify_all()
        elif tag == OUT_FATAL:
            self.last_error = message[1]

    def _session_event(
        self, session_id: str, state: str, reason: Optional[str]
    ) -> None:
        # ``live`` / ``degraded`` end a registration: stop pinning it
        if state == "warming":
            session = self._sessions.get(session_id)
        else:
            session = self._sessions.pop(session_id, None)
        if session is None or self._stop_requested:
            return  # deregistered in flight, or retired: not ours to move
        try:
            if state == "warming":
                session.transition(SessionState.WARMING)
            elif state == "live":
                # mirror first: a caller woken by LIVE may read at once
                self.groups.setdefault(session.query.source, set()).add(
                    session.query.destination
                )
                session.transition(SessionState.LIVE)
            else:
                session.transition(SessionState.DEGRADED, reason=reason)
        except SessionStateError:
            pass  # closed by the client meanwhile; nothing to report

    # ------------------------------------------------------------------
    # the thread carrier
    # ------------------------------------------------------------------
    def _put(self, command: tuple) -> None:
        self._inbox.put(command)

    def _next_command(self) -> tuple:
        command = self._inbox.get()
        # a retired worker leaves at its next boundary, backlog or not
        return (CMD_STOP,) if self._stop_requested else command

    def _telemetry(self) -> Optional[Telemetry]:
        source = self.telemetry_source
        return source() if source is not None else None

    def _run(self) -> None:
        try:
            serve_commands(
                self.core, self._next_command, self._dispatch,
                self._telemetry, killed=lambda: self._killed,
            )
            self.exitcode = 0
        except ShardKilledError:
            self.exitcode = -signal.SIGKILL  # injected death; no stderr noise
        except BaseException:
            self.exitcode = 1
            raise
        finally:
            with self._state_cv:
                # wake any barrier waiting on an outcome this thread will
                # never publish; it re-checks and raises at once
                self._dead = True
                self._state_cv.notify_all()
