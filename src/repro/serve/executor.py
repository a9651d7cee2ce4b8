"""Pluggable shard executors: real processes behind the worker surface.

The serve layer was built on thread workers
(:class:`~repro.serve.shard.ShardWorker`): cheap to spawn, easy to test,
but GIL-shared and only killable by politely raising
:class:`~repro.errors.ShardKilledError` inside them.  This module adds
the **process backend**: :class:`ProcessShardWorker` runs the same
command loop in a child process, consuming commands over a
``multiprocessing`` queue and reporting heartbeats, session lifecycle
events and epoch outcomes back over another (wire format:
:mod:`repro.serve.ipc`).  The topology crosses once, as a shared-memory
CSR snapshot (:class:`~repro.graph.csr.SharedCSR`) that every child
attaches, and per-epoch deltas ride the command queue as net-effect
batches.

Both backends implement one worker surface, which is what
:class:`~repro.serve.engine.ShardedServeEngine`,
:class:`~repro.serve.health.HealthMonitor` and
:class:`~repro.serve.supervision.Supervisor` program against:

``start() / request_stop() / stop(timeout)``,
``submit_register / submit_deregister / submit_batch / submit_wedge``,
``wait_outcome(epoch, timeout)``, ``lookup(source, destination, epoch)``,
``alive / started / stop_requested / depth / heartbeat / groups``,
``kill()`` (real SIGKILL here, an injected kill command on threads),
``failure_mode()`` (``crashed`` / ``hung`` / ``killed`` / ``stopped``)
and ``post_mortem()`` (the flight-recorder context fragment).

What a process buys: real multi-core execution, and *real* failure
modes — a SIGKILLed child is detected by its exit sentinel (negative
``exitcode``), a wedged child by heartbeat silence plus the epoch
barrier deadline, and either can be forcibly reclaimed with
``terminate``/``kill`` where a wedged thread could only ever be
abandoned as a zombie.  See ``docs/process_shards.md``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue
import signal
import threading
import time
import traceback
from typing import Callable, Dict, Optional, Set

from repro.algorithms.registry import get_algorithm
from repro.core.classification import KeyPathRule
from repro.errors import SessionStateError, ShardCrashedError
from repro.graph.batch import UpdateBatch
from repro.graph.csr import SharedCSR, SharedCSRMeta
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS
from repro.obs.telemetry import Telemetry
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
    OUT_READ,
    OUT_SESSION,
    OUT_TELEMETRY,
    decode_batch,
    decode_context,
    decode_outcome,
    decode_telemetry_frame,
    encode_batch,
    encode_context,
    encode_outcome,
    encode_read,
    encode_read_reply,
)
from repro.serve.session import QuerySession, SessionState
from repro.serve.shard import ShardCore
from repro.serve.telemetry_agent import ChildTelemetryAgent, read_spill

__all__ = ["BACKENDS", "ProcessShardWorker", "resolve_backend"]

#: executor backends the engine accepts
BACKENDS = ("thread", "process")
#: how long one owned-state read waits for the child's reply; a child that
#: misses it is not asked again until it next publishes an epoch outcome
READ_DEADLINE = 0.5


def resolve_backend(name: str) -> str:
    """Validate a backend name (typed error instead of a silent default)."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown shard backend {name!r}; expected one of {BACKENDS}"
        )
    return name


def _context():
    """The multiprocessing context for shard children.

    ``fork`` when the platform offers it (fast spawn, no re-import; the
    child immediately enters :func:`_shard_child_main` and touches only
    its own queues and the shared segment), ``spawn`` otherwise.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def _shard_child_main(
    index: int,
    meta_tuple,
    algorithm_name: str,
    rule_value: str,
    commands,
    outcomes,
    telemetry_on: bool = False,
    spill_path: Optional[str] = None,
    epoch: int = 0,
) -> None:
    """Command loop of one shard child process.

    The process transport around a :class:`~repro.serve.shard.ShardCore`
    — the same core a thread worker holds, so registration and the epoch
    body are not written here: FIFO commands arrive and session events,
    heartbeat stamps, outcomes and acks leave through the IPC codec.
    With ``telemetry_on`` the child installs a
    :class:`~repro.serve.telemetry_agent.ChildTelemetryAgent`: spans join
    the ingest trace the batch command carried, and each command boundary
    flushes an ``OUT_TELEMETRY`` frame plus the crash spill file.
    Top-level (not a closure) so the ``spawn`` start method can import it.
    """
    try:
        shared = SharedCSR.attach(SharedCSRMeta.from_tuple(meta_tuple))
        graph = shared.graph.to_dynamic()
        shared.close()  # topology copied; drop the mapping immediately
        core = ShardCore(
            index, graph, get_algorithm(algorithm_name),
            KeyPathRule(rule_value), fault_hook=None, provenance=None,
            epoch=epoch,
        )
        agent = (
            ChildTelemetryAgent(index, outcomes, spill_path=spill_path)
            if telemetry_on else None
        )
        while True:
            command = commands.get()
            kind = command[0]
            outcomes.put((OUT_HEARTBEAT, "begin", kind))
            try:
                if kind == CMD_STOP:
                    return
                if kind == CMD_REGISTER:
                    _, session_id, source, destination = command
                    try:
                        core.register(source, destination)
                    except Exception as exc:  # noqa: BLE001 - degrade only
                        outcomes.put(
                            (OUT_SESSION, session_id, "degraded", str(exc))
                        )
                    else:
                        outcomes.put((OUT_SESSION, session_id, "live", None))
                elif kind == CMD_DEREGISTER:
                    core.deregister(command[1], command[2])
                elif kind == CMD_BATCH:
                    _, epoch, rows, ctx = command
                    outcome = core.run_epoch(
                        epoch, decode_batch(rows),
                        agent.telemetry if agent is not None else None,
                        decode_context(ctx),
                    )
                    outcomes.put((OUT_OUTCOME, encode_outcome(outcome)))
                elif kind == CMD_READ:
                    outcomes.put(encode_read_reply(
                        core.lookup(*command[1:]), core.sealed_epoch
                    ))
                elif kind == CMD_WEDGE:
                    # the wedge fault: spin right here, no heartbeat end,
                    # no outcome for anything queued behind us — exactly
                    # what a busy-looped worker looks like from outside
                    deadline = time.monotonic() + command[1] / 1000.0
                    while time.monotonic() < deadline:
                        time.sleep(0.001)
                elif kind == CMD_DIE:
                    # abrupt nonzero exit (no unwinding, no final beats):
                    # the parent's sentinel sees exitcode > 0 -> crashed
                    os._exit(int(command[1]))
            finally:
                if agent is not None:
                    # frame before the ack, so by the time the parent
                    # sees the command retired its telemetry is merged
                    agent.flush()
                outcomes.put((OUT_HEARTBEAT, "end", None))
                outcomes.put((OUT_ACK,))
    except Exception:  # noqa: BLE001 - last gasp before the child dies
        try:
            outcomes.put((OUT_FATAL, traceback.format_exc()))
        except Exception:  # pragma: no cover - channel already gone
            pass
        os._exit(1)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ProcessShardWorker:
    """One shard running as a real OS process.

    The parent keeps a mirror of everything the serve layer reads
    synchronously — heartbeat, inbox depth, owned sources, session
    handles — updated by a small reader thread that drains the child's
    outcome queue.  The ``queue_bound`` inbox contract is enforced
    parent-side: commands in flight (submitted, not yet acked) count
    against the bound, so admission control and the epoch barrier see
    the same backpressure a thread worker's bounded inbox provides.
    """

    backend = "process"

    #: distinguishes spill files across worker generations in one run
    _spill_seq = itertools.count(1)

    def __init__(
        self,
        index: int,
        publication: SharedCSR,
        algorithm,
        rule: KeyPathRule = KeyPathRule.PRECISE,
        queue_bound: int = 64,
        clock: Callable[[], float] = time.monotonic,
        telemetry_source: Optional[
            Callable[[], Optional[Telemetry]]
        ] = None,
        spill_dir: Optional[str] = None,
        epoch: int = 0,
    ) -> None:
        self.index = index
        self.publication = publication
        self.algorithm = algorithm
        self.rule = rule
        self.queue_bound = queue_bound
        self.heartbeat = Heartbeat(clock)
        #: parent mirror: source -> destinations live on this shard
        self.groups: Dict[int, Set[int]] = {}
        #: last ``fatal`` record the child managed to send, if any
        self.last_error: Optional[str] = None
        #: deferred lookup, same contract as the thread worker — but the
        #: child's agent is armed at *spawn*: telemetry attached after the
        #: process started cannot retrofit an already-forked child
        self.telemetry_source = telemetry_source
        telemetry_on = (
            telemetry_source is not None and telemetry_source() is not None
        )
        #: where the child spills its flight ring for post-kill harvest
        self.spill_path: Optional[str] = None
        if telemetry_on and spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
            self.spill_path = os.path.join(
                spill_dir,
                f"shard-{index}-gen{next(self._spill_seq)}.jsonl",
            )
        ctx = _context()
        self.commands = ctx.Queue()
        self.outcomes = ctx.Queue()
        self.process = ctx.Process(
            target=_shard_child_main,
            args=(
                index,
                publication.meta.as_tuple(),
                algorithm.name,
                rule.value,
                self.commands,
                self.outcomes,
                telemetry_on,
                self.spill_path,
                epoch,  # the one ``publication`` was taken at
            ),
            name=f"serve-shard-{index}-proc",
            daemon=True,
        )
        #: registrations in flight: session id -> handle, held only until
        #: the child reports the bootstrap's outcome (or a deregister)
        self._sessions: Dict[str, QuerySession] = {}
        self._results: Dict[int, object] = {}
        self._state_cv = threading.Condition()
        self._pending = 0
        #: acks seen so far: command number ``_acks + _pending`` at enqueue
        #: time is retired once ``_acks`` reaches it (FIFO child)
        self._acks = 0
        #: the last ``OUT_READ`` payload, and whether the child may be
        #: asked at all (cleared by a late or unsealed reply, restored by
        #: its next epoch outcome)
        self._read_reply = (None, None)
        self._readable = True
        self._started = False
        self._stop_requested = False
        self._dead = False
        self._killed = False
        self._reader_stop = threading.Event()
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"serve-shard-{index}-reader",
            daemon=True,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the child and its reader thread (idempotent)."""
        if not self._started:
            self._started = True
            self.process.start()
            self._reader.start()

    def request_stop(self) -> None:
        """Queue a stop; the child exits at its next command boundary."""
        self._stop_requested = True
        self.commands.put((CMD_STOP,))

    def stop(self, timeout: float = 5.0) -> bool:
        """Stop the child and reclaim everything; True iff it exited.

        Escalation ladder a thread backend cannot offer: polite stop
        command → ``terminate()`` (SIGTERM) → ``kill()`` (SIGKILL).  A
        wedged process is *reclaimed*, not abandoned as a zombie.
        """
        if not self._started:
            self._close_queues()
            return True
        if self.process.is_alive():
            self.request_stop()
            self.process.join(timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(2.0)
            if self.process.is_alive():  # pragma: no cover - last resort
                self.process.kill()
                self.process.join(2.0)
        self._reader_stop.set()
        self._reader.join(timeout)
        self._close_queues()
        return not self.process.is_alive()

    def _close_queues(self) -> None:
        for q in (self.commands, self.outcomes):
            try:
                q.close()
                q.join_thread()
            except Exception:  # pragma: no cover - already closed
                pass

    @property
    def alive(self) -> bool:
        return self._started and self.process.is_alive() and not self._dead

    @property
    def started(self) -> bool:
        return self._started

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    @property
    def depth(self) -> int:
        """Commands in flight (submitted, not yet acked by the child)."""
        with self._state_cv:
            return self._pending

    # ------------------------------------------------------------------
    # commands (called from the harness / engine thread)
    # ------------------------------------------------------------------
    def submit_register(
        self,
        session: QuerySession,
        block: bool,
        timeout: Optional[float] = None,
    ) -> None:
        """Enqueue a registration; ``block=False`` raises ``queue.Full``.

        Only the session *id* crosses the channel — the parent keeps the
        session object and applies the lifecycle transitions the child
        reports back.
        """
        self._sessions[session.id] = session
        self._enqueue(
            (CMD_REGISTER, session.id, session.query.source,
             session.query.destination),
            block=block,
            timeout=timeout,
        )

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
        self._enqueue((CMD_DEREGISTER, source, destination), block=True)

    def submit_batch(
        self,
        epoch: int,
        effective: UpdateBatch,
        context=None,
        timeout: Optional[float] = None,
    ) -> None:
        """Ship one epoch's net-effect delta to the child.

        ``context`` (the ingest trace context) crosses the process
        boundary as a primitive ``(trace_id, parent_span_id)`` pair; the
        child re-activates it so its ``shard.batch`` span joins the
        ingest batch's causal tree (the frames come back over the
        outcome queue and are merged by the reader thread).  ``timeout``
        bounds the wait for inbox headroom; ``queue.Full`` on expiry is
        the engine's cue to fail the shard for the epoch.
        """
        self._enqueue(
            (CMD_BATCH, epoch, encode_batch(effective),
             encode_context(context)),
            block=True,
            timeout=timeout,
        )

    def submit_wedge(self, millis: int) -> None:
        """Wedge the child in a heartbeat-free busy loop (chaos fault)."""
        self._enqueue((CMD_WEDGE, int(millis)), block=True)

    def submit_die(self, code: int = 3) -> None:
        """Make the child exit abruptly with ``code`` (chaos crash fault)."""
        self._enqueue((CMD_DIE, int(code)), block=True)

    def kill(self) -> None:
        """SIGKILL the child — the real thing, not a simulated exception."""
        if self.process.pid is not None and self.process.is_alive():
            self._killed = True
            os.kill(self.process.pid, signal.SIGKILL)

    def _enqueue(self, command, block: bool, timeout: Optional[float] = None):
        with self._state_cv:
            if not block:
                if self._pending >= self.queue_bound:
                    raise queue.Full()
            else:
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                while self._pending >= self.queue_bound and not self._dead:
                    remaining = (
                        None if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise queue.Full()
                    self._state_cv.wait(
                        0.1 if remaining is None else min(remaining, 0.1)
                    )
            self._pending += 1
            ticket = self._acks + self._pending
        self.commands.put(command)
        return ticket

    def lookup(
        self, source: int, destination: int, epoch: int
    ) -> Optional[float]:
        """Ask the child's core for its converged value at ``epoch``.

        The request rides the FIFO command queue, so it is answered
        after every registration and batch submitted before it, and the
        wait runs to the command's *ack*, so an answered read leaves
        ``depth`` where it found it.  None — never an exception — when
        the mirror says the source is not here, the child is dead,
        retired or killed, the inbox is full, or the child missed
        :data:`READ_DEADLINE` or answered unsealed (then it is not asked
        again before its next outcome: a wedged child costs one deadline,
        not one per read).
        """
        if (source not in self.groups or not self._readable
                or self._stop_requested or self._killed or not self.alive):
            return None
        try:
            ticket = self._enqueue(
                encode_read(source, destination, epoch), block=False
            )
        except queue.Full:
            return None
        with self._state_cv:
            self._state_cv.wait_for(
                lambda: self._acks >= ticket or self._dead, READ_DEADLINE
            )
            value, sealed_epoch = self._read_reply
            if self._acks < ticket or sealed_epoch != epoch:
                self._readable = False
                return None
        return value

    def wait_outcome(self, epoch: int, timeout: float = 30.0):
        """Block until the child publishes ``epoch``'s outcome.

        One overall deadline — unrelated wake-ups (other epochs, acks)
        never restart the clock, so a silent child costs exactly
        ``timeout`` before the barrier converts it into a failed shard.
        """
        deadline = time.monotonic() + timeout
        with self._state_cv:
            while epoch not in self._results:
                if self._dead:
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
        """Human-readable account of how the child ended."""
        code = self.process.exitcode
        if code is None:
            return "is still running"
        if code < 0:
            try:
                name = signal.Signals(-code).name
            except ValueError:  # pragma: no cover - exotic signal
                name = str(-code)
            return f"was killed by {name}"
        if code == 0:
            return "exited cleanly"
        return f"crashed with exit code {code}"

    def failure_mode(self) -> Optional[str]:
        """``killed`` / ``crashed`` / ``stopped`` — or None while running.

        The taxonomy the supervision stack consumes: a negative exit
        code is a signal death (``killed``), a positive one an abnormal
        exit (``crashed``), zero a clean stop.  A hung-but-running child
        stays ``None`` here; *hung* is the health monitor's verdict
        (heartbeat silence), not an exit state.
        """
        if not self._started:
            return "stopped"
        code = self.process.exitcode
        if code is None:
            return None
        if code < 0:
            return "killed"
        if code == 0:
            return "stopped"
        return "crashed"

    def post_mortem(self) -> Dict[str, object]:
        """Flight-recorder context for this worker's death.

        Besides everything the parent still knows — exit code and
        signal, the last heartbeat it saw, and the inbox depth that was
        pending when the worker stopped answering — this harvests the
        child's flight-ring *spill file* (written after every command by
        its telemetry agent), so a SIGKILLed child's last events survive
        the loss of its address space and land in the shard-crash
        bundle.
        """
        data: Dict[str, object] = {
            "backend": self.backend,
            "shard": self.index,
            "pid": self.process.pid,
            "alive": self.alive,
            "exitcode": self.process.exitcode,
            "exit": self.exit_description(),
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
        harvested = (
            read_spill(self.spill_path)
            if self.spill_path is not None else None
        )
        if harvested is not None:
            data["child_flight"] = {
                "spill_path": self.spill_path,
                "pid": harvested["pid"],
                "events": harvested["events"],
            }
        return data

    # ------------------------------------------------------------------
    # reader thread
    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        proc = self.process
        while True:
            try:
                message = self.outcomes.get(timeout=0.1)
            except queue.Empty:
                if not proc.is_alive():
                    self._drain_and_die()
                    return
                if self._reader_stop.is_set():
                    return
                continue
            except (EOFError, OSError):  # pragma: no cover - channel torn
                self._drain_and_die()
                return
            self._dispatch(message)

    def _drain_and_die(self) -> None:
        """Flush what the dead child managed to send, then flip the flag."""
        while True:
            try:
                message = self.outcomes.get_nowait()
            except (queue.Empty, EOFError, OSError):
                break
            try:
                self._dispatch(message)
            except Exception:  # pragma: no cover - truncated final message
                break
        with self._state_cv:
            self._dead = True
            self._state_cv.notify_all()

    def _dispatch(self, message) -> None:
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
        elif tag == OUT_READ:
            self._read_reply = (message[1], message[2])
        elif tag == OUT_SESSION:
            self._apply_session_event(message[1], message[2], message[3])
        elif tag == OUT_OUTCOME:
            outcome = decode_outcome(message[1])
            for source, _ in outcome.degraded:
                self.groups.pop(source, None)
            with self._state_cv:
                self._results[outcome.epoch] = outcome
                self._readable = True
                self._state_cv.notify_all()
        elif tag == OUT_TELEMETRY:
            try:
                self._merge_telemetry(decode_telemetry_frame(message[1]))
            except Exception:  # noqa: BLE001 - telemetry never kills reads
                pass
        elif tag == OUT_FATAL:
            self.last_error = message[1]

    def _merge_telemetry(self, frame: Dict[str, object]) -> None:
        """Fold one child frame into the parent's telemetry.

        Events are re-emitted into the parent :class:`EventLog` (and thus
        re-tapped into the parent flight recorder under this reader
        thread's ring) with ``worker``/``pid`` labels and their
        timestamps shifted into the parent's clock domain via the skew
        handshake.  Counter deltas and gauge levels land in the parent
        registry with a ``worker`` label; ``span_seconds`` is re-derived
        here from the merged span durations (child histograms never
        cross the wire).
        """
        source = self.telemetry_source
        telemetry = source() if source is not None else None
        if telemetry is None:
            return  # parent stopped observing; drop the frame
        worker = f"shard-{self.index}"
        # child ts -> wall clock (child skew) -> parent perf_counter
        shift = float(frame["skew"]) - (time.time() - time.perf_counter())
        for row in frame["events"]:
            payload = dict(row)
            ts = float(payload.pop("ts")) + shift
            kind = str(payload.pop("kind"))
            name = str(payload.pop("name"))
            payload.setdefault("worker", worker)
            payload.setdefault("pid", frame["pid"])
            if "thread" in payload:
                # qualify the child's thread name with its worker so the
                # waterfall's thread column distinguishes processes
                payload["thread"] = f"{worker}/{payload['thread']}"
            telemetry.events.emit(kind, name, ts=ts, **payload)
            if kind == "span" and "duration" in payload:
                telemetry.registry.histogram(
                    "span_seconds",
                    labels={"span": name, "worker": worker},
                    buckets=DEFAULT_LATENCY_BUCKETS,
                ).observe(float(payload["duration"]))
        for name, labels, delta in frame["counters"]:
            telemetry.registry.counter(
                name, {**dict(labels), "worker": worker}
            ).inc(delta)
        for name, labels, value in frame["gauges"]:
            telemetry.registry.gauge(
                name, {**dict(labels), "worker": worker}
            ).set(value)

    def _apply_session_event(
        self, session_id: str, state: str, reason: Optional[str]
    ) -> None:
        # the one event a registration ever produces: stop pinning it
        session = self._sessions.pop(session_id, None)
        if session is None:
            return  # deregistered while the registration was in flight
        if self._stop_requested:
            return  # retired worker; the replacement owns this session now
        if state == "live":
            # mirror first: a caller woken by LIVE may read at once, and
            # :meth:`lookup` only asks the child for mirrored sources
            self.groups.setdefault(session.query.source, set()).add(
                session.query.destination
            )
            try:
                session.transition(SessionState.WARMING)
                session.transition(SessionState.LIVE)
            except SessionStateError:
                pass  # closed while still queued (or closing concurrently)
        else:
            try:
                session.transition(SessionState.DEGRADED, reason=reason)
            except SessionStateError:
                pass  # already closed by the client; nothing to report

    def __repr__(self) -> str:
        return (
            f"ProcessShardWorker(shard={self.index}, "
            f"pid={self.process.pid}, alive={self.alive})"
        )
