"""The process backend: a :class:`~repro.serve.shard.ShardWorker` whose
carrier is a child process.

The thread carrier is cheap to spawn and easy to test, but GIL-shared and
only killable by politely raising :class:`~repro.errors.ShardKilledError`
inside it.  :class:`ProcessShardWorker` keeps everything the engine,
:class:`~repro.serve.health.HealthMonitor` and
:class:`~repro.serve.supervision.Supervisor` program against — the
in-flight ledger, the session lifecycle, the outcome barrier and the
failure taxonomy, all inherited — and swaps the carrier: a child process
runs the same :func:`~repro.serve.shard.serve_commands` loop, taking
commands from one ``multiprocessing`` queue and putting its reports on
another (wire format: :mod:`repro.serve.ipc`).  The topology crosses
once, as the canonical :class:`~repro.graph.dynamic.DynamicGraph` handed
to the child at :meth:`~ProcessShardWorker.start` — a copy-on-write image
under ``fork``, pickled with the process arguments under ``spawn`` —
and per-epoch deltas ride the command queue as net-effect batches that
the child applies to that replica as it decodes them: the one carrier
that keeps a second copy is the one that applies.

What stays per carrier here: spawn and a reader thread that drains the
child's reports; the stop → SIGTERM → SIGKILL ladder; a real SIGKILL;
owned-state reads as ``CMD_READ`` round trips; :meth:`exit_description`
from the exit code; and the child's telemetry frames merged into the
parent, its crash spill harvested into :meth:`post_mortem`.

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
from typing import Callable, Dict, Optional

from repro.algorithms.registry import get_algorithm
from repro.core.classification import KeyPathRule
from repro.graph.dynamic import DynamicGraph
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS
from repro.obs.telemetry import Telemetry
from repro.serve.ipc import (
    CMD_BATCH,
    CMD_DIE,
    OUT_FATAL,
    OUT_OUTCOME,
    OUT_READ,
    OUT_TELEMETRY,
    decode_batch,
    decode_context,
    decode_outcome,
    decode_telemetry_frame,
    encode_batch,
    encode_context,
    encode_outcome,
    encode_read,
)
from repro.serve.shard import ShardCore, ShardWorker, serve_commands
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
    child inherits the canonical graph as a copy-on-write image and
    touches only that and its own queues), ``spawn`` otherwise (the graph
    is pickled, its adjacency dicts in insertion order).
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
    graph: DynamicGraph,
    algorithm_name: str,
    rule_value: str,
    commands,
    outcomes,
    telemetry_on: bool = False,
    spill_path: Optional[str] = None,
    epoch: int = 0,
) -> None:
    """Body of one shard child process.

    Builds a :class:`~repro.serve.shard.ShardCore` on ``graph`` (the
    child's own replica of the canonical graph) and runs
    :func:`~repro.serve.shard.serve_commands` on it, decoding commands
    off ``commands`` and encoding reports onto ``outcomes`` through the
    IPC codec.  With ``telemetry_on`` the child installs a
    :class:`~repro.serve.telemetry_agent.ChildTelemetryAgent`: spans join
    the ingest trace the batch command carried, and each command boundary
    flushes an ``OUT_TELEMETRY`` frame plus the crash spill file, before
    the ack, so by the time the parent sees a command retired its
    telemetry is merged.  Top-level (not a closure) so the ``spawn``
    start method can import it.
    """
    try:
        core = ShardCore(
            index, graph, get_algorithm(algorithm_name),
            KeyPathRule(rule_value), fault_hook=None, provenance=None,
            epoch=epoch,
        )
        agent = (
            ChildTelemetryAgent(index, outcomes, spill_path=spill_path)
            if telemetry_on else None
        )

        def next_command():
            command = commands.get()
            if command[0] == CMD_BATCH:
                _, at, rows, context = command
                effective = decode_batch(rows)
                # the replica takes the delta the parent applied to the
                # canonical graph; the core only reads it
                graph.apply_batch(effective, missing_ok=True)
                return (CMD_BATCH, at, effective, decode_context(context))
            if command[0] == CMD_DIE:
                # abrupt nonzero exit (no unwinding, no final beats):
                # the parent's sentinel sees exitcode > 0 -> crashed
                os._exit(int(command[1]))
            return command

        def emit(message):
            if message[0] == OUT_OUTCOME:
                message = (OUT_OUTCOME, encode_outcome(message[1]))
            outcomes.put(message)

        hooks = {} if agent is None else {
            "telemetry": lambda: agent.telemetry, "flush": agent.flush,
        }
        serve_commands(core, next_command, emit, **hooks)
    except Exception:  # noqa: BLE001 - last gasp before the child dies
        try:
            outcomes.put((OUT_FATAL, traceback.format_exc()))
        except Exception:  # pragma: no cover - channel already gone
            pass
        os._exit(1)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ProcessShardWorker(ShardWorker):
    """One shard running as a real OS process.

    The parent keeps what the serve layer reads synchronously —
    heartbeat, in-flight ledger, owned-source mirror, session handles —
    updated by a small reader thread that drains the child's reports
    into the inherited dispatch.

    ``graph`` is the engine's canonical graph; the child's replica is
    that graph as of :meth:`start`, not as of construction.  ``epoch``
    must be the epoch the graph is at then, which holds because every
    caller starts a worker before the engine applies its next batch
    (``initialize`` / ``start_shards``, ``replace_shard``, ``rescale``).
    """

    backend = "process"

    #: distinguishes spill files across worker generations in one run
    _spill_seq = itertools.count(1)

    def __init__(
        self,
        index: int,
        graph: DynamicGraph,
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
        self._setup(index, queue_bound, clock, telemetry_source)
        self.algorithm = algorithm
        self.rule = rule
        # the child's agent is armed at *spawn*: telemetry attached after
        # the process started cannot retrofit an already-forked child
        telemetry_on = self._telemetry() is not None
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
        self.process = self._runner = ctx.Process(
            target=_shard_child_main,
            args=(
                index,
                graph,
                algorithm.name,
                rule.value,
                self.commands,
                self.outcomes,
                telemetry_on,
                self.spill_path,
                epoch,
            ),
            name=f"serve-shard-{index}-proc",
            daemon=True,
        )
        #: the last ``OUT_READ`` payload, and whether the child may be
        #: asked at all (cleared by a late or unsealed reply, restored by
        #: its next epoch outcome)
        self._read_reply = (None, None)
        self._readable = True
        self._reader_stop = threading.Event()
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"serve-shard-{index}-reader",
            daemon=True,
        )

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the child and its reader thread (idempotent)."""
        if not self._started:
            super().start()
            self._reader.start()

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

    def kill(self) -> None:
        """SIGKILL the child — the real thing, not a simulated exception."""
        if self.process.pid is not None and self.process.is_alive():
            self._killed = True
            os.kill(self.process.pid, signal.SIGKILL)

    def submit_die(self, code: int = 3) -> None:
        """Make the child exit abruptly with ``code`` (chaos crash fault)."""
        self.submit((CMD_DIE, int(code)))

    def _put(self, command: tuple) -> None:
        if command[0] == CMD_BATCH:
            _, epoch, effective, context = command
            command = (CMD_BATCH, epoch, encode_batch(effective),
                       encode_context(context))
        self.commands.put(command)

    # ------------------------------------------------------------------
    # owned-state reads
    # ------------------------------------------------------------------
    def lookup(
        self, source: int, destination: int, epoch: int
    ) -> Optional[float]:
        """Ask the child's core for its converged value at ``epoch``.

        The request rides the FIFO command queue, so it is answered
        after every registration and batch submitted before it, and the
        wait runs to the command's *ack*, so an answered read leaves
        ``depth`` where it found it.  None — never an exception — when
        the mirror says the source is not here, the child is dead,
        retired or killed, the ledger is full, or the child missed
        :data:`READ_DEADLINE` or answered unsealed (then it is not asked
        again before its next outcome: a wedged child costs one deadline,
        not one per read).
        """
        if (source not in self.groups or not self._readable
                or self._stop_requested or self._killed or not self.alive):
            return None
        try:
            ticket = self.submit(
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

    # ------------------------------------------------------------------
    # failure forensics
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

    def post_mortem(self) -> Dict[str, object]:
        """Flight-recorder context for this worker's death.

        Besides everything the parent still knows — exit code and
        signal, the last heartbeat it saw, and the commands still in
        flight when the worker stopped answering — this harvests the
        child's flight-ring *spill file* (written after every command by
        its telemetry agent), so a SIGKILLed child's last events survive
        the loss of its address space and land in the shard-crash
        bundle.
        """
        data = super().post_mortem()
        data.update(
            pid=self.process.pid,
            exitcode=self.process.exitcode,
            exit=self.exit_description(),
        )
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
            self._receive(message)

    def _drain_and_die(self) -> None:
        """Flush what the dead child managed to send, then flip the flag."""
        while True:
            try:
                message = self.outcomes.get_nowait()
            except (queue.Empty, EOFError, OSError):
                break
            try:
                self._receive(message)
            except Exception:  # pragma: no cover - truncated final message
                break
        with self._state_cv:
            self._dead = True
            self._state_cv.notify_all()

    def _receive(self, message) -> None:
        """Decode one child report; read replies and telemetry stop here,
        the rest goes to the shared dispatch."""
        tag = message[0]
        if tag == OUT_TELEMETRY:
            try:
                self._merge_telemetry(decode_telemetry_frame(message[1]))
            except Exception:  # noqa: BLE001 - telemetry never kills reads
                pass
        elif tag == OUT_READ:
            self._read_reply = message[1:]
        elif tag == OUT_OUTCOME:
            self._readable = True
            self._dispatch((OUT_OUTCOME, decode_outcome(message[1])))
        else:
            self._dispatch(message)

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
        telemetry = self._telemetry()
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

    def __repr__(self) -> str:
        return (
            f"ProcessShardWorker(shard={self.index}, "
            f"pid={self.process.pid}, alive={self.alive})"
        )
