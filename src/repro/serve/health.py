"""Health primitives for the self-healing serve layer.

Three small, independently testable pieces that
:class:`repro.serve.supervision.Supervisor` composes (see
``docs/self_healing.md``):

* :class:`Heartbeat` — a monotonically increasing beat counter the worker
  thread stamps around every inbox command, with an injectable clock so
  hang detection is testable without sleeping;
* :class:`HealthMonitor` — classifies one worker as ``HEALTHY`` /
  ``HUNG`` / ``CRASHED`` / ``STOPPED`` from its thread liveness and
  heartbeat freshness;
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine (per *source*, not per shard: a flapping source group must not
  be resurrected in a tight loop, and while its circuit is open, reads
  are served from the result cache under a bounded-staleness contract).

Everything takes an injectable ``clock`` (like
:class:`repro.serve.admission.TokenBucket`) so the chaos suite can drive
cooldowns by stepping a manual clock one epoch at a time instead of
sleeping.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Callable, Dict, Optional


class ShardHealth(enum.Enum):
    """Probe verdict for one shard worker."""

    HEALTHY = "healthy"
    #: worker alive but stuck inside one command past the hang timeout
    HUNG = "hung"
    #: worker died on its own (exception, abrupt nonzero exit)
    CRASHED = "crashed"
    #: worker killed from outside (SIGKILL on the process backend, an
    #: injected kill on threads) without being asked to stop
    KILLED = "killed"
    #: never started, or deliberately stopped/retired
    STOPPED = "stopped"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Heartbeat:
    """Liveness stamps written by a worker thread, read by the monitor.

    The worker calls :meth:`begin` when it dequeues a command and
    :meth:`end` when the command finishes; the monitor reads
    ``busy_seconds`` to tell "idle" (no command in flight — however long
    ago the last beat was) from "stuck" (one command in flight for longer
    than the hang timeout).  A lock keeps the (stamp, busy) pair
    consistent across threads.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.beats = 0
        self.last_beat = clock()
        self._busy_since: Optional[float] = None
        self._busy_kind: Optional[str] = None
        self._lock = threading.Lock()

    def begin(self, kind: str) -> None:
        """Stamp the start of one command (worker thread)."""
        with self._lock:
            self.beats += 1
            self.last_beat = self.clock()
            self._busy_since = self.last_beat
            self._busy_kind = kind

    def end(self) -> None:
        """Stamp the end of the in-flight command (worker thread)."""
        with self._lock:
            self.beats += 1
            self.last_beat = self.clock()
            self._busy_since = None
            self._busy_kind = None

    @property
    def busy_seconds(self) -> float:
        """Seconds the current command has been running (0.0 when idle)."""
        with self._lock:
            if self._busy_since is None:
                return 0.0
            return max(0.0, self.clock() - self._busy_since)

    @property
    def busy_kind(self) -> Optional[str]:
        """Kind of the in-flight command, if any."""
        with self._lock:
            return self._busy_kind


#: how long one inbox command may run before the probe reports ``HUNG``
#: (diagnostic: the engine's ``epoch_deadline`` is what detects a hang at
#: the barrier)
HANG_TIMEOUT = 10.0


class HealthMonitor:
    """Classify shard workers from thread state and heartbeat freshness.

    ``hang_timeout`` is how long one inbox command may run before the
    worker is declared ``HUNG`` — it should comfortably exceed the cost
    of a full source-group bootstrap but sit below the engine's epoch
    deadline, so a hang is attributed before the barrier gives up.
    """

    def __init__(
        self,
        hang_timeout: float = HANG_TIMEOUT,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive")
        self.hang_timeout = hang_timeout
        self.clock = clock

    def probe(self, worker) -> ShardHealth:
        """Health verdict for one shard worker (either backend).

        Dead workers are refined through the worker's own
        ``failure_mode()`` sentinel — read off its exit code, which
        distinguishes a killed worker (``KILLED``) from one that crashed
        on its own.
        """
        if not worker.started:
            return ShardHealth.STOPPED
        if not worker.alive:
            if worker.stop_requested:
                return ShardHealth.STOPPED
            if worker.failure_mode() == "killed":
                return ShardHealth.KILLED
            return ShardHealth.CRASHED
        if worker.heartbeat.busy_seconds > self.hang_timeout:
            return ShardHealth.HUNG
        return ShardHealth.HEALTHY

    def probe_all(self, workers) -> Dict[int, ShardHealth]:
        """``shard index -> verdict`` over a worker collection."""
        return {worker.index: self.probe(worker) for worker in workers}


class BreakerState(enum.Enum):
    """Circuit-breaker states (standard semantics)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class CircuitBreaker:
    """Closed → open → half-open breaker with an injectable clock.

    * ``CLOSED`` — operations allowed; ``failure_threshold`` *consecutive*
      failures trip it ``OPEN`` (a success resets the streak);
    * ``OPEN`` — everything refused until ``cooldown`` seconds pass, then
      the breaker offers ``HALF_OPEN``;
    * ``HALF_OPEN`` — exactly one trial is allowed in flight; its success
      closes the breaker (streak reset), its failure re-opens it and the
      cooldown restarts.

    The supervisor keeps one breaker per *source*: resurrection of a
    flapping source group is the guarded operation, so a group that dies
    every epoch costs ``failure_threshold`` rebuilds and then waits out
    the cooldown instead of melting the ingest thread with rebuild storms.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.clock = clock
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._trial_inflight = False
        # cumulative observability counters
        self.failures = 0
        self.successes = 0
        self.opens = 0
        self.refusals = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        """Current state; lazily promotes OPEN to HALF_OPEN after cooldown."""
        if (
            self._state is BreakerState.OPEN
            and self._opened_at is not None
            and self.clock() - self._opened_at >= self.cooldown
        ):
            self._state = BreakerState.HALF_OPEN
            self._trial_inflight = False
        return self._state

    def allow(self) -> bool:
        """May one guarded operation start now?

        ``HALF_OPEN`` grants exactly one trial: the first caller gets
        ``True``, everyone else ``False`` until the trial is resolved via
        :meth:`record_success` / :meth:`record_failure`.
        """
        state = self.state
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.HALF_OPEN and not self._trial_inflight:
            self._trial_inflight = True
            return True
        self.refusals += 1
        return False

    def record_success(self) -> None:
        """The guarded operation succeeded; close and reset the streak."""
        self.successes += 1
        self._consecutive_failures = 0
        self._state = BreakerState.CLOSED
        self._opened_at = None
        self._trial_inflight = False

    def record_failure(self) -> None:
        """The guarded operation failed; may trip or re-open the breaker."""
        self.failures += 1
        self._consecutive_failures += 1
        if self._state is BreakerState.HALF_OPEN:
            # the trial failed: straight back to OPEN, cooldown restarts
            self._trip()
        elif (
            self._state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._trip()
        elif self._state is BreakerState.OPEN:
            self._opened_at = self.clock()  # failures while open re-stamp

    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self.clock()
        self._trial_inflight = False
        self.opens += 1

    def as_dict(self) -> Dict[str, object]:
        """Point-in-time summary (stats/telemetry surface)."""
        return {
            "state": self.state.value,
            "consecutive_failures": self._consecutive_failures,
            "failures": self.failures,
            "successes": self.successes,
            "opens": self.opens,
            "refusals": self.refusals,
        }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state.value}, "
            f"streak={self._consecutive_failures}/{self.failure_threshold})"
        )
