"""Admission control: token-bucket rate limiting and load shedding.

A serving layer that accepts every request melts down under the requests
it cannot finish; this module decides — *before* any work is queued —
whether a request is admitted, delayed, or rejected with a typed error:

* :class:`TokenBucket` — classic rate limiter on session registration
  (capacity = burst, steady refill rate; the clock is injectable so tests
  never sleep);
* :class:`ShedPolicy` — what to do when a bounded queue is saturated:
  ``REJECT`` fails fast with :class:`~repro.errors.QueueSaturatedError`,
  ``DELAY`` blocks the caller up to a deadline first (and only then
  rejects), trading latency for acceptance;
* :class:`AdmissionController` — the policy object the harness consults,
  owning the rejection/delay counters surfaced through telemetry
  (``serve_admission_rejections_total{reason=...}``).

Batches that already cleared admission are never shed later: once a batch
is WAL-durable it *must* reach every shard, so backpressure is applied at
the front door only (see docs/serving.md).
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ControlError, QueueSaturatedError, RateLimitedError


class ShedPolicy(enum.Enum):
    """Load-shedding behaviour when a bounded queue saturates."""

    REJECT = "reject"
    DELAY = "delay"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class TokenBucket:
    """Token-bucket rate limiter (``capacity`` burst, ``rate`` tokens/s).

    ``rate=0`` makes the bucket non-refilling — after ``capacity`` grants
    every further acquire is rejected, which is how tests exercise the
    rate-limited path deterministically.
    """

    def __init__(
        self,
        rate: float,
        capacity: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self.clock = clock
        self._tokens = float(capacity)
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self.clock()
        elapsed = now - self._stamp
        self._stamp = now
        if elapsed > 0 and self.rate > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; False means rate-limited."""
        with self._lock:
            self._refill()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    @property
    def available(self) -> float:
        """Tokens currently in the bucket (after refill)."""
        with self._lock:
            self._refill()
            return self._tokens

    def set_rate(self, rate: float) -> None:
        """Retune the refill rate live (thread-safe).

        Accrued tokens up to the change are settled at the *old* rate
        first, so a retune never retroactively rewrites history.  Unlike
        the constructor (where ``rate=0`` builds a deliberately
        non-refilling bucket) a live retune must keep the bucket alive:
        non-positive rates are rejected.
        """
        if rate <= 0:
            raise ControlError("rate must be positive")
        with self._lock:
            self._refill()
            self.rate = float(rate)

    def set_capacity(self, capacity: float) -> None:
        """Retune the burst capacity live (thread-safe).

        Non-positive capacities are rejected; on shrink, in-flight tokens
        are clamped down to the new capacity so a burst can never exceed
        the ceiling that was just imposed.
        """
        if capacity <= 0:
            raise ControlError("capacity must be positive")
        with self._lock:
            self._refill()
            self.capacity = float(capacity)
            self._tokens = min(self._tokens, self.capacity)


class AdmissionController:
    """Front-door gate for registrations and batch ingest.

    One controller guards one harness.  It holds the token bucket for
    registrations, applies the shed policy against queue-depth probes,
    and counts every outcome so operators can alarm on rejections
    instead of discovering overload from client timeouts.
    """

    def __init__(
        self,
        policy: ShedPolicy = ShedPolicy.REJECT,
        queue_bound: int = 64,
        registration_rate: float = 64.0,
        registration_burst: float = 32.0,
        delay_timeout: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if queue_bound <= 0:
            raise ValueError("queue_bound must be positive")
        if delay_timeout <= 0:
            raise ValueError("delay_timeout must be positive")
        self.policy = policy if isinstance(policy, ShedPolicy) else ShedPolicy(policy)
        self.queue_bound = queue_bound
        self.delay_timeout = delay_timeout
        self.clock = clock
        self.bucket = TokenBucket(registration_rate, registration_burst, clock=clock)
        self._lock = threading.Lock()
        self.rejections: Dict[str, int] = {}
        self.delays = 0
        self.admitted_registrations = 0
        self.admitted_batches = 0

    # ------------------------------------------------------------------
    def _count_rejection(self, reason: str) -> None:
        with self._lock:
            self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def tally(self) -> Tuple[int, int]:
        """Cumulative ``(rejected, admitted)`` admission attempts."""
        with self._lock:
            return (
                sum(self.rejections.values()),
                self.admitted_registrations + self.admitted_batches,
            )

    def rejection_counts(self) -> Dict[str, int]:
        """Cumulative rejections keyed by machine-stable reason tag."""
        with self._lock:
            return dict(self.rejections)

    # ------------------------------------------------------------------
    def admit_registration(self, depth: int) -> None:
        """Gate one session registration against rate and queue depth.

        ``depth`` is the owning shard's current inbox depth.  Raises
        :class:`RateLimitedError` or :class:`QueueSaturatedError`; returns
        normally when admitted.
        """
        if not self.bucket.try_acquire():
            self._count_rejection(RateLimitedError.reason)
            raise RateLimitedError(
                "registration rate limit exceeded "
                f"(burst {self.bucket.capacity:g}, rate {self.bucket.rate:g}/s)"
            )
        if depth >= self.queue_bound:
            self._count_rejection(QueueSaturatedError.reason)
            raise QueueSaturatedError(
                f"shard inbox saturated at {depth} >= bound {self.queue_bound}"
            )
        with self._lock:
            self.admitted_registrations += 1

    def admit_batch(self, depth_probe: Callable[[], int]) -> None:
        """Gate one update batch against the deepest shard inbox.

        ``depth_probe`` returns the current maximum shard inbox depth.
        Under ``REJECT`` a saturated probe fails immediately; under
        ``DELAY`` the caller is parked (polling) until the depth drops or
        ``delay_timeout`` elapses — only then is the batch rejected.
        """
        depth = depth_probe()
        if depth < self.queue_bound:
            with self._lock:
                self.admitted_batches += 1
            return
        if self.policy is ShedPolicy.REJECT:
            self._count_rejection(QueueSaturatedError.reason)
            raise QueueSaturatedError(
                f"ingest queue saturated at {depth} >= bound {self.queue_bound}"
            )
        # DELAY: park the producer, re-probing until the deadline
        with self._lock:
            self.delays += 1
        deadline = self.clock() + self.delay_timeout
        while self.clock() < deadline:
            time.sleep(0.001)
            if depth_probe() < self.queue_bound:
                with self._lock:
                    self.admitted_batches += 1
                return
        self._count_rejection(QueueSaturatedError.reason)
        raise QueueSaturatedError(
            f"ingest queue still saturated after {self.delay_timeout:g}s delay"
        )

    def retune(
        self,
        registration_rate: Optional[float] = None,
        registration_burst: Optional[float] = None,
        queue_bound: Optional[int] = None,
    ) -> None:
        """Apply new admission knob values live (the controller surface).

        Each knob is validated before anything changes, so a bad retune
        leaves the controller exactly as it was.  ``queue_bound`` only
        moves the *admission* threshold — the physical shard inbox bound
        is fixed at construction, so callers must keep the admission
        bound at or below it.
        """
        if registration_rate is not None and registration_rate <= 0:
            raise ControlError("registration_rate must be positive")
        if registration_burst is not None and registration_burst <= 0:
            raise ControlError("registration_burst must be positive")
        if queue_bound is not None and queue_bound <= 0:
            raise ControlError("queue_bound must be positive")
        if registration_rate is not None:
            self.bucket.set_rate(registration_rate)
        if registration_burst is not None:
            self.bucket.set_capacity(registration_burst)
        if queue_bound is not None:
            with self._lock:
                self.queue_bound = queue_bound

    def stats(self) -> Dict[str, object]:
        """Point-in-time summary for ``ServeHarness.stats()`` and the CLI."""
        with self._lock:
            return {
                "policy": self.policy.value,
                "queue_bound": self.queue_bound,
                "registration_rate": self.bucket.rate,
                "registration_burst": self.bucket.capacity,
                "admitted_registrations": self.admitted_registrations,
                "admitted_batches": self.admitted_batches,
                "delays": self.delays,
                "rejections": dict(self.rejections),
            }
