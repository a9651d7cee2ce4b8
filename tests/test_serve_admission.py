"""Unit tests for admission control: token bucket and load shedding."""

import pytest

from repro.errors import (
    AdmissionError,
    QueueSaturatedError,
    RateLimitedError,
)
from repro.serve.admission import AdmissionController, ShedPolicy, TokenBucket

pytestmark = pytest.mark.serve


class FakeClock:
    """Deterministic injectable clock: advances only when told to."""

    def __init__(self, start: float = 0.0, step: float = 0.0) -> None:
        self.now = start
        #: advance applied on every read (for deadline-loop tests)
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, capacity=3.0, clock=clock)
        assert all(bucket.try_acquire() for _ in range(3))
        assert not bucket.try_acquire()

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=4.0, clock=clock)
        for _ in range(4):
            bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(1.0)  # +2 tokens
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, capacity=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.available == pytest.approx(2.0)

    def test_rate_zero_never_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.0, capacity=2.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        clock.advance(1e6)
        assert not bucket.try_acquire()

    def test_fractional_acquire(self):
        bucket = TokenBucket(rate=0.0, capacity=1.0, clock=FakeClock())
        assert bucket.try_acquire(0.5)
        assert bucket.try_acquire(0.5)
        assert not bucket.try_acquire(0.5)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0.0)


# ----------------------------------------------------------------------
# registration admission
# ----------------------------------------------------------------------
class TestRegistrationAdmission:
    def test_admits_under_rate_and_bound(self):
        controller = AdmissionController(
            queue_bound=4, registration_rate=0.0, registration_burst=2.0,
            clock=FakeClock(),
        )
        controller.admit_registration(depth=0)
        controller.admit_registration(depth=3)
        assert controller.admitted_registrations == 2
        assert controller.rejection_counts() == {}

    def test_rate_limited_raises_and_counts(self):
        controller = AdmissionController(
            queue_bound=4, registration_rate=0.0, registration_burst=1.0,
            clock=FakeClock(),
        )
        controller.admit_registration(depth=0)
        with pytest.raises(RateLimitedError):
            controller.admit_registration(depth=0)
        assert controller.rejection_counts() == {"rate-limited": 1}
        assert controller.tally() == (1, 1)

    def test_saturated_queue_raises_and_counts(self):
        controller = AdmissionController(
            queue_bound=2, registration_rate=0.0, registration_burst=8.0,
            clock=FakeClock(),
        )
        with pytest.raises(QueueSaturatedError):
            controller.admit_registration(depth=2)
        assert controller.rejection_counts() == {"queue-saturated": 1}
        assert controller.admitted_registrations == 0

    def test_admission_errors_share_a_catchable_base(self):
        controller = AdmissionController(
            queue_bound=1, registration_rate=0.0, registration_burst=1.0,
            clock=FakeClock(),
        )
        controller.admit_registration(depth=0)
        with pytest.raises(AdmissionError):
            controller.admit_registration(depth=0)


# ----------------------------------------------------------------------
# batch admission and shed policies
# ----------------------------------------------------------------------
class TestBatchAdmission:
    def test_reject_policy_fails_fast(self):
        controller = AdmissionController(
            policy=ShedPolicy.REJECT, queue_bound=2, clock=FakeClock(),
        )
        controller.admit_batch(lambda: 1)
        with pytest.raises(QueueSaturatedError):
            controller.admit_batch(lambda: 2)
        assert controller.admitted_batches == 1
        assert controller.delays == 0
        assert controller.rejection_counts() == {"queue-saturated": 1}

    def test_delay_policy_admits_once_depth_drops(self):
        clock = FakeClock()  # never reaches the deadline on its own
        controller = AdmissionController(
            policy=ShedPolicy.DELAY, queue_bound=2, delay_timeout=5.0,
            clock=clock,
        )
        probes = iter([2, 2, 1])  # saturated, saturated, clears
        controller.admit_batch(lambda: next(probes))
        assert controller.delays == 1
        assert controller.admitted_batches == 1
        assert controller.rejection_counts() == {}

    def test_delay_policy_rejects_after_deadline(self):
        # every clock read advances 1s, so the 2s deadline expires quickly
        clock = FakeClock(step=1.0)
        controller = AdmissionController(
            policy=ShedPolicy.DELAY, queue_bound=1, delay_timeout=2.0,
            clock=clock,
        )
        with pytest.raises(QueueSaturatedError):
            controller.admit_batch(lambda: 1)
        assert controller.delays == 1
        assert controller.rejection_counts() == {"queue-saturated": 1}

    def test_policy_accepts_string_value(self):
        controller = AdmissionController(policy="delay", clock=FakeClock())
        assert controller.policy is ShedPolicy.DELAY


class TestStats:
    def test_stats_summarises_everything(self):
        controller = AdmissionController(
            policy=ShedPolicy.REJECT, queue_bound=2,
            registration_rate=0.0, registration_burst=1.0, clock=FakeClock(),
        )
        controller.admit_registration(depth=0)
        with pytest.raises(RateLimitedError):
            controller.admit_registration(depth=0)
        controller.admit_batch(lambda: 0)
        stats = controller.stats()
        assert stats["policy"] == "reject"
        assert stats["queue_bound"] == 2
        assert stats["admitted_registrations"] == 1
        assert stats["admitted_batches"] == 1
        assert stats["rejections"] == {"rate-limited": 1}

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(queue_bound=0)
        with pytest.raises(ValueError):
            AdmissionController(delay_timeout=0.0)
