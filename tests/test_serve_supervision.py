"""Unit tests for the self-healing primitives behind the serve layer.

Covers the pieces :mod:`repro.serve.supervision` composes — heartbeats,
health probes, the per-source circuit breaker — each on a manual clock so
nothing here sleeps, plus the supervisor's review loop over a real (tiny)
sharded engine, the harness's degraded-read contract, strict shard
shutdown, and shard replacement.  The end-to-end healing paths (kill /
hang / tear schedules against a live stream) live in ``test_chaos.py``.
"""

import threading

import pytest

from repro.algorithms import PPSP
from repro.errors import ShardShutdownError
from repro.query import PairwiseQuery
from repro.resilience.chaos import ManualClock
from repro.serve import (
    BreakerState,
    CircuitBreaker,
    HealthMonitor,
    Heartbeat,
    ReadResult,
    ServeHarness,
    SessionState,
    ShardHealth,
    ShardedServeEngine,
    Supervisor,
    SupervisorConfig,
)
from repro.serve.session import SessionRegistry
from tests.conftest import random_batch, random_graph

pytestmark = pytest.mark.serve

ANCHOR = PairwiseQuery(7, 23)


class TestHeartbeat:
    def test_idle_heartbeat_reports_no_busy_time(self):
        clock = ManualClock()
        beat = Heartbeat(clock)
        clock.advance(100.0)  # idle forever is not a hang
        assert beat.busy_seconds == 0.0
        assert beat.busy_kind is None
        assert beat.beats == 0

    def test_busy_time_tracks_the_inflight_command(self):
        clock = ManualClock()
        beat = Heartbeat(clock)
        beat.begin("batch")
        assert beat.busy_kind == "batch"
        clock.advance(3.5)
        assert beat.busy_seconds == 3.5
        beat.end()
        assert beat.busy_seconds == 0.0
        assert beat.busy_kind is None
        assert beat.beats == 2


class _FakeWorker:
    """Just enough surface for HealthMonitor.probe."""

    def __init__(self, clock, index=0, started=True, alive=True,
                 stop_requested=False):
        self.index = index
        self.started = started
        self.alive = alive
        self.stop_requested = stop_requested
        self.heartbeat = Heartbeat(clock)

    def failure_mode(self):
        return None if self.alive else "crashed"


class TestHealthMonitor:
    def test_hang_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            HealthMonitor(hang_timeout=0.0)

    def test_probe_classifies_every_verdict(self):
        clock = ManualClock()
        monitor = HealthMonitor(hang_timeout=5.0, clock=clock)
        never_started = _FakeWorker(clock, index=0, started=False)
        retired = _FakeWorker(clock, index=1, alive=False, stop_requested=True)
        crashed = _FakeWorker(clock, index=2, alive=False)
        healthy = _FakeWorker(clock, index=3)
        assert monitor.probe(never_started) is ShardHealth.STOPPED
        assert monitor.probe(retired) is ShardHealth.STOPPED
        assert monitor.probe(crashed) is ShardHealth.CRASHED
        assert monitor.probe(healthy) is ShardHealth.HEALTHY

    def test_probe_flags_a_stuck_command_but_not_a_slow_one(self):
        clock = ManualClock()
        monitor = HealthMonitor(hang_timeout=5.0, clock=clock)
        worker = _FakeWorker(clock)
        worker.heartbeat.begin("batch")
        clock.advance(4.9)
        assert monitor.probe(worker) is ShardHealth.HEALTHY
        clock.advance(0.2)  # now past the hang timeout
        assert monitor.probe(worker) is ShardHealth.HUNG
        worker.heartbeat.end()
        assert monitor.probe(worker) is ShardHealth.HEALTHY

    def test_probe_all_keys_by_shard_index(self):
        clock = ManualClock()
        monitor = HealthMonitor(hang_timeout=5.0, clock=clock)
        workers = [_FakeWorker(clock, index=i) for i in (0, 1)]
        workers[1].alive = False
        assert monitor.probe_all(workers) == {
            0: ShardHealth.HEALTHY,
            1: ShardHealth.CRASHED,
        }


class TestCircuitBreaker:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)

    def test_a_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=ManualClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_threshold_consecutive_failures_trip_it_open(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.refusals == 2
        assert breaker.opens == 1

    def test_cooldown_offers_exactly_one_half_open_trial(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(4.9)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.1)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()       # the one trial
        assert not breaker.allow()   # everyone else waits for the verdict
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_failed_trial_reopens_and_restarts_the_cooldown(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # the trial resurrection died too
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        clock.advance(4.9)  # the *full* cooldown applies again
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.1)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_failures_while_open_restamp_the_cooldown(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(3.0)
        breaker.record_failure()  # still failing mid-cooldown
        clock.advance(3.0)        # 6s since trip, 3s since last failure
        assert breaker.state is BreakerState.OPEN
        clock.advance(2.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_as_dict_summarises_counters(self):
        breaker = CircuitBreaker(failure_threshold=1, clock=ManualClock())
        breaker.record_failure()
        breaker.allow()
        snapshot = breaker.as_dict()
        assert snapshot["state"] == "open"
        assert snapshot["failures"] == 1
        assert snapshot["opens"] == 1
        assert snapshot["refusals"] == 1


class TestSupervisorConfig:
    @pytest.mark.parametrize("field, value", [
        ("failure_threshold", 0),
        ("breaker_cooldown", 0.0),
        ("max_staleness", -1),
    ])
    def test_validation_rejects_bad_values(self, field, value):
        config = SupervisorConfig(**{field: value})
        with pytest.raises(ValueError):
            config.validate()


def _quiet_engine(clock, num_shards=2):
    """An engine whose shard threads are never started: supervisor review
    runs deterministically (register commands just queue in the inbox)."""
    graph = random_graph(30, 150, seed=5)
    return ShardedServeEngine(graph, PPSP(), ANCHOR, num_shards=num_shards,
                              clock=clock)


class TestSupervisorReview:
    def test_constructor_flips_the_engine_into_tolerant_mode(self):
        engine = _quiet_engine(ManualClock())
        assert engine.tolerate_shard_failures is False
        Supervisor(engine, SessionRegistry())
        assert engine.tolerate_shard_failures is True
        engine.close()

    def test_new_outage_is_counted_once_and_rescued_when_closed(self):
        clock = ManualClock()
        engine = _quiet_engine(clock)
        registry = SessionRegistry()
        supervisor = Supervisor(
            engine, registry,
            config=SupervisorConfig(failure_threshold=2, breaker_cooldown=4.0),
            clock=clock,
        )
        session = registry.register(PairwiseQuery(1, 5))
        session.transition(SessionState.DEGRADED, reason="boom")

        tallies = supervisor.review(_Empty())
        assert tallies["new_outages"] == 1
        assert tallies["resurrected"] == 1
        # requeued for the normal warm-up path on its owning shard
        assert session.state is SessionState.PENDING
        assert session.resurrections == 1
        assert supervisor.breaker(1).failures == 1
        # the outage was counted once; a second review of the same pass
        # must not extend the streak (the source is pending confirmation)
        supervisor.review(_Empty())
        assert supervisor.breaker(1).failures == 1
        engine.close()

    def test_open_breaker_blocks_then_half_open_trial_rescues(self):
        clock = ManualClock()
        engine = _quiet_engine(clock)
        registry = SessionRegistry()
        supervisor = Supervisor(
            engine, registry,
            config=SupervisorConfig(failure_threshold=1, breaker_cooldown=3.0),
            clock=clock,
        )
        session = registry.register(PairwiseQuery(1, 5))
        session.transition(SessionState.DEGRADED, reason="boom")

        tallies = supervisor.review(_Empty())
        # threshold 1: the first failure trips the breaker, so the very
        # rescue that would requeue the session is refused
        assert tallies["blocked"] == 1
        assert session.state is SessionState.DEGRADED
        assert supervisor.breaker_open(1)

        clock.advance(3.0)  # cooldown over: HALF_OPEN offers one trial
        tallies = supervisor.review(_Empty())
        assert tallies["resurrected"] == 1
        assert session.state is SessionState.PENDING
        # half-open still counts as "not closed" for the read path
        assert supervisor.breaker_open(1)

        session.transition(SessionState.LIVE)
        tallies = supervisor.review(_Empty())
        assert tallies["confirmed"] == 1
        assert supervisor.breaker(1).state is BreakerState.CLOSED
        assert not supervisor.breaker_open(1)
        assert supervisor.stats()["awaiting_rescue"] == 0
        engine.close()

    def test_failed_trial_retrips_the_breaker(self):
        clock = ManualClock()
        engine = _quiet_engine(clock)
        registry = SessionRegistry()
        supervisor = Supervisor(
            engine, registry,
            config=SupervisorConfig(failure_threshold=1, breaker_cooldown=3.0),
            clock=clock,
        )
        session = registry.register(PairwiseQuery(1, 5))
        session.transition(SessionState.DEGRADED, reason="boom")
        supervisor.review(_Empty())           # outage counted, rescue blocked
        clock.advance(3.0)
        supervisor.review(_Empty())           # half-open trial requeues it
        session.transition(SessionState.DEGRADED, reason="boom again")
        supervisor.review(_Empty())           # the trial itself failed
        breaker = supervisor.breaker(1)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        assert session.state is SessionState.DEGRADED
        engine.close()

    def test_outage_resolved_by_closing_every_session(self):
        clock = ManualClock()
        engine = _quiet_engine(clock)
        registry = SessionRegistry()
        supervisor = Supervisor(
            engine, registry,
            config=SupervisorConfig(failure_threshold=1, breaker_cooldown=3.0),
            clock=clock,
        )
        session = registry.register(PairwiseQuery(1, 5))
        session.transition(SessionState.DEGRADED, reason="boom")
        supervisor.review(_Empty())            # blocked behind the breaker
        registry.close(session.id)             # client gave up meanwhile
        clock.advance(3.0)
        supervisor.review(_Empty())
        assert supervisor.stats()["awaiting_rescue"] == 0
        assert supervisor.session_resurrections == 0
        engine.close()

    def test_review_respawns_every_failed_shard(self):
        engine = _quiet_engine(ManualClock())
        engine.initialize()
        supervisor = Supervisor(engine, SessionRegistry())
        dead = engine.shards[1]
        result = _Empty()
        result.failed_shards = [(1, "injected")]
        tallies = supervisor.review(result)
        assert tallies["restarted"] == 1
        assert supervisor.shard_restarts == 1
        assert engine.shards[1] is not dead
        assert engine.shards[1].alive
        assert engine.retired == [dead]
        engine.close()

    def test_health_probe_covers_the_current_pool(self):
        engine = _quiet_engine(ManualClock())
        engine.initialize()
        supervisor = Supervisor(engine, SessionRegistry())
        verdicts = supervisor.health()
        assert verdicts == {0: ShardHealth.HEALTHY, 1: ShardHealth.HEALTHY}
        assert supervisor.stats()["health"] == {0: "healthy", 1: "healthy"}
        engine.close()


class _Empty:
    """A zero-failure ServeBatchResult stand-in for driving review()."""

    failed_shards = []


def _park_worker(worker):
    """Wedge ``worker`` inside a barrier command; returns the release gate.

    Waits until the command is actually in flight — a stop request that
    lands before the dequeue would make the worker exit early instead of
    parking (the serve loop checks ``stop_requested`` at dequeue time).
    """
    import time

    gate = threading.Event()
    worker.submit(("barrier", gate))
    deadline = time.monotonic() + 5.0
    while worker.heartbeat.busy_kind != "barrier":
        assert time.monotonic() < deadline, "worker never parked"
        time.sleep(0.005)
    return gate


class TestShardShutdown:
    def test_strict_close_raises_on_a_wedged_worker(self):
        engine = _quiet_engine(ManualClock())
        engine.initialize()
        gate = _park_worker(engine.shards[0])
        try:
            with pytest.raises(ShardShutdownError, match=r"\[0\]"):
                engine.close(timeout=0.2)
        finally:
            gate.set()
        engine.close()  # idempotent; now everyone joins cleanly

    def test_non_strict_close_swallows_stragglers(self):
        engine = _quiet_engine(ManualClock())
        engine.initialize()
        gate = _park_worker(engine.shards[0])
        engine.close(timeout=0.2, strict=False)  # must not raise
        gate.set()
        engine.close()


class TestDegradedReads:
    def _open(self, tmp_path, graph, hook, clock, threshold=1,
              max_staleness=8):
        return ServeHarness.open(
            str(tmp_path / "state"), graph.copy(), PPSP(), ANCHOR,
            num_shards=2, fault_hook=hook, clock=clock,
            supervision=SupervisorConfig(
                failure_threshold=threshold,
                breaker_cooldown=50.0,  # stays open for the whole test
                max_staleness=max_staleness,
            ),
        )

    def _run_outage(self, tmp_path, max_staleness=8):
        graph = random_graph(50, 300, seed=20)
        reference = graph.copy()
        batches = []
        for index in range(3):
            batch = random_batch(reference, 10, 10, seed=900 + index)
            reference.apply_batch(batch)
            batches.append(batch)

        def explode_source_1(kind, source, epoch):
            if kind == "batch" and source == 1 and epoch == 2:
                raise RuntimeError("injected shard fault")

        clock = ManualClock()
        harness = self._open(tmp_path, graph, explode_source_1, clock,
                             max_staleness=max_staleness)
        harness.register(1, 20)
        harness.register(2, 30)
        assert harness.wait_all_live()
        first = harness.submit(batches[0])
        second = harness.submit(batches[1])
        assert second.degraded == [(1, "injected shard fault")]
        return harness, first, second, batches

    def test_open_circuit_serves_the_last_known_answer(self, tmp_path):
        harness, first, second, batches = self._run_outage(tmp_path)
        with harness:
            assert harness.supervisor.breaker_open(1)
            outcome = harness.read(1, 20)
            assert isinstance(outcome, ReadResult)
            assert outcome.degraded
            # the failed epoch produced no answer for source 1, so the
            # last-known value is the previous epoch's exact answer
            assert outcome.stale_epochs == 1
            assert outcome.value == first.answers[(1, 20)]
            assert harness.supervisor.degraded_reads == 1
            # a healthy source reads fresh and unflagged
            healthy = harness.read(2, 30)
            assert healthy == ReadResult(second.answers[(2, 30)], epoch=2)
            # query() stays the bare-value compatibility front
            assert harness.query(1, 20) == outcome.value

    def test_staleness_bound_forces_a_flagged_recompute(self, tmp_path):
        harness, first, second, batches = self._run_outage(
            tmp_path, max_staleness=0
        )
        with harness:
            outcome = harness.read(1, 20)
            # the last-known answer is one epoch old — too stale for a
            # zero-staleness contract — so the read recomputed the exact
            # current answer but still carries the degraded flag
            assert outcome.degraded
            assert outcome.stale_epochs == 0
            # the canonical graph committed both batches even though the
            # source's group failed, so the recompute is current-exact
            from repro.core.engine import CISGraphEngine

            oracle = CISGraphEngine(
                harness.engine.graph.copy(), PPSP(), PairwiseQuery(1, 20)
            )
            assert outcome.value == oracle.initialize()
