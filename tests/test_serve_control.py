"""Adaptive runtime control: decision engine, knobs, and the live loop.

Three layers under test: the retunable knobs themselves (token bucket
rates, admission retune — all validated and thread-safe),
the pure :class:`~repro.serve.control.DecisionEngine` (deterministic on
identical signal streams, flap-proof inside the hysteresis band, clamped
to its derived shard ceiling), and the side-effecting
:class:`~repro.serve.control.RuntimeController` driving a real
:class:`~repro.serve.harness.ServeHarness` — live shard rescale with
session migration, the freeze/thaw kill switch, and the audit trail.
"""

import json
import random

import pytest

from repro.algorithms import PPSP
from repro.errors import ControlError, SessionClosedError
from repro.query import PairwiseQuery
from repro.serve import (
    Condition,
    ControlSignals,
    DecisionEngine,
    SLOPolicy,
    SLOVerdict,
    ServeHarness,
    SessionState,
    TokenBucket,
)
from repro.serve.admission import AdmissionController
from repro.serve.control import KNOBS, write_audit
from tests.conftest import random_batch, random_graph

pytestmark = pytest.mark.serve

ANCHOR = PairwiseQuery(7, 23)
PAIRS = [(1, 20), (2, 30), (3, 40), (4, 50)]


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


#: a baseline every engine test shares (mirrors the harness defaults)
BASELINE = {
    "shards": 2.0,
    "admission_rate": 64.0,
    "admission_burst": 32.0,
    "max_staleness": 8.0,
}


def signals(**overrides) -> ControlSignals:
    """A healthy-epoch signal frame with selective overrides."""
    frame = dict(
        epoch=1,
        num_shards=2,
        queue_bound=64,
        depth_max=0,
        groups_max=2,
        groups_total=4,
        rejections_delta=0,
        saturated_delta=0,
        breakers_open=0,
        degraded_sessions=0,
        staleness_served=0,
        admission_rate=64.0,
        admission_burst=32.0,
        max_staleness=8,
    )
    frame.update(overrides)
    return ControlSignals(**frame)


# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------
class TestSLOPolicy:
    def test_validation(self):
        SLOPolicy().validate()
        with pytest.raises(ControlError):
            SLOPolicy(answer_p99=0.0).validate()
        with pytest.raises(ControlError):
            SLOPolicy(staleness_bound=-1).validate()
        with pytest.raises(ControlError):
            SLOPolicy(shed_rate=1.5).validate()

    def test_verdict_grades_each_objective(self):
        policy = SLOPolicy(answer_p99=0.1, staleness_bound=1, shed_rate=0.2)
        good = SLOVerdict.grade(policy, [0.01, 0.02], 1, 0.1)
        assert good.met and good.violations == ()
        bad = SLOVerdict.grade(policy, [0.5], 3, 0.9)
        assert not bad.met
        assert len(bad.violations) == 3
        assert bad.as_dict()["met"] is False

    def test_empty_latency_sample_grades_as_zero(self):
        verdict = SLOVerdict.grade(SLOPolicy(), [], 0, 0.0)
        assert verdict.answer_p99 == 0.0 and verdict.met


# ----------------------------------------------------------------------
# retunable knobs
# ----------------------------------------------------------------------
class TestTokenBucketRetune:
    def test_set_rate_validates(self):
        bucket = TokenBucket(rate=2.0, capacity=4.0, clock=FakeClock())
        with pytest.raises(ControlError):
            bucket.set_rate(0.0)
        with pytest.raises(ControlError):
            bucket.set_rate(-1.0)

    def test_set_rate_refills_at_the_old_rate_first(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, capacity=10.0, clock=clock)
        for _ in range(10):
            assert bucket.try_acquire()
        clock.advance(2.0)  # two units owed at the OLD rate of 1/s
        bucket.set_rate(100.0)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()  # not 200 tokens

    def test_set_capacity_clamps_tokens_on_shrink(self):
        bucket = TokenBucket(rate=1.0, capacity=8.0, clock=FakeClock())
        bucket.set_capacity(2.0)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        with pytest.raises(ControlError):
            bucket.set_capacity(0.0)

    def test_retune_validates_before_applying_anything(self):
        admission = AdmissionController(
            registration_rate=4.0, registration_burst=8.0, clock=FakeClock()
        )
        with pytest.raises(ControlError):
            admission.retune(registration_rate=16.0, queue_bound=-5)
        stats = admission.stats()
        assert stats["registration_rate"] == 4.0  # nothing moved
        admission.retune(registration_rate=16.0, registration_burst=32.0)
        stats = admission.stats()
        assert stats["registration_rate"] == 16.0
        assert stats["registration_burst"] == 32.0


# ----------------------------------------------------------------------
# the pure decision engine
# ----------------------------------------------------------------------
class TestDecisionEngine:
    def test_engine_requires_complete_baseline(self):
        with pytest.raises(ControlError):
            DecisionEngine(SLOPolicy(), {"shards": 2.0})

    def test_clamp_reports_crossing(self):
        engine = DecisionEngine(SLOPolicy(), dict(BASELINE))
        assert engine.clamp("shards", 3.0) == (3.0, False)
        assert engine.clamp("shards", 9.0) == (4.0, True)
        assert engine.clamp("shards", 0.0) == (1.0, True)

    def test_overload_with_headroom_opens_admission(self):
        engine = DecisionEngine(SLOPolicy(), dict(BASELINE))
        condition, decisions = engine.step(
            signals(rejections_delta=5, admission_rate=2.0, admission_burst=6.0)
        )
        assert condition is Condition.OVERLOAD
        assert {d.knob for d in decisions} == {
            "admission_rate", "admission_burst"
        }

    def test_overload_when_saturated_adds_a_shard(self):
        engine = DecisionEngine(SLOPolicy(), dict(BASELINE))
        condition, decisions = engine.step(
            signals(rejections_delta=3, saturated_delta=3, depth_max=60)
        )
        assert condition is Condition.OVERLOAD
        assert [d.knob for d in decisions] == ["shards"]
        assert decisions[0].new == 3.0

    def test_degraded_reads_narrow_staleness_to_the_slo(self):
        engine = DecisionEngine(SLOPolicy(staleness_bound=1), dict(BASELINE))
        condition, decisions = engine.step(signals(epoch=2, breakers_open=2))
        assert condition is Condition.DEGRADED_READS
        assert [(d.knob, d.new) for d in decisions] == [("max_staleness", 1.0)]

    def test_hot_skew_adds_a_shard(self):
        engine = DecisionEngine(SLOPolicy(), dict(BASELINE))
        condition, decisions = engine.step(
            signals(groups_max=10, groups_total=12)
        )
        assert condition is Condition.HOT_SKEW
        assert [d.knob for d in decisions] == ["shards"]

    def test_idle_relaxes_only_after_the_streak(self):
        engine = DecisionEngine(SLOPolicy(), dict(BASELINE))
        grown = dict(admission_rate=512.0, admission_burst=256.0)
        for epoch in (1, 2):
            condition, decisions = engine.step(signals(epoch=epoch, **grown))
            assert condition is Condition.HEALTHY and not decisions
        condition, decisions = engine.step(signals(epoch=3, **grown))
        assert condition is Condition.IDLE
        assert {d.knob for d in decisions} == {
            "admission_rate", "admission_burst"
        }

    def test_scale_up_clamps_at_max_shards(self):
        engine = DecisionEngine(SLOPolicy(), dict(BASELINE))
        assert engine.max_shards == 4  # max(4, 2 x baseline 2)
        wide = DecisionEngine(SLOPolicy(), dict(BASELINE, shards=3.0))
        assert wide.max_shards == 6
        condition, decisions = engine.step(
            signals(num_shards=4, rejections_delta=1, saturated_delta=1)
        )
        # the clamp turns 5 shards back into 4 == current -> no-op
        assert condition is Condition.OVERLOAD
        assert decisions == []


class TestFlapGuard:
    def test_oscillating_load_in_the_band_produces_zero_decisions(self):
        """The regression: depth bouncing 0.4 <-> 0.6 of bound must not
        move any knob — both sides sit inside the hysteresis band."""
        engine = DecisionEngine(SLOPolicy(), dict(BASELINE))
        for epoch in range(1, 41):
            depth = 26 if epoch % 2 else 38  # 0.41 / 0.59 of bound 64
            condition, decisions = engine.step(
                signals(epoch=epoch, depth_max=depth)
            )
            assert condition is Condition.HEALTHY
            assert decisions == []


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_identical_signal_streams_identical_decisions(self, seed):
        """Property: the engine is a pure function of the signal stream —
        two instances fed the same seeded stream agree decision-for-
        decision (epoch, knob, target, condition, reason)."""
        stream = self._stream(seed, epochs=60)
        left = self._run(stream)
        right = self._run(stream)
        assert left == right
        assert any(left)  # the stream actually provoked decisions

    @staticmethod
    def _stream(seed, epochs):
        rng = random.Random(seed)
        frames = []
        state = dict(
            num_shards=2, admission_rate=8.0, admission_burst=16.0,
            max_staleness=8,
        )
        for epoch in range(1, epochs + 1):
            roll = rng.random()
            frame = signals(
                epoch=epoch,
                depth_max=rng.randrange(0, 64),
                rejections_delta=rng.randrange(0, 4) if roll < 0.3 else 0,
                saturated_delta=rng.randrange(0, 2) if roll < 0.15 else 0,
                breakers_open=1 if roll > 0.9 else 0,
                groups_max=rng.randrange(2, 12),
                groups_total=12,
                **state,
            )
            frames.append(frame)
        return frames

    @staticmethod
    def _run(stream):
        engine = DecisionEngine(SLOPolicy(), dict(BASELINE))
        out = []
        for frame in stream:
            condition, decisions = engine.step(frame)
            out.append((
                condition.value,
                tuple(
                    (d.epoch, d.knob, d.new, d.reason, d.clamped)
                    for d in decisions
                ),
            ))
        return out


# ----------------------------------------------------------------------
# the live loop
# ----------------------------------------------------------------------
def _open(tmp_path, **kwargs):
    graph = random_graph(60, 360, seed=5)
    harness = ServeHarness.open(
        str(tmp_path / "state"), graph, PPSP(), ANCHOR, num_shards=2,
        **kwargs,
    )
    return graph, harness


def _batches(graph, count, seed=5):
    reference = graph.copy()
    batches = []
    for index in range(count):
        batch = random_batch(reference, 8, 8, seed=seed * 97 + index)
        reference.apply_batch(batch)
        batches.append(batch)
    return batches


class TestRuntimeController:
    def test_rescale_migrates_sessions_and_keeps_answering(self, tmp_path):
        graph, harness = _open(tmp_path)
        with harness:
            sessions = {pair: harness.register(*pair) for pair in PAIRS}
            assert harness.wait_all_live(timeout=10.0)
            batches = _batches(graph, 4)
            harness.submit(batches[0])
            before = {
                pair: session.last_answer
                for pair, session in sessions.items()
            }
            harness.rescale_shards(3)
            assert harness.engine.num_shards == 3
            result = harness.submit(batches[1])
            # every standing query answered in the very epoch after the
            # rescale — migration requeued and warmed all of them
            assert set(result.answers) == set(PAIRS)
            assert all(
                sessions[pair].state is SessionState.LIVE for pair in PAIRS
            )
            assert before  # sanity: they had answers before, too

    def test_freeze_reverts_and_stops_thaw_resumes(self, tmp_path):
        graph, harness = _open(tmp_path)
        with harness:
            controller = harness.attach_controller()
            assert harness.attach_controller() is controller  # idempotent
            for pair in PAIRS:
                harness.register(*pair)
            assert harness.wait_all_live(timeout=10.0)
            harness.rescale_shards(3)
            harness.admission.retune(registration_rate=512.0)
            reverts = controller.freeze(reason="test")
            assert controller.frozen
            assert {d.knob for d in reverts} >= {"shards", "admission_rate"}
            assert harness.engine.num_shards == 2
            assert harness.admission.bucket.rate == 64.0
            # frozen: reviews are inert
            result = harness.submit(_batches(graph, 1)[0])
            assert controller.review(result) == []
            assert controller.freeze(reason="again") == []  # idempotent
            controller.thaw()
            assert not controller.frozen
            stats = controller.stats()
            assert stats["frozen"] is False
            assert stats["decisions_total"] == len(reverts)

    def test_audit_export_round_trips(self, tmp_path):
        graph, harness = _open(tmp_path)
        with harness:
            controller = harness.attach_controller()
            harness.rescale_shards(3)
            controller.freeze(reason="export-test")
            path = tmp_path / "audit.jsonl"
            count = write_audit(
                str(path), [d.as_dict() for d in controller.audit]
            )
            assert count == len(controller.audit) > 0
            lines = [
                json.loads(line)
                for line in path.read_text().splitlines() if line
            ]
            assert [r["knob"] for r in lines] == [
                d.knob for d in controller.audit
            ]
            assert all(r["condition"] == "frozen" for r in lines)

    def test_stats_surface_in_harness_stats(self, tmp_path):
        graph, harness = _open(tmp_path)
        with harness:
            assert "controller" not in harness.stats()
            harness.attach_controller()
            stats = harness.stats()["controller"]
            assert stats["frozen"] is False
            assert set(stats["knobs"]) == set(KNOBS)


class TestKnobCoverage:
    def test_every_knob_is_moved_by_a_builtin_adaptive_schedule(
        self, adaptive_chaos_report
    ):
        """A knob no run ever moves is configuration nobody can grade
        (the deleted ``cache_capacity`` never applied a decision).  Read
        off the runs ``tests/test_chaos_adaptive.py`` grades."""
        moved = {
            decision["knob"]
            for name in ("flash-crowd", "hot-skew", "kill-shard")
            for decision in adaptive_chaos_report(name).decisions
        }
        assert moved == set(KNOBS)


class TestSessionReadErrors:
    def test_closed_and_unknown_sessions_raise_typed_errors(self, tmp_path):
        graph, harness = _open(tmp_path)
        with harness:
            session = harness.register(1, 20)
            assert harness.read(session_id=session.id).value is not None
            harness.deregister(session.id)
            with pytest.raises(SessionClosedError, match="is closed"):
                harness.read(session_id=session.id)
            with pytest.raises(SessionClosedError, match="is unknown"):
                harness.read(session_id="s9999")
            with pytest.raises(SessionClosedError):
                harness.explain(session_id="s9999")
