"""Seeded chaos schedules must heal back to bit-identical convergence.

Each test plays one :class:`~repro.resilience.chaos.ChaosSchedule` against
a live :class:`~repro.serve.harness.ServeHarness` via
:func:`~repro.resilience.chaos.run_chaos` and asserts two things: the
convergence verdict (every surviving session's answer matches the
uninterrupted offline replay, and every ad-hoc read during the run obeyed
the bounded-staleness contract — the driver checks both), and that the
scheduled fault actually *fired* and was *healed* through the expected
path (shard respawn, breaker half-open trial, crash + resume, admission
shed + retry).  A green run that never injected anything proves nothing.
"""

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.algorithms import PPSP
from repro.errors import ShardKilledError
from repro.query import PairwiseQuery
from repro.resilience.chaos import (
    BUILTIN_SCHEDULES,
    KINDS,
    ChaosController,
    ChaosSchedule,
    FaultEvent,
    ManualClock,
    builtin_schedule,
    random_schedule,
    run_chaos,
)
from repro.serve import ServeHarness
from tests.conftest import random_batch, random_graph

pytestmark = [pytest.mark.chaos, pytest.mark.serve, pytest.mark.faults]


class TestSchedules:
    def test_builtin_names_round_trip(self):
        for name in BUILTIN_SCHEDULES:
            schedule = builtin_schedule(name)
            assert schedule.name == name
            schedule.validate(num_batches=8, num_shards=2)
        with pytest.raises(ValueError):
            builtin_schedule("melt-everything")

    def test_validation_rejects_bad_events(self):
        with pytest.raises(ValueError):
            FaultEvent(epoch=0, kind="kill_shard").validate()
        with pytest.raises(ValueError):
            FaultEvent(epoch=1, kind="unknown").validate()
        with pytest.raises(ValueError):
            FaultEvent(epoch=1, kind="tear_wal", payload=0).validate()
        late = ChaosSchedule(
            "late", [FaultEvent(epoch=9, kind="kill_shard", target=0)]
        )
        with pytest.raises(ValueError):
            late.validate(num_batches=8, num_shards=2)
        wide = ChaosSchedule(
            "wide", [FaultEvent(epoch=2, kind="kill_shard", target=5)]
        )
        with pytest.raises(ValueError):
            wide.validate(num_batches=8, num_shards=2)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_each_required_field_must_be_positive(self, kind):
        fields = dict(payload=1, duration=1)
        FaultEvent(epoch=1, kind=kind, **fields).validate()
        for name in KINDS[kind].required:
            with pytest.raises(ValueError, match=name):
                FaultEvent(
                    epoch=1, kind=kind, **{**fields, name: 0}
                ).validate()

    @pytest.mark.parametrize(
        "kind", sorted(k for k, spec in KINDS.items() if spec.shard_target)
    )
    def test_shard_targets_stop_below_num_shards(self, kind):
        def schedule(target):
            return ChaosSchedule(kind, [FaultEvent(
                epoch=2, kind=kind, target=target, payload=1, duration=1
            )])

        schedule(1).validate(num_batches=8, num_shards=2)
        with pytest.raises(ValueError, match="out of range"):
            schedule(2).validate(num_batches=8, num_shards=2)

    @pytest.mark.parametrize(
        "kind",
        sorted(k for k, spec in KINDS.items() if "duration" not in spec.required),
    )
    def test_a_kind_without_duration_refuses_one(self, kind):
        # a hot_keys with duration=3 used to run one wave, silently
        FaultEvent(epoch=2, kind=kind, target=1, payload=4).validate()
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(
                epoch=2, kind=kind, target=1, payload=4, duration=3
            ).validate()

    def test_random_schedules_validate(self):
        for seed in range(60):
            random_schedule(seed).validate(num_batches=8, num_shards=2)

    def test_builtins_are_fresh_copies(self):
        schedule = builtin_schedule("saturate-tear")
        schedule.events.clear()
        assert len(builtin_schedule("saturate-tear").events) == 2

    def test_random_schedule_is_seed_deterministic(self):
        assert random_schedule(11).events == random_schedule(11).events
        assert random_schedule(11).events != random_schedule(12).events

    def test_random_schedule_events_are_pinned(self):
        # seed 7 is the CLI default; a change to the generator shows here
        assert random_schedule(7).events == [
            FaultEvent(epoch=3, kind="hang_source", target=2, duration=1),
            FaultEvent(epoch=6, kind="kill_shard", target=0),
        ]
        assert random_schedule(11).events == [
            FaultEvent(epoch=6, kind="hang_source", target=2, duration=2),
            FaultEvent(epoch=6, kind="saturate_inbox", target=0),
        ]

    def test_manual_clock_only_moves_forward(self):
        clock = ManualClock()
        assert clock() == 0.0
        clock.advance(2.5)
        assert clock() == 2.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestRoutingAfterRescale:
    def test_a_kill_after_a_rescale_lands_on_the_owning_shard(self, tmp_path):
        """Targets resolve through the engine's routing when the fault
        fires: once an adaptive run has rescaled 2 -> 3, "shard 1" is
        whoever ``shard_of`` says, not ``source % 2``."""
        controller = ChaosController(
            ChaosSchedule(
                "kill-after-rescale",
                [FaultEvent(epoch=1, kind="kill_shard", target=1)],
            ),
            ManualClock(),
        )
        graph = random_graph(60, 360, seed=5)
        harness = ServeHarness.open(
            str(tmp_path), graph.copy(), PPSP(), PairwiseQuery(7, 23),
            num_shards=2, fault_hook=controller,
        )
        controller.engine = harness.engine
        with harness:
            harness.rescale_shards(3)
            harness.register(3, 40)  # shard 0 of three (was shard 1 of two)
            harness.register(4, 50)  # shard 1 of three (was shard 0 of two)
            assert harness.wait_all_live()
            assert harness.engine.shard_of(4).index == 1
            result = harness.submit(random_batch(graph, 10, 10, seed=5))
        assert [event.kind for event in controller.fired] == ["kill_shard"]
        assert [index for index, _ in result.failed_shards] == [1]
        assert (3, 40) in result.answers and (4, 50) not in result.answers


class TestConcurrentDelivery:
    def test_each_kill_fires_once_under_racing_shard_threads(self):
        """Shard threads call the hook concurrently; every due kill is
        claimed by exactly one call, whatever the interleaving."""
        shards = 8
        events = [
            FaultEvent(epoch=1, kind="kill_shard", target=t)
            for t in range(shards)
        ]
        controller = ChaosController(
            ChaosSchedule("racing", events), ManualClock()
        )
        controller.engine = SimpleNamespace(
            shard_of=lambda source: SimpleNamespace(index=source % shards)
        )
        raised = []
        start = threading.Barrier(2 * shards)

        def shard_thread(source):
            start.wait(timeout=10)
            for _ in range(50):
                try:
                    controller("batch", source, 1)
                except ShardKilledError as error:
                    raised.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=shard_thread, args=(source,))
                for source in range(2 * shards)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(e.target for e in controller.fired) == list(range(shards))
        assert len(raised) == shards


class TestConvergence:
    def test_kill_shard_heals_through_the_half_open_trial(self, tmp_path):
        report = run_chaos(
            builtin_schedule("kill-shard"), str(tmp_path), PPSP()
        )
        assert report.converged, report.mismatches
        assert report.faults_fired == ["kill_shard@2"]
        supervisor = report.supervisor
        # the dead worker was respawned once, and with threshold 1 every
        # affected source rode the full open -> half-open -> closed arc
        assert supervisor["shard_restarts"] == 1
        assert supervisor["session_resurrections"] >= 1
        assert supervisor["blocked_rescues"] >= 1
        assert supervisor["degraded_reads"] >= 1
        assert "open" in report.breaker_states_seen
        assert "half-open" in report.breaker_states_seen
        for breaker in supervisor["breakers"].values():
            assert breaker["state"] == "closed"
            assert breaker["opens"] >= 1
            assert breaker["successes"] >= 1
        assert report.session_states.get("live") == 4

    def test_hang_epoch_respawns_past_the_zombie(self, tmp_path):
        report = run_chaos(
            builtin_schedule("hang-epoch"), str(tmp_path), PPSP()
        )
        assert report.converged, report.mismatches
        assert report.faults_fired == ["hang_source@3"]
        # the barrier deadline retired the hung worker and a fresh one
        # took over; threshold 2 kept every breaker closed throughout
        assert report.supervisor["shard_restarts"] == 1
        assert report.supervisor["session_resurrections"] >= 1
        assert report.breaker_states_seen == ["closed"]
        assert report.session_states.get("live") == 4

    def test_saturate_then_tear_resumes_without_double_apply(self, tmp_path):
        report = run_chaos(
            builtin_schedule("saturate-tear"), str(tmp_path), PPSP()
        )
        assert report.converged, report.mismatches
        assert report.faults_fired == ["saturate_inbox@2", "tear_wal@4"]
        # the saturated submit was shed (no durable trace) and retried;
        # the torn tail forced exactly one crash + resume.  convergence
        # plus the driver's per-epoch read probe is the double-apply
        # check: a replayed batch would skew every answer from then on
        assert report.shed_submits == 1
        assert report.resumes == 1
        assert report.supervisor["shard_restarts"] == 0
        assert report.session_states.get("live") == 4

    def test_kills_of_two_shards_at_one_epoch_both_fire(self, tmp_path):
        schedule = ChaosSchedule("double-kill", [
            FaultEvent(epoch=2, kind="kill_shard", target=0),
            FaultEvent(epoch=2, kind="kill_shard", target=1),
        ])
        report = run_chaos(schedule, str(tmp_path), PPSP())
        assert report.converged, report.mismatches
        assert report.faults_fired == ["kill_shard@2", "kill_shard@2"]
        assert report.supervisor["shard_restarts"] == 2
        assert report.session_states.get("live") == 4

    def test_an_exact_duplicate_event_fires_once(self, tmp_path):
        # a second saturation of an already full inbox would block the
        # driver forever; the duplicate is the same fault, delivered once
        event = FaultEvent(epoch=2, kind="saturate_inbox", target=0)
        report = run_chaos(
            ChaosSchedule("double-saturate", [event, event]),
            str(tmp_path), PPSP(),
        )
        assert report.converged, report.mismatches
        assert report.faults_fired == ["saturate_inbox@2"]
        assert report.shed_submits == 1

    def test_a_second_saturation_of_a_full_inbox_finishes(self, tmp_path):
        # distinct events (payload differs) both fire; the second finds
        # the inbox at its bound and leaves it there instead of blocking
        report = run_chaos(
            ChaosSchedule("saturate-twice", [
                FaultEvent(epoch=2, kind="saturate_inbox", target=0),
                FaultEvent(epoch=2, kind="saturate_inbox", target=0,
                           payload=1),
            ]),
            str(tmp_path), PPSP(),
        )
        assert report.converged, report.mismatches
        assert report.faults_fired == ["saturate_inbox@2"] * 2
        assert report.shed_submits == 1

    def test_faults_fired_is_in_epoch_then_kind_order(self, tmp_path):
        # a kill and a hang at epoch 2 fire on two shard threads; the
        # report lists them in KINDS order whichever thread ran first
        schedule = random_schedule(36)
        assert {e.epoch for e in schedule.events} == {2}
        fired = []
        for run in range(6):
            report = run_chaos(schedule, str(tmp_path / str(run)), PPSP())
            assert report.converged, report.mismatches
            fired.append(report.faults_fired)
        assert fired == [["kill_shard@2", "hang_source@2"]] * 6

    def test_random_schedule_converges(self, tmp_path):
        schedule = random_schedule(11)
        report = run_chaos(schedule, str(tmp_path), PPSP())
        assert report.converged, report.mismatches
        assert len(report.faults_fired) >= 1
        assert report.session_states.get("live") == 4
        assert "CONVERGED" in report.summary()
