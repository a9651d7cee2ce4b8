"""Chaos-graded acceptance for the adaptive runtime controller.

Each overload schedule is played twice with the same seed, the same
workload and the same offline oracle — once static, once with the
controller attached.  The acceptance contract: where the static run
violates at least one objective of the schedule's
:class:`~repro.serve.control.SLOPolicy` (shed rate under a flash crowd,
served staleness under a shard kill), the adaptive run must meet *all*
of them, keep bit-identical offline-replay convergence, and leave every
applied decision resolvable to a ``controller.decision`` trace point.
"""

import json
import os

import pytest

from repro.algorithms import PPSP
from repro.cli import main
from repro.obs import Telemetry, use_telemetry
from repro.resilience.chaos import (
    BUILTIN_SCHEDULES,
    OVERLOAD_SCHEDULES,
    builtin_schedule,
    run_chaos,
)

pytestmark = [pytest.mark.chaos, pytest.mark.serve, pytest.mark.faults]


class TestOverloadSchedules:
    def test_overload_names_are_builtin(self):
        assert set(OVERLOAD_SCHEDULES) <= set(BUILTIN_SCHEDULES)
        for name in OVERLOAD_SCHEDULES:
            assert builtin_schedule(name).slo is not None

    def test_static_overload_runs_still_converge(self, tmp_path):
        """Overload never corrupts answers — a static run converges even
        while shedding; only its SLO verdict suffers."""
        report = run_chaos(
            builtin_schedule("flash-crowd"), str(tmp_path), PPSP()
        )
        assert report.converged
        assert not report.adaptive
        assert report.crowd_rejected > 0


class TestFlashCrowd:
    def test_adaptive_meets_shed_slo_where_static_violates(
        self, tmp_path, adaptive_chaos_report
    ):
        static = run_chaos(
            builtin_schedule("flash-crowd"), str(tmp_path / "static"), PPSP()
        )
        adaptive = adaptive_chaos_report("flash-crowd")
        assert static.converged and adaptive.converged
        # the static configuration sheds most of the crowd and fails SLO
        assert not static.slo["met"]
        assert any("shed rate" in v for v in static.slo["violations"])
        # the controller opened admission after the first shed wave
        assert adaptive.slo["met"]
        assert adaptive.crowd_rejected < static.crowd_rejected
        assert any(
            d["knob"] == "admission_rate" and d["condition"] == "overload"
            for d in adaptive.decisions
        )

    def test_adaptive_convergence_is_bit_identical(
        self, adaptive_chaos_report
    ):
        """Adapting knobs mid-run must not change a single answer: both
        runs are checked against the same offline oracle, and the
        standing answers are the oracle's, bit for bit."""
        report = adaptive_chaos_report("flash-crowd")
        assert report.converged and report.mismatches == []


class TestKillShardStaleness:
    def test_adaptive_narrows_staleness_where_static_violates(
        self, tmp_path, adaptive_chaos_report
    ):
        static = run_chaos(
            builtin_schedule("kill-shard"), str(tmp_path / "static"), PPSP()
        )
        adaptive = adaptive_chaos_report("kill-shard")
        assert static.converged and adaptive.converged
        assert not static.slo["met"]
        assert any("staleness" in v for v in static.slo["violations"])
        assert adaptive.slo["met"]
        assert adaptive.slo["staleness_max"] <= 1
        narrowed = [
            d for d in adaptive.decisions if d["knob"] == "max_staleness"
        ]
        assert narrowed and narrowed[0]["condition"] == "degraded-read-pressure"
        assert narrowed[0]["new"] == 1.0


class TestHotSkew:
    def test_adaptive_rescales_live_and_converges(
        self, adaptive_chaos_report
    ):
        report = adaptive_chaos_report("hot-skew")
        assert report.converged
        assert report.slo["met"]
        scale_ups = [
            d for d in report.decisions
            if d["knob"] == "shards" and d["condition"] == "hot-skew"
        ]
        assert scale_ups and scale_ups[0]["new"] == 3.0
        # sessions survived the migration: oracle pairs + anchor + crowd
        assert report.session_states.get("live", 0) >= 12


#: every builtin schedule's adaptive audit, ``(epoch, condition, knob,
#: old, new, clamped)``, for the seed-7 PPSP run on the thread backend
PINNED_DECISIONS = {
    "kill-shard": [
        (2, "degraded-read-pressure", "max_staleness", 8.0, 1.0, False),
        (6, "idle", "max_staleness", 1.0, 8.0, False),
    ],
    "hang-epoch": [],
    "saturate-tear": [],
    "flash-crowd": [
        (2, "overload", "admission_rate", 2.0, 16.0, False),
        (2, "overload", "admission_burst", 6.0, 48.0, False),
        (5, "idle", "admission_rate", 16.0, 2.0, False),
        (5, "idle", "admission_burst", 48.0, 6.0, False),
    ],
    "hot-skew": [
        (2, "hot-skew", "shards", 2.0, 3.0, False),
        (5, "idle", "shards", 3.0, 2.0, False),
        (6, "hot-skew", "shards", 2.0, 3.0, False),
    ],
    "slow-shard": [],
    "sigkill-shard": [
        (2, "degraded-read-pressure", "max_staleness", 8.0, 2.0, False),
        (6, "idle", "max_staleness", 2.0, 8.0, False),
    ],
    "wedge-shard": [],
}


class TestPinnedDecisions:
    def test_every_builtin_schedule_is_pinned(self):
        assert set(PINNED_DECISIONS) == set(BUILTIN_SCHEDULES)

    @pytest.mark.parametrize("name", sorted(PINNED_DECISIONS))
    def test_decision_audit_is_pinned(self, name, adaptive_chaos_report):
        """The controller's decisions are a pure function of the seeded
        run: any change to a threshold, a clamp or the signal path shows
        up here as a different audit."""
        report = adaptive_chaos_report(name)
        assert report.converged
        assert [
            (d["epoch"], d["condition"], d["knob"], d["old"], d["new"],
             d["clamped"])
            for d in report.decisions
        ] == PINNED_DECISIONS[name]


class TestDecisionProvenance:
    def test_every_decision_resolves_to_a_trace_point(self, tmp_path):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            report = run_chaos(
                builtin_schedule("flash-crowd"), str(tmp_path), PPSP(),
                adaptive=True,
            )
        assert report.decisions
        events = list(telemetry.events)
        points = [e for e in events if e.name == "controller.decision"]
        assert len(points) == len(report.decisions)
        trace_ids = {e.fields.get("trace_id") for e in events} - {None}
        for decision in report.decisions:
            assert decision["trace_id"] in trace_ids
        # the point payload carries the full decision
        by_knob = {
            (e.fields["epoch"], e.fields["knob"]): e.fields for e in points
        }
        for decision in report.decisions:
            fields = by_knob[(decision["epoch"], decision["knob"])]
            assert fields["old"] == decision["old"]
            assert fields["new"] == decision["new"]


class TestChaosCLI:
    def test_unknown_schedule_lists_available(self, capsys):
        exit_code = main(["chaos", "--schedule", "melt-everything"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "unknown schedule" in err
        for name in BUILTIN_SCHEDULES:
            assert name in err

    def test_adaptive_run_exports_audit_and_passes(self, tmp_path, capsys):
        telemetry_dir = str(tmp_path / "telemetry")
        exit_code = main([
            "chaos", "--schedule", "flash-crowd", "--adaptive",
            "--state-dir", str(tmp_path / "state"),
            "--telemetry", telemetry_dir,
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "slo MET" in out
        audit_path = os.path.join(
            telemetry_dir, "control_audit-flash-crowd.jsonl"
        )
        assert os.path.exists(audit_path)
        with open(audit_path) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert records and all("knob" in r for r in records)

    def test_control_log_renders_audit_and_events(self, tmp_path, capsys):
        telemetry_dir = str(tmp_path / "telemetry")
        assert main([
            "chaos", "--schedule", "flash-crowd", "--adaptive",
            "--state-dir", str(tmp_path / "state"),
            "--telemetry", telemetry_dir,
        ]) == 0
        capsys.readouterr()
        assert main(["control-log", telemetry_dir]) == 0
        out = capsys.readouterr().out
        assert "admission_rate" in out and "overload" in out
        # the events.jsonl fallback finds the same decisions
        events = os.path.join(telemetry_dir, "events.jsonl")
        assert main(["control-log", events, "--knob", "admission_rate"]) == 0
        out = capsys.readouterr().out
        assert "admission_rate" in out

    def test_control_log_missing_path_fails(self, tmp_path, capsys):
        assert main(["control-log", str(tmp_path / "nope")]) == 1
        assert "no control audit" in capsys.readouterr().err
