"""Real-fault chaos schedules on both shard backends.

The original chaos suite injects *simulated* failures through the
thread backend's fault hook.  These schedules injure the deployment for
real — ``sigkill_shard`` delivers an actual SIGKILL to a worker process,
``wedge_shard`` spins a worker past the epoch deadline without
heartbeats — and the acceptance bar is unchanged: bit-identical
convergence with the offline replay, on the process backend *and* on the
thread backend playing the same schedule through its in-thread
analogues.
"""

import pytest

from repro.algorithms import PPSP
from repro.cli import main
from repro.obs import Telemetry, use_telemetry
from repro.resilience import chaos
from repro.resilience.chaos import (
    BUILTIN_SCHEDULES,
    builtin_schedule,
    run_chaos,
)

pytestmark = [
    pytest.mark.procserve,
    pytest.mark.chaos,
    pytest.mark.serve,
    pytest.mark.faults,
]


class TestScheduleCompatibility:
    def test_real_fault_schedules_are_builtin(self):
        assert "sigkill-shard" in BUILTIN_SCHEDULES
        assert "wedge-shard" in BUILTIN_SCHEDULES

    def test_hook_fault_schedules_are_rejected_on_process(self, tmp_path):
        with pytest.raises(ValueError, match="in-worker fault kinds"):
            run_chaos(
                builtin_schedule("kill-shard"), str(tmp_path), PPSP(),
                backend="process",
            )

    @pytest.mark.parametrize("schedule, kinds", [
        ("kill-shard", "kill_shard"),
        ("random", "hang_source, kill_shard"),  # seed 7, the default
    ])
    def test_cli_refuses_thread_only_kinds_on_process(
        self, schedule, kinds, monkeypatch, capsys
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a harness was started")

        monkeypatch.setattr(chaos, "run_chaos", no_run)
        code = main(["chaos", "--schedule", schedule, "--backend", "process"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and f"({kinds})" in err

    def test_unknown_backend_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown shard backend"):
            run_chaos(
                builtin_schedule("sigkill-shard"), str(tmp_path), PPSP(),
                backend="fiber",
            )


class TestSigkillConvergence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_sigkill_heals_to_bit_identical_answers(self, tmp_path, backend):
        report = run_chaos(
            builtin_schedule("sigkill-shard"),
            str(tmp_path / backend),
            PPSP(),
            backend=backend,
        )
        assert report.converged, report.mismatches
        assert report.backend == backend
        assert report.faults_fired == ["sigkill_shard@2"]
        assert report.supervisor["shard_restarts"] == 1
        assert report.supervisor["session_resurrections"] >= 1
        assert report.session_states.get("live") == 4
        assert f"/{backend}]" in report.summary()

    def test_both_backends_agree_on_the_schedule(self, tmp_path):
        reports = {
            backend: run_chaos(
                builtin_schedule("sigkill-shard"),
                str(tmp_path / backend),
                PPSP(),
                backend=backend,
            )
            for backend in ("thread", "process")
        }
        assert all(r.converged for r in reports.values())
        # identical healing arithmetic, not just identical verdicts
        for key in ("shard_restarts", "session_resurrections"):
            assert (
                reports["thread"].supervisor[key]
                == reports["process"].supervisor[key]
            )


class TestWedgeConvergence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_wedge_converges(self, tmp_path, backend):
        report = run_chaos(
            builtin_schedule("wedge-shard"),
            str(tmp_path / backend),
            PPSP(),
            backend=backend,
        )
        assert report.converged, report.mismatches
        assert report.faults_fired == ["wedge_shard@3"]
        # the barrier deadline retired the wedged worker instead of
        # hanging ingest, and the supervisor respawned it
        assert report.supervisor["shard_restarts"] == 1


class TestProcessPostMortem:
    """ISSUE acceptance: a real SIGKILL leaves a frozen flight bundle."""

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            report = run_chaos(
                builtin_schedule("sigkill-shard"),
                str(tmp_path_factory.mktemp("chaos-proc")),
                PPSP(),
                backend="process",
            )
        return telemetry, report

    def test_run_converged(self, traced_run):
        _, report = traced_run
        assert report.converged, report.mismatches

    def test_shard_crash_bundle_records_the_kill(self, traced_run):
        telemetry, _ = traced_run
        crash = next(
            b for b in telemetry.flight.bundles
            if b["reason"] == "shard-crash"
        )
        assert crash["context"]["epoch"] == 2
        assert crash["context"]["failed_shards"][0]["shard"] == 1
        (post,) = [
            p for p in crash["context"]["post_mortem"] if p["shard"] == 1
        ]
        assert post["backend"] == "process"
        assert post["failure_mode"] == "killed"
        assert post["exitcode"] is not None and post["exitcode"] < 0
        assert "SIGKILL" in post["exit"]

    def test_end_of_run_bundle_names_the_backend(self, traced_run):
        telemetry, _ = traced_run
        final = next(
            b for b in telemetry.flight.bundles
            if b["reason"] == "chaos-sigkill-shard"
        )
        assert final["context"]["backend"] == "process"
        assert final["context"]["converged"] is True

    def test_bundle_carries_the_harvested_child_flight_ring(self, traced_run):
        # ISSUE acceptance: the killed child's own flight ring survives
        # its address space via the on-disk spill and lands in the bundle
        telemetry, _ = traced_run
        crash = next(
            b for b in telemetry.flight.bundles
            if b["reason"] == "shard-crash"
        )
        (post,) = [
            p for p in crash["context"]["post_mortem"] if p["shard"] == 1
        ]
        flight = post["child_flight"]
        assert flight["pid"] == post["pid"]
        assert flight["events"], "spill harvested no events"
        named = {event.get("name") for event in flight["events"]}
        assert "shard.batch" in named

    def test_post_kill_answers_resolve_through_merged_traces(self, traced_run):
        # ISSUE acceptance: after the kill heals, answer trace ids resolve
        # to waterfalls containing child-process spans joined to the
        # ingest batch trace
        from repro.obs.tracing import build_traces, render_waterfall

        telemetry, _ = traced_run
        traces = {t.trace_id: t for t in build_traces(list(telemetry.events))}
        answers = [
            event for event in telemetry.events
            if event.kind == "point" and event.name == "serve.answer"
            and int(event.fields.get("epoch", 0)) > 2  # after the kill
        ]
        assert answers
        resolved = 0
        for answer in answers:
            trace = traces[str(answer.fields["trace_id"])]
            child_spans = [
                span for span in trace.find("shard.batch")
                if "worker" in span.attrs
            ]
            if not child_spans:
                continue  # an epoch served while the shard was down
            resolved += 1
            for span in child_spans:
                assert not span.orphan
                assert trace.nodes[span.parent_id].name == "engine.batch"
                rendered = render_waterfall(trace)
                assert f"worker={span.attrs['worker']}" in rendered
        assert resolved, "no post-kill answer joined a child-process span"
