"""Cross-process telemetry: child spans, merged metrics, backend identity.

The process backend runs shard workers as real OS processes, so the
tracing/metric/flight-ring surface of ``docs/tracing.md`` has to cross
the IPC boundary as primitives (``repro.serve.telemetry_agent``).  The
acceptance bar: with telemetry on, the merged export is the thread
backend's picture plus ``worker``/``pid`` attribution — child
``shard.batch`` spans join the ingest batch trace, child metric deltas
land in the parent registry, the controller sees bit-identical signal
frames on both backends, and a SIGKILLed child's flight ring survives
into the post-mortem via its on-disk spill.
"""

import os
import signal
import time

import pytest

from repro.algorithms import PPSP
from repro.obs import Telemetry, use_telemetry
from repro.obs.summary import format_worker_table, worker_rows
from repro.obs.tracing import build_traces, render_waterfall
from repro.query import PairwiseQuery
from repro.serve import ServeHarness
from repro.serve.control import RuntimeController
from repro.serve.ipc import OUT_TELEMETRY
from repro.serve.telemetry_agent import ChildTelemetryAgent, read_spill
from tests.conftest import random_batch, random_graph

pytestmark = [pytest.mark.procserve, pytest.mark.serve, pytest.mark.telemetry]

PAIRS = [(1, 20), (2, 30)]
ANCHOR = PairwiseQuery(7, 23)
NUM_BATCHES = 3


def _stream(graph, num_batches, seed):
    reference = graph.copy()
    batches = []
    for index in range(num_batches):
        batch = random_batch(reference, 10, 10, seed=seed * 77 + index)
        reference.apply_batch(batch)
        batches.append(batch)
    return batches


def _drive(tmp_path, backend, telemetry, seed=5):
    graph = random_graph(60, 300, seed=seed)
    batches = _stream(graph, NUM_BATCHES, seed=seed)
    with use_telemetry(telemetry):
        harness = ServeHarness.open(
            str(tmp_path / backend), graph.copy(), PPSP(), ANCHOR,
            num_shards=2, backend=backend,
        )
        try:
            for pair in PAIRS:
                harness.register(*pair)
            assert harness.wait_all_live(timeout=30.0)
            for batch in batches:
                result = harness.submit(batch)
                assert result.failed_shards == []
        finally:
            harness.close()
    return telemetry


class TestMergedTraces:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        return _drive(
            tmp_path_factory.mktemp("proc-tel"), "process", Telemetry()
        )

    def test_child_spans_join_the_ingest_trace(self, traced):
        traces = [
            t for t in build_traces(list(traced.events))
            if t.root.name == "pipeline.commit"
        ]
        assert len(traces) == NUM_BATCHES
        for trace in traces:
            shard_spans = trace.find("shard.batch")
            assert len(shard_spans) == 2  # one per shard, same trace
            for span in shard_spans:
                # merged child spans are worker/pid attributed and parent
                # onto the ingest engine.batch span, not a fresh root
                assert span.attrs["worker"] in ("shard-0", "shard-1")
                assert span.attrs["pid"] != os.getpid()
                assert not span.orphan
                parent = trace.nodes[span.parent_id]
                assert parent.name == "engine.batch"

    def test_child_span_ids_never_collide_with_parent_ids(self, traced):
        child_ids, parent_ids = set(), set()
        for event in traced.events:
            if event.kind != "span":
                continue
            span_id = int(event.fields["span_id"])
            if "worker" in event.fields:
                child_ids.add(span_id)
                # pid-salted counter: child ids live above pid << 24
                assert span_id >= int(event.fields["pid"]) << 24
            else:
                parent_ids.add(span_id)
        assert child_ids and parent_ids
        assert not child_ids & parent_ids

    def test_child_thread_names_are_worker_prefixed(self, traced):
        threads = {
            str(event.fields["thread"])
            for event in traced.events
            if event.kind == "span" and "worker" in event.fields
        }
        assert threads
        assert all(t.startswith(("shard-0/", "shard-1/")) for t in threads)

    def test_waterfall_renders_the_cross_process_tree(self, traced):
        (trace,) = [
            t for t in build_traces(list(traced.events))
            if t.root.name == "pipeline.commit"
        ][:1]
        rendered = render_waterfall(trace)
        assert "shard.batch" in rendered
        assert "worker=shard-" in rendered
        assert "orphaned" not in rendered

    def test_span_seconds_rederived_per_worker(self, traced):
        document = traced.registry.snapshot().as_dict()
        series = document["span_seconds"]["series"]
        workers = {
            dict(s["labels"]).get("worker")
            for s in series
            if dict(s["labels"]).get("span") == "shard.batch"
        }
        assert {"shard-0", "shard-1"} <= workers
        for entry in series:
            labels = dict(entry["labels"])
            if labels.get("span") == "shard.batch" and "worker" in labels:
                assert entry["count"] == NUM_BATCHES

    def test_serve_metrics_carry_worker_labels(self, traced):
        document = traced.registry.snapshot().as_dict()
        depth_labels = [
            dict(s["labels"])
            for s in document["serve_queue_depth"]["series"]
        ]
        assert all("worker" in labels for labels in depth_labels)
        latency_labels = [
            dict(s["labels"])
            for s in document["serve_answer_seconds"]["series"]
        ]
        assert latency_labels
        assert all(
            labels["worker"].startswith("shard-") for labels in latency_labels
        )

    def test_drop_counters_are_ring_attributed(self, traced):
        document = traced.registry.snapshot().as_dict()
        rings = {
            (dict(s["labels"]).get("ring"), dict(s["labels"]).get("worker"))
            for s in document["obs.events.dropped"]["series"]
        }
        # the parent's own event ring is always present; a healthy run
        # ships no child drop deltas (zero deltas never cross the wire),
        # so no phantom worker series appear either
        assert ("events", None) in rings
        assert (None, None) not in rings  # the unlabelled global is gone
        assert not any(ring is None for ring, _ in rings)

    def test_child_ipc_drops_are_counted_and_shipped(self):
        # unit-level: overflow the frame buffer and check the agent's
        # accounting — ring="ipc" counter delta plus the frame's dropped
        # field — without needing a real parent to starve
        class Sink:
            def __init__(self):
                self.frames = []

            def put(self, item):
                self.frames.append(item)

        sink = Sink()
        agent = ChildTelemetryAgent(index=1, outcomes=sink, buffer_bound=2)
        for count in range(5):
            agent.telemetry.point("shard.noise", n=count)
        assert agent.dropped == 3
        assert agent.flush()
        (tag, frame) = sink.frames[0]
        assert tag == OUT_TELEMETRY
        assert frame["dropped"] == 3
        assert len(frame["events"]) == 2  # the buffer bound held
        assert [
            "obs.events.dropped", [["ring", "ipc"]], 3.0
        ] in frame["counters"]
        # but the flight ring saw everything, for the post-mortem path
        assert len(agent.telemetry.flight.snapshot()) == 5

    def test_by_worker_rollup(self, traced):
        rows = worker_rows(list(traced.events))
        by_name = {row["worker"]: row for row in rows}
        assert {"parent", "shard-0", "shard-1"} <= set(by_name)
        for worker in ("shard-0", "shard-1"):
            row = by_name[worker]
            assert row["spans"] == NUM_BATCHES
            assert row["pid"] != "-"
            assert row["slowest_span"] == "shard.batch"
        table = format_worker_table(rows)
        assert "shard-0" in table and "parent" in table


class TestControllerBackendIdentity:
    """Thread and process backends feed the controller identical frames."""

    def _signal_frames(self, tmp_path, backend, seed=9):
        graph = random_graph(60, 300, seed=seed)
        batches = _stream(graph, NUM_BATCHES, seed=seed)
        telemetry = Telemetry()
        frames = []
        with use_telemetry(telemetry):
            harness = ServeHarness.open(
                str(tmp_path / backend), graph.copy(), PPSP(), ANCHOR,
                num_shards=2, backend=backend,
            )
            try:
                controller = RuntimeController(harness)
                for pair in PAIRS:
                    harness.register(*pair)
                assert harness.wait_all_live(timeout=30.0)
                for epoch, batch in enumerate(batches, start=1):
                    result = harness.submit(batch)
                    assert result.failed_shards == []
                    deadline = time.monotonic() + 10.0
                    while (harness.engine.max_depth() > 0
                           and time.monotonic() < deadline):
                        time.sleep(0.01)
                    frames.append(controller.collect(epoch).as_dict())
            finally:
                harness.close()
        return frames

    def test_signal_frames_are_backend_identical(self, tmp_path):
        thread_frames = self._signal_frames(tmp_path, "thread")
        process_frames = self._signal_frames(tmp_path, "process")
        assert thread_frames == process_frames


class TestCrashDurableRings:
    def test_sigkilled_child_flight_ring_is_harvested(self, tmp_path):
        graph = random_graph(60, 300, seed=3)
        batches = _stream(graph, 2, seed=3)
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            harness = ServeHarness.open(
                str(tmp_path / "kill"), graph.copy(), PPSP(), ANCHOR,
                num_shards=2, backend="process",
            )
            try:
                for pair in PAIRS:
                    harness.register(*pair)
                assert harness.wait_all_live(timeout=30.0)
                harness.submit(batches[0])
                victim = harness.engine.shards[1]
                assert victim.spill_path is not None
                # submit returns on the outcome, which the child ships
                # *before* its post-command spill — wait for the spill to
                # land so the kill tests harvest, not the write race
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    spilled = read_spill(victim.spill_path)
                    if spilled and any(
                        row.get("name") == "shard.batch"
                        for row in spilled["events"]
                    ):
                        break
                    time.sleep(0.01)
                os.kill(victim.process.pid, signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while victim.alive and time.monotonic() < deadline:
                    time.sleep(0.02)
                result = harness.submit(batches[1])
                assert (1, "shard 1 was killed by SIGKILL") in [
                    (index, reason.split(" before")[0])
                    for index, reason in result.failed_shards
                ] or result.failed_shards  # reason text is advisory
                mortem = victim.post_mortem()
                # the spill file is readable standalone while the engine
                # is open (its owned spill directory dies with close())
                harvested = read_spill(victim.spill_path)
            finally:
                harness.close()
        # the dead child's spilled ring made it into the post-mortem
        assert mortem["failure_mode"] == "killed"
        flight = mortem["child_flight"]
        assert flight["pid"] == mortem["pid"]
        assert any(
            event.get("name") == "shard.batch" for event in flight["events"]
        )
        assert harvested["pid"] == mortem["pid"]

    def test_spill_is_disabled_without_telemetry(self, tmp_path):
        graph = random_graph(40, 160, seed=4)
        harness = ServeHarness.open(
            str(tmp_path / "plain"), graph.copy(), PPSP(), ANCHOR,
            num_shards=2, backend="process",
        )
        try:
            for shard in harness.engine.shards:
                assert shard.spill_path is None
        finally:
            harness.close()
