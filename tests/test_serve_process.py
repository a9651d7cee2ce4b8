"""The process shard backend (repro.serve.executor + repro.serve.ipc).

Three layers, one file: the primitive-only IPC codec round-trips; a
process-backed :class:`ServeHarness` serves the same workload as the
thread backend bit-identically, respawned and rescaled children included,
and leaves no process behind once closed; and real failure injection —
SIGKILL, nonzero-exit ``die``, wedged spins — is detected with the right
taxonomy (killed / crashed / hung), survives through the supervisor, and
leaves a useful post-mortem behind.
"""

import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro.algorithms import PPSP, get_algorithm
from repro.graph.batch import UpdateBatch, add
from repro.metrics import OpCounts
from repro.query import PairwiseQuery
from repro.serve import BACKENDS, ServeHarness, SessionState, resolve_backend
from repro.serve.health import HealthMonitor, ShardHealth
from repro.obs.tracing import TraceContext
from repro.serve.ipc import (
    CMD_READ,
    OUT_READ,
    decode_batch,
    decode_context,
    decode_outcome,
    decode_telemetry_frame,
    encode_batch,
    encode_context,
    encode_outcome,
    encode_read,
    encode_read_reply,
    encode_telemetry_frame,
)
from repro.serve.shard import ShardBatchOutcome
from tests.conftest import ALL_ALGORITHMS, random_batch, random_graph
from tests.test_workflow_golden import QUERIES as GOLDEN_QUERIES
from tests.test_workflow_golden import SINGLE as GOLDEN_ANCHOR
from tests.test_workflow_golden import _stream as golden_stream

pytestmark = [pytest.mark.procserve, pytest.mark.serve]

PAIRS = [(1, 20), (2, 30), (3, 40), (4, 50)]
ANCHOR = PairwiseQuery(7, 23)


def _stream(graph, num_batches, seed):
    reference = graph.copy()
    batches = []
    for index in range(num_batches):
        batch = random_batch(reference, 10, 10, seed=seed * 77 + index)
        reference.apply_batch(batch)
        batches.append(batch)
    return batches


def _open(tmp_path, backend, graph, **kwargs):
    return ServeHarness.open(
        str(tmp_path / backend), graph.copy(), PPSP(), ANCHOR,
        num_shards=2, backend=backend, **kwargs,
    )


def _wait_dead(worker, timeout=10.0):
    deadline = time.monotonic() + timeout
    while worker.alive and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not worker.alive, "worker should have died"


class TestBackendSelection:
    def test_registry(self):
        assert BACKENDS == ("thread", "process")
        assert resolve_backend("thread") == "thread"
        assert resolve_backend("process") == "process"

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown shard backend"):
            resolve_backend("greenlet")

    def test_harness_reports_its_backend(self, tmp_path):
        graph = random_graph(60, 300, seed=0)
        with _open(tmp_path, "process", graph) as harness:
            assert harness.engine.backend == "process"
            assert harness.stats()["backend"] == "process"
            for shard in harness.engine.shards:
                assert shard.backend == "process"


class TestCodec:
    def test_batch_round_trip(self):
        batch = random_batch(random_graph(20, 60, seed=1), 6, 4, seed=2)
        decoded = decode_batch(encode_batch(batch))
        assert [
            (u.kind, u.u, u.v, u.weight) for u in decoded
        ] == [
            (u.kind, u.u, u.v, u.weight) for u in batch
        ]

    def test_rows_are_primitives(self):
        batch = UpdateBatch([add(0, 1, 2.5)])
        (row,) = encode_batch(batch)
        assert row == ("add", 0, 1, 2.5)
        assert all(isinstance(x, (str, int, float)) for x in row)

    def test_outcome_round_trip(self):
        outcome = ShardBatchOutcome(
            epoch=3,
            shard=1,
            answers={(1, 20): 4.0, (2, 30): float("inf")},
            response_ops=OpCounts(relaxations=7, edges_scanned=3),
            post_ops=OpCounts(state_writes=2),
            stats={"groups": 2},
            degraded=[(2, "breaker open")],
        )
        decoded = decode_outcome(encode_outcome(outcome))
        assert decoded == outcome

    def test_encoded_outcome_survives_a_json_detour(self):
        import json

        outcome = ShardBatchOutcome(
            epoch=1, shard=0, answers={(1, 2): 3.0},
            response_ops=OpCounts(), post_ops=OpCounts(),
            stats={}, degraded=[],
        )
        wire = json.loads(json.dumps(encode_outcome(outcome)))
        assert decode_outcome(wire) == outcome

    def test_read_command_and_reply_round_trip_as_primitives(self):
        import pickle

        command = encode_read(True, 20, 3)  # bool is an int; the wire is not
        assert command == (CMD_READ, 1, 20, 3)
        assert [type(x) for x in command] == [str, int, int, int]
        for value, sealed in ((4, 3), (float("inf"), 3), (None, 3), (None, None)):
            reply = encode_read_reply(value, sealed)
            assert reply == (OUT_READ, value, sealed)
            assert value is None or type(reply[1]) is float
            assert pickle.loads(pickle.dumps(reply)) == reply
        assert pickle.loads(pickle.dumps(command)) == command

    def test_trace_context_round_trip(self):
        context = TraceContext(trace_id="t000042", parent_span_id=17)
        wire = encode_context(context)
        assert wire == ("t000042", 17)
        decoded = decode_context(wire)
        assert decoded.trace_id == "t000042"
        assert decoded.parent_span_id == 17

    def test_absent_trace_context_stays_none(self):
        assert encode_context(None) is None
        assert decode_context(None) is None

    def test_rootless_context_keeps_none_parent(self):
        decoded = decode_context(encode_context(
            TraceContext(trace_id="t7", parent_span_id=None)
        ))
        assert decoded.parent_span_id is None

    def test_telemetry_frame_round_trip_survives_a_json_detour(self):
        import json

        frame = encode_telemetry_frame(
            worker=1,
            pid=4242,
            skew=1722.5,
            events=[{
                "ts": 3.25, "kind": "span", "name": "shard.batch",
                "span_id": 4242 << 24, "parent_id": 9, "trace_id": "t9",
                "duration": 0.001, "status": "ok", "thread": "MainThread",
                "shard": 1, "epoch": 2,
            }],
            counters=[("obs.events.dropped", [("ring", "ipc")], 3.0)],
            gauges=[("child.inbox_depth", [], 2.0)],
            dropped=3,
        )
        decoded = decode_telemetry_frame(json.loads(json.dumps(frame)))
        assert decoded["worker"] == 1 and decoded["pid"] == 4242
        assert decoded["skew"] == 1722.5 and decoded["dropped"] == 3
        (event,) = decoded["events"]
        assert event["name"] == "shard.batch"
        assert event["span_id"] == 4242 << 24  # pid-salted ids stay exact
        assert decoded["counters"] == [
            ("obs.events.dropped", [("ring", "ipc")], 3.0)
        ]
        assert decoded["gauges"] == [("child.inbox_depth", [], 2.0)]

    def test_empty_telemetry_frame_is_well_formed(self):
        decoded = decode_telemetry_frame(encode_telemetry_frame(
            worker=0, pid=1, skew=0.0,
            events=[], counters=[], gauges=[], dropped=0,
        ))
        assert decoded["events"] == []
        assert decoded["counters"] == [] and decoded["gauges"] == []


class TestBitIdenticalBackends:
    def test_process_answers_match_thread_answers(self, tmp_path):
        graph = random_graph(60, 300, seed=11)
        batches = _stream(graph, num_batches=4, seed=11)
        timelines = {}
        for backend in BACKENDS:
            with _open(tmp_path, backend, graph) as harness:
                for pair in PAIRS:
                    harness.register(*pair)
                assert harness.wait_all_live(timeout=30.0)
                timeline = []
                for batch in batches:
                    result = harness.submit(batch)
                    assert result.failed_shards == []
                    timeline.append(dict(result.answers))
                timelines[backend] = timeline
        assert timelines["process"] == timelines["thread"]


class TestSessionHandles:
    def test_churned_sessions_are_not_pinned_by_the_worker(self, tmp_path):
        """The parent-side worker holds a session only while its
        registration is in flight — register / live / deregister churn
        must leave neither a handle nor a mirror entry behind."""
        graph = random_graph(60, 300, seed=17)
        (batch,) = _stream(graph, num_batches=1, seed=17)
        with _open(tmp_path, "process", graph) as harness:
            shards = harness.engine.shards
            for _ in range(3):
                sessions = [harness.register(*pair) for pair in PAIRS]
                assert harness.wait_all_live(timeout=30.0)
                assert all(shard._sessions == {} for shard in shards)
                for session in sessions:
                    harness.deregister(session.id)
            # deregistered while the registration is still in flight: the
            # late ``live`` event must not resurrect the pair in the mirror
            for pair in PAIRS:
                harness.deregister(harness.register(*pair).id)
            harness.submit(batch)  # FIFO barrier: every event above applied
            for shard in shards:
                assert shard._sessions == {}
                assert shard.groups == {}


class TestFailureTaxonomy:
    def test_sigkill_is_classified_killed_and_survived(self, tmp_path):
        graph = random_graph(60, 300, seed=12)
        batches = _stream(graph, num_batches=3, seed=12)
        with _open(tmp_path, "process", graph) as harness:
            sessions = {pair: harness.register(*pair) for pair in PAIRS}
            assert harness.wait_all_live(timeout=30.0)
            victim = harness.engine.shards[1]
            victim.kill()
            _wait_dead(victim)
            assert victim.failure_mode() == "killed"
            assert "SIGKILL" in victim.exit_description()
            assert HealthMonitor().probe(victim) is ShardHealth.KILLED

            result = harness.submit(batches[0])
            assert [index for index, _ in result.failed_shards] == [1]
            # the supervisor respawned a fresh process in the slot
            assert harness.supervisor.shard_restarts == 1
            replacement = harness.engine.shards[1]
            assert replacement is not victim
            assert replacement.alive

            # subsequent epochs answer for every session again
            for batch in batches[1:]:
                result = harness.submit(batch)
                assert result.failed_shards == []
            assert all(
                s.state is SessionState.LIVE for s in sessions.values()
            )

    def test_nonzero_exit_is_classified_crashed(self, tmp_path):
        graph = random_graph(60, 300, seed=13)
        with _open(tmp_path, "process", graph) as harness:
            harness.register(*PAIRS[0])
            assert harness.wait_all_live(timeout=30.0)
            worker = harness.engine.shards[0]
            worker.submit_die(code=3)
            _wait_dead(worker)
            assert worker.failure_mode() == "crashed"
            assert "exit code 3" in worker.exit_description()
            assert HealthMonitor().probe(worker) is ShardHealth.CRASHED

    def test_clean_stop_is_classified_stopped(self, tmp_path):
        graph = random_graph(60, 300, seed=14)
        harness = _open(tmp_path, "process", graph)
        workers = list(harness.engine.shards)
        harness.close()
        for worker in workers:
            assert worker.failure_mode() == "stopped"
            assert HealthMonitor().probe(worker) is ShardHealth.STOPPED

    def test_post_mortem_carries_the_forensics(self, tmp_path):
        graph = random_graph(60, 300, seed=15)
        with _open(tmp_path, "process", graph) as harness:
            harness.register(*PAIRS[0])
            assert harness.wait_all_live(timeout=30.0)
            worker = harness.engine.shards[1]
            worker.kill()
            _wait_dead(worker)
            bundle = worker.post_mortem()
            assert bundle["backend"] == "process"
            assert bundle["failure_mode"] == "killed"
            assert bundle["alive"] is False
            assert bundle["exitcode"] is not None and bundle["exitcode"] < 0
            assert bundle["heartbeat"]["beats"] >= 1
            assert "inbox_depth" in bundle
            assert "pid" in bundle
            # replace before close so shutdown stays clean
            harness.engine.replace_shard(1)


class TestEpochBarrier:
    def test_wedged_process_becomes_a_failed_shard(self, tmp_path):
        graph = random_graph(60, 300, seed=16)
        batches = _stream(graph, num_batches=2, seed=16)
        with _open(
            tmp_path, "process", graph, epoch_deadline=0.5
        ) as harness:
            for pair in PAIRS:
                harness.register(*pair)
            assert harness.wait_all_live(timeout=30.0)
            harness.engine.shards[0].submit_wedge(1200)
            result = harness.submit(batches[0])
            assert [index for index, _ in result.failed_shards] == [0]
            assert harness.supervisor.shard_restarts == 1
            # the replacement answers the next epoch inside the deadline
            result = harness.submit(batches[1])
            assert result.failed_shards == []

    def test_wedged_thread_becomes_a_failed_shard(self, tmp_path):
        """Satellite: the thread backend's barrier must also give up at
        the epoch deadline instead of blocking ingest forever."""
        graph = random_graph(60, 300, seed=17)
        batches = _stream(graph, num_batches=2, seed=17)
        with _open(
            tmp_path, "thread", graph, epoch_deadline=0.5
        ) as harness:
            for pair in PAIRS:
                harness.register(*pair)
            assert harness.wait_all_live(timeout=30.0)
            harness.engine.shards[0].submit_wedge(1200)
            started = time.monotonic()
            result = harness.submit(batches[0])
            assert time.monotonic() - started < 10.0
            assert [index for index, _ in result.failed_shards] == [0]
            assert harness.supervisor.shard_restarts == 1
            result = harness.submit(batches[1])
            assert result.failed_shards == []


class TestInheritedTopology:
    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_respawn_and_rescale_match_the_thread_backend(
        self, tmp_path, name
    ):
        """A respawned or rescaled child inherits the canonical graph as
        it stands, adjacency order included, so its epochs count the same
        work as the thread shards': shard 1 is killed before commit 4 and
        respawned by the supervisor, the pool grows to 3 before commit 8."""
        graph, batches = golden_stream()
        rows = {}
        for backend in BACKENDS:
            rows[backend] = []
            with ServeHarness.open(
                str(tmp_path / backend), graph.copy(), get_algorithm(name),
                GOLDEN_ANCHOR, num_shards=2, backend=backend,
            ) as harness:
                for query in GOLDEN_QUERIES:
                    harness.register(query.source, query.destination)
                assert harness.wait_all_live(timeout=30.0)
                for commit, batch in enumerate(batches[:12], start=1):
                    if commit == 4:
                        harness.engine.shards[1].kill()
                        _wait_dead(harness.engine.shards[1])
                    if commit == 8:
                        harness.rescale_shards(3)
                    result = harness.submit(batch)
                    rows[backend].append((
                        result.epoch,
                        result.answers,
                        result.response_ops,
                        result.post_ops,
                        result.stats,
                        [index for index, _ in result.failed_shards],
                    ))
                assert harness.supervisor.shard_restarts == 1
        assert rows["process"][3][5] == [1]
        assert rows["process"] == rows["thread"]


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="scans /proc for children"
)
def test_a_closed_process_harness_leaves_no_child_process(tmp_path):
    """Opening, using and closing a process harness must not leave a
    helper process behind (checked in a fresh interpreter, whose only
    children are the ones the harness made)."""
    script = textwrap.dedent(f"""
        import os
        from repro.algorithms import PPSP
        from repro.query import PairwiseQuery
        from repro.serve import ServeHarness
        from tests.conftest import random_graph

        harness = ServeHarness.open(
            {str(tmp_path / "state")!r}, random_graph(60, 300, seed=21),
            PPSP(), PairwiseQuery(7, 23), num_shards=2, backend="process",
        )
        harness.register(1, 20)
        assert harness.wait_all_live(timeout=30.0)
        harness.close()
        me = str(os.getpid())
        children = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{{entry}}/stat") as handle:
                        stat = handle.read()
                except OSError:
                    continue
                if stat.rsplit(")", 1)[1].split()[1] == me:
                    children.append(entry)
        print(len(children))
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=root,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"], done.stdout
