"""End-to-end tests for the serving harness (repro.serve.harness).

The centerpiece is the ISSUE acceptance scenario: eight standing queries
across four source groups on three shards, twenty WAL-backed update
batches with additions and deletions, every per-batch answer checked
against an offline single-query :class:`CISGraphEngine` replay.
"""

import queue
import threading

import pytest

from repro.algorithms import PPSP
from repro.core.engine import CISGraphEngine
from repro.errors import (
    DuplicateQueryError,
    QueryError,
    QueueSaturatedError,
    RateLimitedError,
)
from repro.graph.batch import UpdateBatch, add
from repro.query import PairwiseQuery
from repro.serve import ServeHarness, SessionState
from tests.conftest import random_batch, random_graph

pytestmark = pytest.mark.serve

#: the acceptance workload: >= 8 standing queries across >= 3 source groups
PAIRS = [
    (0, 20), (0, 30), (1, 20), (1, 40),
    (2, 25), (2, 35), (5, 45), (5, 15),
]
ANCHOR = PairwiseQuery(7, 23)


def _offline_replay(graph, algorithm, pairs, batches):
    """Per-batch answers from one single-query engine per pair."""
    engines = {
        pair: CISGraphEngine(graph.copy(), algorithm, PairwiseQuery(*pair))
        for pair in pairs
    }
    for engine in engines.values():
        engine.initialize()
    timeline = []
    for batch in batches:
        timeline.append(
            {pair: engines[pair].on_batch(batch).answer for pair in engines}
        )
    return timeline


def _stream(graph, num_batches, seed):
    """Evolve a private copy of ``graph`` and return the batch sequence."""
    reference = graph.copy()
    batches = []
    for index in range(num_batches):
        batch = random_batch(reference, 12, 12, seed=seed * 101 + index)
        reference.apply_batch(batch)
        batches.append(batch)
    return batches


class TestAcceptanceEndToEnd:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_standing_answers_match_offline_engines(self, tmp_path, seed):
        graph = random_graph(60, 360, seed=seed)
        batches = _stream(graph, num_batches=20, seed=seed)
        offline = _offline_replay(graph, PPSP(), PAIRS, batches)

        harness = ServeHarness.open(
            str(tmp_path / "state"), graph.copy(), PPSP(), ANCHOR,
            num_shards=3, checkpoint_every=6, guard_every=9,
        )
        sessions = {pair: harness.register(*pair) for pair in PAIRS}
        assert harness.wait_all_live(timeout=10.0)
        assert len({p[0] % 3 for p in PAIRS}) >= 3  # spans >= 3 shards

        for index, batch in enumerate(batches):
            result = harness.submit(batch)
            assert result.epoch == index + 1
            for pair in PAIRS:
                assert result.answers[pair] == offline[index][pair], (
                    f"session {pair} diverged from the offline engine "
                    f"on batch {index}"
                )
            assert result.degraded == []

        # each session's event stream carries the same per-batch answers
        for pair, session in sessions.items():
            assert session.state is SessionState.LIVE
            events = session.drain()
            assert [e.answer for e in events] == [
                step[pair] for step in offline
            ]
            assert session.dropped_events == 0

        # ad-hoc reads: the second pass over each pair must hit the cache
        for pair in PAIRS:
            harness.query(*pair)
        for pair in PAIRS:
            assert harness.query(*pair) == offline[-1][pair]
        assert harness.cache.stats.hit_rate > 0

        summary = harness.stats()
        assert summary["batches_served"] == 20
        assert summary["sessions"]["live"] == len(PAIRS)
        assert summary["epoch"] == 20
        harness.close()

    def test_anchor_answer_tracks_single_engine(self, tmp_path):
        graph = random_graph(60, 360, seed=3)
        batches = _stream(graph, num_batches=6, seed=3)
        offline = _offline_replay(
            graph, PPSP(), [(ANCHOR.source, ANCHOR.destination)], batches
        )
        harness = ServeHarness.open(
            str(tmp_path / "state"), graph.copy(), PPSP(), ANCHOR,
        )
        for index, batch in enumerate(batches):
            result = harness.submit(batch)
            assert result.answer == offline[index][
                (ANCHOR.source, ANCHOR.destination)
            ]
        harness.close()

    def test_all_algorithms_through_the_sharded_path(self, tmp_path, algorithm):
        graph = random_graph(50, 300, seed=4)
        pairs = [(0, 30), (1, 40), (2, 25)]
        batches = _stream(graph, num_batches=5, seed=4)
        offline = _offline_replay(graph, algorithm, pairs, batches)
        harness = ServeHarness.open(
            str(tmp_path / "state"), graph.copy(), algorithm,
            PairwiseQuery(3, 33), num_shards=2,
        )
        for pair in pairs:
            harness.register(*pair)
        assert harness.wait_all_live()
        for index, batch in enumerate(batches):
            result = harness.submit(batch)
            for pair in pairs:
                assert result.answers[pair] == offline[index][pair]
        harness.close()


class TestRegistration:
    def test_duplicate_query_raises_typed_error(self, tmp_path):
        graph = random_graph(30, 150, seed=5)
        with ServeHarness.open(
            str(tmp_path / "state"), graph, PPSP(), PairwiseQuery(0, 9)
        ) as harness:
            harness.register(1, 7)
            with pytest.raises(DuplicateQueryError):
                harness.register(1, 7)

    def test_dedupe_returns_existing_session_without_new_shard_work(
        self, tmp_path
    ):
        graph = random_graph(30, 150, seed=5)
        with ServeHarness.open(
            str(tmp_path / "state"), graph, PPSP(), PairwiseQuery(0, 9),
            dedupe=True,
        ) as harness:
            first = harness.register(1, 7)
            assert harness.wait_all_live()
            assert harness.register(1, 7) is first
            # only the first registration reached the shard
            assert harness.admission.admitted_registrations == 2
            counts = harness.sessions.by_state()
            assert counts["live"] == 1 and sum(counts.values()) == 1

    def test_registration_rate_limit(self, tmp_path):
        graph = random_graph(30, 150, seed=6)
        with ServeHarness.open(
            str(tmp_path / "state"), graph, PPSP(), PairwiseQuery(0, 9),
            registration_rate=0.0, registration_burst=2.0,
        ) as harness:
            harness.register(1, 7)
            harness.register(2, 8)
            with pytest.raises(RateLimitedError):
                harness.register(3, 9)
            assert harness.admission.rejection_counts() == {"rate-limited": 1}
            # the shed registration left no session behind
            assert len(harness.sessions) == 2

    def test_register_validates_vertex_range(self, tmp_path):
        graph = random_graph(30, 150, seed=6)
        with ServeHarness.open(
            str(tmp_path / "state"), graph, PPSP(), PairwiseQuery(0, 9)
        ) as harness:
            with pytest.raises(QueryError):
                harness.register(0, 30)

    def test_late_registration_answers_from_next_batch_on(self, tmp_path):
        graph = random_graph(40, 240, seed=7)
        batches = _stream(graph, num_batches=4, seed=7)
        offline = _offline_replay(graph, PPSP(), [(2, 30)], batches)
        harness = ServeHarness.open(
            str(tmp_path / "state"), graph.copy(), PPSP(), PairwiseQuery(0, 9)
        )
        harness.submit(batches[0])
        harness.submit(batches[1])
        late = harness.register(2, 30)  # bootstrapped on the post-batch-2 graph
        assert late.wait_live(timeout=10.0)
        for index in (2, 3):
            result = harness.submit(batches[index])
            assert result.answers[(2, 30)] == offline[index][(2, 30)]
        assert [e.answer for e in late.drain()] == [
            offline[2][(2, 30)], offline[3][(2, 30)]
        ]
        harness.close()

    def test_deregister_detaches_destination_and_stops_answers(self, tmp_path):
        graph = random_graph(40, 240, seed=8)
        batches = _stream(graph, num_batches=2, seed=8)
        harness = ServeHarness.open(
            str(tmp_path / "state"), graph.copy(), PPSP(), PairwiseQuery(0, 9),
            num_shards=2,
        )
        keep = harness.register(1, 20)
        drop = harness.register(2, 30)
        assert harness.wait_all_live()
        harness.submit(batches[0])
        harness.deregister(drop.id)
        assert drop.state is SessionState.CLOSED
        result = harness.submit(batches[1])
        assert (1, 20) in result.answers
        assert (2, 30) not in result.answers
        assert len(keep.drain()) == 2
        assert len(drop.drain()) == 1  # only the pre-deregister batch
        # source 2's group is gone from its shard
        assert 2 not in harness.engine.sources_owned()[2 % 2]
        harness.close()


def _fill(shard):
    """Submit no-ops through the bounded path until it refuses one."""
    try:
        while True:
            shard.submit(("noop",), block=False)
    except queue.Full:
        pass


class TestBackpressure:
    def test_queue_saturation_rejects_registration(self, tmp_path):
        """Under a shrunken queue bound a stalled shard sheds registrations."""
        release = threading.Event()

        def stall_register(kind, source, epoch):
            if kind == "register":
                release.wait(timeout=30.0)

        graph = random_graph(30, 150, seed=9)
        harness = ServeHarness.open(
            str(tmp_path / "state"), graph, PPSP(), PairwiseQuery(0, 9),
            num_shards=1, queue_bound=1, fault_hook=stall_register,
            registration_rate=0.0, registration_burst=8.0,
        )
        try:
            first = harness.register(1, 7)  # stalls inside the hook
            # fill the in-flight ledger so the next probe sees saturation
            _fill(harness.engine.shards[0])
            with pytest.raises(QueueSaturatedError):
                harness.register(2, 8)
            assert (
                harness.admission.rejection_counts()["queue-saturated"] == 1
            )
            assert len(harness.sessions) == 1  # the shed one left no session
        finally:
            release.set()
        assert first.wait_live(timeout=10.0)
        harness.close()

    def test_queue_saturation_rejects_batch_before_wal(self, tmp_path):
        release = threading.Event()

        def stall_register(kind, source, epoch):
            if kind == "register":
                release.wait(timeout=30.0)

        graph = random_graph(30, 150, seed=9)
        harness = ServeHarness.open(
            str(tmp_path / "state"), graph, PPSP(), PairwiseQuery(0, 9),
            num_shards=1, queue_bound=1, fault_hook=stall_register,
        )
        try:
            harness.register(1, 7)  # stalls the worker
            _fill(harness.engine.shards[0])
            snapshot_before = harness.snapshot_id
            with pytest.raises(QueueSaturatedError):
                harness.submit([add(0, 5, 1.0)])
            # a shed batch is not durable and not counted
            assert harness.snapshot_id == snapshot_before
            assert harness.batches_served == 0
        finally:
            release.set()
        harness.close()


class TestSubmitValidation:
    def test_out_of_range_batch_rejected_before_wal(self, tmp_path):
        graph = random_graph(30, 150, seed=10)
        with ServeHarness.open(
            str(tmp_path / "state"), graph, PPSP(), PairwiseQuery(0, 9)
        ) as harness:
            before = harness.snapshot_id
            with pytest.raises(QueryError):
                harness.submit(UpdateBatch([add(0, 30, 1.0)]))
            assert harness.snapshot_id == before
            assert harness.batches_served == 0

    def test_submit_accepts_plain_update_lists(self, tmp_path):
        graph = random_graph(30, 150, seed=10)
        with ServeHarness.open(
            str(tmp_path / "state"), graph, PPSP(), PairwiseQuery(0, 9)
        ) as harness:
            result = harness.submit([add(0, 5, 0.5)])
            assert result.epoch == 1
