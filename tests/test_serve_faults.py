"""Failure-path tests for the serving layer.

Three families of injected faults, all deterministic:

* shard-side group failures (via the worker ``fault_hook``) — one source
  degrades for the epoch, every other session's answers stay exact, and
  the supervisor resurrects the source on the next batch;
* a dead shard worker — the supervised harness respawns it mid-stream
  (the bare engine still raises :class:`~repro.errors.ShardCrashedError`);
* a WAL crash mid-serve (via :class:`repro.resilience.faults.CrashPoint`)
  followed by :meth:`ServeHarness.resume` — recovery restores the graph
  and the anchor, clients re-register, and answers from then on match an
  uninterrupted offline replay.
"""

import pytest

from repro.algorithms import PPSP
from repro.core.engine import CISGraphEngine
from repro.errors import ShardCrashedError, WalError
from repro.query import PairwiseQuery
from repro.resilience.faults import CrashPoint, SimulatedCrash
from repro.serve import ServeHarness, SessionState, ShardedServeEngine
from tests.conftest import random_batch, random_graph

pytestmark = [pytest.mark.serve, pytest.mark.faults]

ANCHOR = PairwiseQuery(7, 23)


def _stream(graph, num_batches, seed):
    reference = graph.copy()
    batches = []
    for index in range(num_batches):
        batch = random_batch(reference, 10, 10, seed=seed * 97 + index)
        reference.apply_batch(batch)
        batches.append(batch)
    return batches


def _offline_replay(graph, pairs, batches):
    engines = {
        pair: CISGraphEngine(graph.copy(), PPSP(), PairwiseQuery(*pair))
        for pair in pairs
    }
    for engine in engines.values():
        engine.initialize()
    return [
        {pair: engines[pair].on_batch(batch).answer for pair in engines}
        for batch in batches
    ]


class TestShardGroupFailure:
    def test_crash_mid_batch_degrades_only_that_source(self, tmp_path):
        pairs = [(1, 20), (2, 30), (3, 40)]
        graph = random_graph(50, 300, seed=20)
        batches = _stream(graph, num_batches=4, seed=20)
        offline = _offline_replay(graph, pairs, batches)

        def explode_source_2(kind, source, epoch):
            if kind == "batch" and source == 2 and epoch == 2:
                raise RuntimeError("injected shard fault")

        harness = ServeHarness.open(
            str(tmp_path / "state"), graph.copy(), PPSP(), ANCHOR,
            num_shards=2, fault_hook=explode_source_2,
        )
        sessions = {pair: harness.register(*pair) for pair in pairs}
        assert harness.wait_all_live()

        first = harness.submit(batches[0])
        assert first.degraded == []
        assert all(first.answers[p] == offline[0][p] for p in pairs)

        second = harness.submit(batches[1])
        assert second.degraded == [(2, "injected shard fault")]
        assert (2, 30) not in second.answers
        victim = sessions[(2, 30)]
        # the supervisor already requeued the degraded session for a
        # rescue on the (still live) owning shard
        assert victim.state is SessionState.PENDING
        assert victim.resurrections == 1
        assert harness.supervisor.session_resurrections == 1
        # the unaffected sessions answer exactly, same epoch
        for pair in ((1, 20), (3, 40)):
            assert second.answers[pair] == offline[1][pair]

        # later batches: the resurrected group re-derived its state on the
        # current topology, so every session answers exactly again
        for index in (2, 3):
            result = harness.submit(batches[index])
            assert result.degraded == []
            for pair in pairs:
                assert result.answers[pair] == offline[index][pair]
        assert victim.state is SessionState.LIVE
        breaker = harness.supervisor.breakers[2].as_dict()
        assert breaker == {**breaker, "state": "closed", "failures": 1,
                           "successes": 1}
        assert all(shard.alive for shard in harness.engine.shards)
        # pre-fault answer plus the two post-resurrection ones
        assert len(victim.drain()) == 3
        harness.close()

    def test_register_time_fault_degrades_only_that_session(self, tmp_path):
        graph = random_graph(50, 300, seed=21)
        batches = _stream(graph, num_batches=2, seed=21)

        def reject_source_4(kind, source, epoch):
            if kind == "register" and source == 4:
                raise RuntimeError("bootstrap refused")

        harness = ServeHarness.open(
            str(tmp_path / "state"), graph.copy(), PPSP(), ANCHOR,
            num_shards=2, fault_hook=reject_source_4,
        )
        healthy = harness.register(1, 20)
        broken = harness.register(4, 30)
        assert not harness.wait_all_live(timeout=5.0)
        assert healthy.state is SessionState.LIVE
        assert broken.state is SessionState.DEGRADED
        assert broken.degraded_reason == "bootstrap refused"
        result = harness.submit(batches[0])
        assert (1, 20) in result.answers
        assert (4, 30) not in result.answers
        harness.close()


class TestDeadShard:
    def test_dead_worker_is_respawned_by_the_supervisor(self, tmp_path):
        graph = random_graph(40, 240, seed=22)
        batches = _stream(graph, num_batches=2, seed=22)
        harness = ServeHarness.open(
            str(tmp_path / "state"), graph.copy(), PPSP(), ANCHOR,
            num_shards=2,
        )
        dead = harness.engine.shards[1]
        dead.stop()
        result = harness.submit(batches[0])
        assert [index for index, _ in result.failed_shards] == [1]
        assert harness.supervisor.shard_restarts == 1
        replacement = harness.engine.shards[1]
        assert replacement is not dead and replacement.alive
        assert harness.engine.retired == [dead]
        # the replacement serves the next epoch normally
        assert harness.submit(batches[1]).failed_shards == []
        harness.close()

    def test_unsupervised_engine_still_raises(self):
        graph = random_graph(40, 240, seed=22)
        engine = ShardedServeEngine(graph.copy(), PPSP(), ANCHOR, num_shards=2)
        engine.initialize()
        engine.shards[1].stop()
        with pytest.raises(ShardCrashedError):
            engine.on_batch(random_batch(graph, 5, 5, seed=1))
        engine.close()


class TestWalCrashRecovery:
    @pytest.mark.parametrize(
        "tear, raised", [(False, SimulatedCrash), (True, WalError)]
    )
    def test_resume_after_crash_matches_uninterrupted_replay(
        self, tmp_path, tear, raised
    ):
        pairs = [(1, 20), (2, 30), (5, 40)]
        graph = random_graph(50, 300, seed=23)
        batches = _stream(graph, num_batches=6, seed=23)
        offline = _offline_replay(graph, pairs, batches)
        anchor_offline = _offline_replay(
            graph, [(ANCHOR.source, ANCHOR.destination)], batches
        )
        directory = str(tmp_path / "state")

        harness = ServeHarness.open(
            directory, graph.copy(), PPSP(), ANCHOR,
            num_shards=2, checkpoint_every=2,
            write_hook=CrashPoint(after_records=2, tear=tear),
        )
        for pair in pairs:
            harness.register(*pair)
        assert harness.wait_all_live()
        harness.submit(batches[0])
        harness.submit(batches[1])
        with pytest.raises(raised):
            with harness:  # __exit__ stops threads, leaves disk as-crashed
                harness.submit(batches[2])

        resumed = ServeHarness.resume(directory, num_shards=2)
        assert resumed.recovered is not None
        assert resumed.snapshot_id == 2  # checkpoint@2, no WAL tail beyond
        # the recovered anchor state equals the offline engine at batch 2
        assert resumed.engine.answer == anchor_offline[1][
            (ANCHOR.source, ANCHOR.destination)
        ]
        # sessions are in-memory: clients simply re-register
        sessions = {pair: resumed.register(*pair) for pair in pairs}
        assert resumed.wait_all_live()
        for index in range(2, 6):
            result = resumed.submit(batches[index])
            assert result.degraded == []
            for pair in pairs:
                assert result.answers[pair] == offline[index][pair], (
                    f"post-recovery divergence on batch {index} for {pair}"
                )
            assert result.answer == anchor_offline[index][
                (ANCHOR.source, ANCHOR.destination)
            ]
        for pair, session in sessions.items():
            assert [e.answer for e in session.drain()] == [
                offline[i][pair] for i in range(2, 6)
            ]
        resumed.close()

    def test_resume_adopts_state_record_at_default_cadence(self, tmp_path):
        """Nine commits at the default ``checkpoint_every=4``: base@0, a
        state record at 4 rewritten at 8, one WAL record past it.  Resume
        rebuilds the topology from the WAL span, adopts the record's anchor
        state and replays only the tail."""
        import os

        from repro.checkpoint import checkpoint_info

        pairs = [(1, 20), (2, 30), (5, 40)]
        anchor = (ANCHOR.source, ANCHOR.destination)
        graph = random_graph(50, 300, seed=24)
        batches = _stream(graph, num_batches=11, seed=24)
        offline = _offline_replay(graph, pairs + [anchor], batches)
        directory = str(tmp_path / "state")

        harness = ServeHarness.open(directory, graph.copy(), PPSP(), ANCHOR,
                                    num_shards=2)
        for pair in pairs:
            harness.register(*pair)
        assert harness.wait_all_live()
        for batch in batches[:9]:
            harness.submit(batch)
        harness.close(final_checkpoint=False)
        assert checkpoint_info(harness.pipeline.checkpoint_path).snapshot_id == 0
        record = checkpoint_info(os.path.join(directory, "state.npz"))
        assert (record.version, record.snapshot_id, record.base_snapshot_id) == (3, 8, 0)

        resumed = ServeHarness.resume(directory, num_shards=2)
        assert resumed.recovered.record == record
        assert resumed.recovered.skipped == list(range(1, 9))
        assert resumed.recovered.replayed == [9]
        assert resumed.snapshot_id == 9
        assert resumed.engine.answer == offline[8][anchor]
        sessions = {pair: resumed.register(*pair) for pair in pairs}
        assert resumed.wait_all_live()
        for pair in pairs:
            assert resumed.query(*pair) == offline[8][pair]
        for index in (9, 10):
            result = resumed.submit(batches[index])
            assert result.degraded == []
            assert result.answer == offline[index][anchor]
            for pair in pairs:
                assert result.answers[pair] == offline[index][pair]
        for pair, session in sessions.items():
            assert [e.answer for e in session.drain()] == [
                offline[i][pair] for i in (9, 10)
            ]
        resumed.close()



class TestCrashLoop:
    """Repeated crash/resume cycles — the pathological deployment.

    Recovery must be idempotent under a crash *loop*: however many times
    the process dies (after every single epoch, or before any post-resume
    epoch commits at all), the recovered snapshot is exactly the count of
    durably committed batches — a WAL batch is never replayed twice and
    never lost — and once the crashing stops, serving converges to the
    uninterrupted offline replay.
    """

    PAIRS = [(1, 20), (2, 30), (5, 40)]

    def _fixture(self, seed, num_batches):
        graph = random_graph(50, 300, seed=seed)
        batches = _stream(graph, num_batches=num_batches, seed=seed)
        offline = _offline_replay(graph, self.PAIRS, batches)
        return graph, batches, offline

    def test_crash_after_every_epoch_converges(self, tmp_path):
        graph, batches, offline = self._fixture(seed=24, num_batches=5)
        directory = str(tmp_path / "state")

        harness = ServeHarness.open(
            directory, graph.copy(), PPSP(), ANCHOR,
            num_shards=2, checkpoint_every=2,
            write_hook=CrashPoint(after_records=1),
        )
        for pair in self.PAIRS:
            harness.register(*pair)
        assert harness.wait_all_live()
        harness.submit(batches[0])
        epoch = 1
        with pytest.raises(SimulatedCrash):
            with harness:
                harness.submit(batches[1])

        resumes = 0
        while epoch < len(batches):
            # each cycle: recover, commit exactly one batch, die on the next
            harness = ServeHarness.resume(
                directory, num_shards=2, checkpoint_every=2,
                write_hook=CrashPoint(after_records=1),
            )
            resumes += 1
            assert harness.snapshot_id == epoch, (
                f"resume {resumes}: snapshot {harness.snapshot_id} != "
                f"{epoch} committed batches (lost or double-applied)"
            )
            for pair in self.PAIRS:
                harness.register(*pair)
            assert harness.wait_all_live()
            result = harness.submit(batches[epoch])
            assert result.degraded == []
            for pair in self.PAIRS:
                assert result.answers[pair] == offline[epoch][pair], (
                    f"divergence on batch {epoch} after {resumes} resumes"
                )
            epoch += 1
            if epoch == len(batches):
                harness.close()
                break
            with pytest.raises(SimulatedCrash):
                with harness:
                    harness.submit(batches[epoch])
        assert resumes == len(batches) - 1

        # the final state survives one more clean resume bit-identically
        final = ServeHarness.resume(directory, num_shards=2)
        assert final.snapshot_id == len(batches)
        session = final.register(*self.PAIRS[0])
        assert final.wait_all_live()
        assert final.query(*self.PAIRS[0]) == offline[-1][self.PAIRS[0]]
        final.close()

    def test_zero_progress_crash_cycles_never_double_apply(self, tmp_path):
        graph, batches, offline = self._fixture(seed=25, num_batches=4)
        directory = str(tmp_path / "state")

        harness = ServeHarness.open(
            directory, graph.copy(), PPSP(), ANCHOR,
            num_shards=2, checkpoint_every=2,
        )
        for pair in self.PAIRS:
            harness.register(*pair)
        assert harness.wait_all_live()
        harness.submit(batches[0])
        harness.submit(batches[1])
        harness.close()

        # crash immediately after recovery, before anything commits: three
        # zero-progress cycles must leave the disk state byte-for-byte
        # equivalent (the recovered snapshot never drifts)
        for cycle in range(3):
            harness = ServeHarness.resume(
                directory, num_shards=2,
                write_hook=CrashPoint(after_records=0),
            )
            assert harness.snapshot_id == 2, f"drift in cycle {cycle}"
            for pair in self.PAIRS:
                harness.register(*pair)
            assert harness.wait_all_live()
            with pytest.raises(SimulatedCrash):
                with harness:
                    harness.submit(batches[2])

        # one more cycle dies right after recovery without even trying to
        # serve (a crash mid-warm-up); still no drift
        harness = ServeHarness.resume(directory, num_shards=2)
        assert harness.snapshot_id == 2
        harness.pipeline.wal.close()
        harness.engine.close(strict=False)

        # the crashing stops: recovery + the remaining stream converge
        harness = ServeHarness.resume(directory, num_shards=2)
        assert harness.snapshot_id == 2
        sessions = {pair: harness.register(*pair) for pair in self.PAIRS}
        assert harness.wait_all_live()
        for index in (2, 3):
            result = harness.submit(batches[index])
            assert result.degraded == []
            for pair in self.PAIRS:
                assert result.answers[pair] == offline[index][pair]
        for pair, session in sessions.items():
            assert [e.answer for e in session.drain()] == [
                offline[i][pair] for i in (2, 3)
            ]
        harness.close()
