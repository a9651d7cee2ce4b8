"""Fault-injection suite: crash-window recovery must be provably exact.

Every test here kills or damages a resilient pipeline at a deterministic
injection point, recovers it, and cross-checks the result against an
uninterrupted run or the cold-start ground truth — the acceptance bar for
the durability protocol.  Marked ``faults`` (run alone: ``pytest -m faults``).
"""

import os

import pytest

from repro.algorithms import dijkstra, get_algorithm
from repro.checkpoint import checkpoint_info, save_checkpoint
from repro.core.engine import CISGraphEngine
from repro.errors import RecoveryError, WalError
from repro.metrics import ResilienceCounters
from repro.query import PairwiseQuery
from repro.resilience import faults
from repro.resilience.guard import DifferentialGuard
from repro.resilience.pipeline import ResilientPipeline
from repro.resilience.recovery import (
    STATE_RECORD_NAME,
    RecoveryManager,
    state_paths,
)
from repro.resilience.wal import WriteAheadLog
from tests.conftest import random_batch, random_graph

pytestmark = pytest.mark.faults

ALG = get_algorithm("ppsp")
QUERY = PairwiseQuery(0, 20)
NUM_BATCHES = 6


def make_scenario(seed=3):
    graph = random_graph(40, 220, seed=seed)
    batches = [random_batch(graph, 6, 4, seed=seed + 1 + i) for i in range(NUM_BATCHES)]
    return graph, batches


def straight_through(graph, batches):
    """Uninterrupted reference run; returns the engine and per-batch answers."""
    engine = CISGraphEngine(graph.copy(), ALG, QUERY)
    engine.initialize()
    answers = [engine.on_batch(batch).answer for batch in batches]
    return engine, answers


class TestCrashRecovery:
    @pytest.mark.parametrize("crash_after", [0, 1, 3, 5])
    @pytest.mark.parametrize("tear", [False, True])
    def test_kill_mid_stream_then_recover_matches_uninterrupted(
        self, tmp_path, crash_after, tear
    ):
        """Kill at an injected fault point; the recovered engine must answer
        exactly like an uninterrupted run on every remaining batch."""
        graph, batches = make_scenario()
        reference, ref_answers = straight_through(graph, batches)

        directory = str(tmp_path / "state")
        crash = faults.CrashPoint(after_records=crash_after, tear=tear)
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), ALG, QUERY,
            checkpoint_every=2, wal_sync=False, write_hook=crash,
        )
        with pytest.raises((faults.SimulatedCrash, WalError)):
            for batch in batches:
                pipeline.run_batch(batch)
        pipeline.wal.close()
        assert crash.fired

        counters = ResilienceCounters()
        recovered = RecoveryManager(directory, counters=counters).recover()
        assert counters.recoveries == 1
        # the first crash_after batches committed to the WAL before the kill
        assert recovered.snapshot_id == crash_after
        if crash_after:
            assert recovered.answer == ref_answers[crash_after - 1]

        for index in range(recovered.snapshot_id, NUM_BATCHES):
            result = recovered.engine.on_batch(batches[index])
            assert result.answer == ref_answers[index], f"batch {index} diverged"
        assert recovered.engine.state.states == reference.state.states

    def test_resume_continues_wal_sequence(self, tmp_path):
        """ResilientPipeline.resume picks up the stream position so the WAL
        sequence keeps counting from the crash point."""
        graph, batches = make_scenario()
        _, ref_answers = straight_through(graph, batches)
        directory = str(tmp_path / "state")

        crash = faults.CrashPoint(after_records=3)
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), ALG, QUERY,
            checkpoint_every=2, wal_sync=False, write_hook=crash,
        )
        with pytest.raises(faults.SimulatedCrash):
            for batch in batches:
                pipeline.run_batch(batch)
        pipeline.wal.close()

        resumed = ResilientPipeline.resume(directory, wal_sync=False,
                                           checkpoint_every=2)
        assert resumed.snapshot_id == 3
        for batch in batches[3:]:
            resumed.run_batch(batch)
        resumed.close()
        assert resumed.answer == ref_answers[-1]
        # the full WAL now covers the whole stream exactly once
        from repro.resilience.wal import verify

        _, wal_dir = state_paths(directory)
        stats = verify(wal_dir)
        assert stats.last_sequence == NUM_BATCHES
        assert stats.records == NUM_BATCHES

    def test_torn_crash_resume_stream_recover_again(self, tmp_path):
        """Review regression: tear mid-append at record 5, resume, stream
        the remaining batches — a second recovery must see every
        post-resume record (they used to land behind the torn bytes and
        misframe on the next replay)."""
        graph, batches = make_scenario()
        _, ref_answers = straight_through(graph, batches)
        directory = str(tmp_path / "state")

        crash = faults.CrashPoint(after_records=4, tear=True)
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), ALG, QUERY,
            checkpoint_every=2, wal_sync=False, write_hook=crash,
        )
        with pytest.raises(WalError, match="torn write"):
            for batch in batches:
                pipeline.run_batch(batch)
        pipeline.wal.close()

        resumed = ResilientPipeline.resume(
            directory, wal_sync=False, checkpoint_every=100
        )
        assert resumed.snapshot_id == 4
        assert resumed.wal.tail_bytes_truncated > 0
        for batch in batches[4:]:
            resumed.run_batch(batch)
        resumed.wal.close()  # crash again before any further checkpoint

        recovered = RecoveryManager(directory).recover()
        assert recovered.snapshot_id == NUM_BATCHES
        assert recovered.answer == ref_answers[-1]
        from repro.resilience.wal import verify

        stats = verify(state_paths(directory)[1])
        assert stats.records == NUM_BATCHES
        assert stats.clean

    def test_corrupted_record_quarantined_and_converges(self, tmp_path):
        """A CRC-corrupt WAL record is quarantined (dead-letter counter up)
        and the recovered engine still converges to cold-start truth."""
        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), ALG, QUERY,
            checkpoint_every=100, wal_sync=False,  # no mid-stream checkpoint
        )
        for batch in batches:
            pipeline.run_batch(batch)
        pipeline.wal.close()  # no final checkpoint: recovery must replay all

        _, wal_dir = state_paths(directory)
        faults.corrupt_record_byte(wal_dir, record_index=2)

        counters = ResilienceCounters()
        recovered = RecoveryManager(directory, counters=counters).recover()
        assert counters.quarantined == 1
        assert counters.wal_corrupt_records == 1
        assert len(recovered.deadletters.letters("wal-corrupt")) == 1
        # batch 3 (sequence 3) was lost; the rest replayed
        assert recovered.replayed == [1, 2, 4, 5, 6]

        # the recovered state is a converged fixpoint of its own topology:
        # cold-start ground truth, still serving
        truth = dijkstra(recovered.engine.graph, ALG, QUERY.source)
        assert recovered.engine.state.states == truth.states
        report = DifferentialGuard(recovered.engine, counters=counters).check()
        assert not report.diverged

    def test_strict_policy_raises_on_corruption(self, tmp_path):
        from repro.errors import WalCorruptionError

        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), ALG, QUERY, checkpoint_every=100,
            wal_sync=False,
        )
        for batch in batches[:3]:
            pipeline.run_batch(batch)
        pipeline.wal.close()
        _, wal_dir = state_paths(directory)
        faults.corrupt_record_byte(wal_dir, record_index=1)
        with pytest.raises(WalCorruptionError):
            RecoveryManager(directory, on_corrupt="raise").recover()


class TestCrashWindowEdgeCases:
    def test_recovery_from_empty_wal(self, tmp_path):
        """Crash after the initial checkpoint but before any batch."""
        graph, _ = make_scenario()
        directory = str(tmp_path / "state")
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), ALG, QUERY, wal_sync=False
        )
        initial_answer = pipeline.answer
        pipeline.wal.close()

        recovered = RecoveryManager(directory).recover()
        assert recovered.snapshot_id == 0
        assert recovered.replayed == []
        assert recovered.answer == initial_answer

    def test_recovery_with_no_checkpoint_fails_typed(self, tmp_path):
        with pytest.raises(RecoveryError, match="cannot restore checkpoint"):
            RecoveryManager(str(tmp_path / "void")).recover()

    def test_torn_last_record_dropped(self, tmp_path):
        """A WAL whose final record is cut mid-write recovers to the last
        committed batch."""
        graph, batches = make_scenario()
        _, ref_answers = straight_through(graph, batches)
        directory = str(tmp_path / "state")
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), ALG, QUERY, checkpoint_every=100,
            wal_sync=False,
        )
        for batch in batches[:4]:
            pipeline.run_batch(batch)
        pipeline.wal.close()

        _, wal_dir = state_paths(directory)
        faults.truncate_segment(wal_dir, drop_bytes=7)
        recovered = RecoveryManager(directory).recover()
        assert recovered.snapshot_id == 3
        assert recovered.wal_stats.torn_tails == 1
        assert recovered.answer == ref_answers[2]

    def test_checkpoint_newer_than_wal_tail(self, tmp_path):
        """When the checkpoint already covers every WAL record, recovery
        replays nothing and keeps the checkpoint state."""
        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), ALG, QUERY, checkpoint_every=100,
            wal_sync=False,
        )
        for batch in batches[:3]:
            pipeline.run_batch(batch)
        pipeline.checkpoint()  # checkpoint at snapshot 3 == WAL tail
        pipeline.wal.close()

        ckpt_path, _ = state_paths(directory)
        assert checkpoint_info(ckpt_path).snapshot_id == 3
        recovered = RecoveryManager(directory).recover()
        assert recovered.replayed == []
        assert recovered.skipped == [1, 2, 3]
        assert recovered.snapshot_id == 3
        assert recovered.answer == pipeline.answer

    def test_double_recovery_is_idempotent(self, tmp_path):
        """recover() twice -> bit-identical engine state (it never mutates
        the WAL or the checkpoint)."""
        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        crash = faults.CrashPoint(after_records=4, tear=True)
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), ALG, QUERY, checkpoint_every=2,
            wal_sync=False, write_hook=crash,
        )
        with pytest.raises(WalError):
            for batch in batches:
                pipeline.run_batch(batch)
        pipeline.wal.close()

        first = RecoveryManager(directory).recover()
        second = RecoveryManager(directory).recover()
        assert first.snapshot_id == second.snapshot_id
        assert first.engine.state.states == second.engine.state.states
        assert first.engine.state.parents == second.engine.state.parents
        assert sorted(first.engine.graph.edges()) == sorted(
            second.engine.graph.edges()
        )


class TestDeliveryPerturbations:
    def test_duplicate_delivery_absorbed(self):
        """At-least-once delivery: duplicated updates converge identically."""
        graph, batches = make_scenario(seed=11)
        _, ref_answers = straight_through(graph, batches)
        engine = CISGraphEngine(graph.copy(), ALG, QUERY)
        engine.initialize()
        for index, batch in enumerate(batches):
            result = engine.on_batch(faults.with_duplicates(batch, seed=index))
            assert result.answer == ref_answers[index]
        engine.state.check_converged()

    def test_out_of_order_delivery_absorbed(self):
        """Shuffling conflict-free batches must not change any answer."""
        graph, batches = make_scenario(seed=13)
        # keep only batches without per-edge conflicts so any order is valid
        safe = []
        for batch in batches:
            edges = [u.edge for u in batch]
            if len(edges) == len(set(edges)):
                safe.append(batch)
        assert safe, "scenario produced no conflict-free batches"
        _, ref_answers = straight_through(graph, safe)
        engine = CISGraphEngine(graph.copy(), ALG, QUERY)
        engine.initialize()
        for index, batch in enumerate(safe):
            result = engine.on_batch(faults.with_shuffled(batch, seed=index))
            assert result.answer == ref_answers[index]
        engine.state.check_converged()


class TestCheckpointV2:
    def test_position_metadata_roundtrip(self, tmp_path):
        graph, batches = make_scenario()
        engine = CISGraphEngine(graph.copy(), ALG, QUERY)
        engine.initialize()
        engine.on_batch(batches[0])
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, engine, snapshot_id=1, wal_sequence=1)
        info = checkpoint_info(path)
        assert info.version == 2
        assert info.snapshot_id == 1
        assert info.wal_sequence == 1
        assert info.algorithm == "ppsp"
        assert info.num_vertices == graph.num_vertices

    def test_corrupt_checkpoint_typed_error(self, tmp_path):
        from repro.checkpoint import CheckpointError

        path = str(tmp_path / "bad.npz")
        with open(path, "wb") as handle:
            handle.write(b"zip? never heard of it")
        with pytest.raises(CheckpointError, match="corrupt|not an npz"):
            checkpoint_info(path)

    def test_crash_mid_checkpoint_keeps_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """Review regression: checkpoints are overwritten in place, so a
        torn write used to destroy the only recovery base.  The write must
        be temp-file + rename: a crash mid-write leaves the old file."""
        graph, batches = make_scenario()
        engine = CISGraphEngine(graph.copy(), ALG, QUERY)
        engine.initialize()
        path = str(tmp_path / "checkpoint.npz")
        save_checkpoint(path, engine, snapshot_id=0)

        def torn_write(handle, **arrays):
            handle.write(b"PK\x03\x04 half a zip archive")
            raise faults.SimulatedCrash("killed mid-checkpoint")

        monkeypatch.setattr("repro.checkpoint.np.savez_compressed", torn_write)
        engine.on_batch(batches[0])
        with pytest.raises(faults.SimulatedCrash):
            save_checkpoint(path, engine, snapshot_id=1)

        assert checkpoint_info(path).snapshot_id == 0  # old base intact
        assert not os.path.exists(path + ".tmp")

    def test_no_leaked_file_handle(self, tmp_path):
        import gc
        import warnings

        from repro.checkpoint import load_checkpoint

        graph, _ = make_scenario()
        engine = CISGraphEngine(graph.copy(), ALG, QUERY)
        engine.initialize()
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, engine)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            load_checkpoint(path)
            checkpoint_info(path)
            gc.collect()


# ----------------------------------------------------------------------
# state records (checkpoint format v3): a cadence tick writes states +
# parents + position beside the base; recovery rebuilds the topology from
# the WAL span.  Every way that can go wrong must end in base + replay.
# ----------------------------------------------------------------------
def run_then_crash(directory, graph, batches, every=2, **kwargs):
    """Commit ``batches`` at cadence ``every``, then die (no final checkpoint)."""
    pipeline = ResilientPipeline.open(
        directory, graph.copy(), ALG, QUERY,
        checkpoint_every=every, wal_sync=False, **kwargs,
    )
    for batch in batches:
        pipeline.run_batch(batch)
    pipeline.wal.close()
    return pipeline


def record_path(directory):
    return os.path.join(directory, STATE_RECORD_NAME)


def directory_bytes(directory):
    found = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, directory)] = handle.read()
    return found


def assert_equals_straight_through(recovered, graph, batches, lost=()):
    """Answers, topology, states and position equal an uninterrupted run
    over ``batches`` minus the (1-based) ``lost`` sequences; ``parents``
    may differ between equal-state trees, so they are not pinned."""
    kept = [b for i, b in enumerate(batches, start=1) if i not in lost]
    reference, answers = straight_through(graph, kept)
    assert recovered.snapshot_id == len(batches)
    if kept:
        assert recovered.answer == answers[-1]
    assert sorted(recovered.engine.graph.edges()) == sorted(reference.graph.edges())
    assert recovered.engine.state.states == reference.state.states
    recovered.engine.state.check_converged()


class TestStateRecord:
    def test_cadence_writes_record_not_base(self, tmp_path):
        """Crash between a record write and the next append: the record is
        adopted, its span reported as skipped, nothing replayed."""
        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        run_then_crash(directory, graph, batches[:4])

        base = checkpoint_info(state_paths(directory)[0])
        record = checkpoint_info(record_path(directory))
        assert (base.version, base.snapshot_id) == (2, 0)
        assert (record.version, record.snapshot_id, record.base_snapshot_id) == (3, 4, 0)
        assert record.wal_sequence == 4
        assert record.num_vertices == graph.num_vertices

        recovered = RecoveryManager(directory).recover()
        assert recovered.record == record
        assert recovered.record_rejected == ""
        assert recovered.skipped == [1, 2, 3, 4]
        assert recovered.replayed == []
        assert recovered.record.num_edges == recovered.engine.graph.num_edges
        assert_equals_straight_through(recovered, graph, batches[:4])

    def test_tail_replays_on_top_of_record(self, tmp_path):
        graph, batches = make_scenario()
        _, ref_answers = straight_through(graph, batches)
        directory = str(tmp_path / "state")
        run_then_crash(directory, graph, batches[:5])

        recovered = RecoveryManager(directory).recover()
        assert recovered.record.snapshot_id == 4
        assert recovered.skipped == [1, 2, 3, 4]
        assert recovered.replayed == [5]
        assert_equals_straight_through(recovered, graph, batches[:5])
        assert recovered.engine.on_batch(batches[5]).answer == ref_answers[5]

    def test_torn_record_write_keeps_old_record(self, tmp_path, monkeypatch):
        """A crash mid-record-write goes through the same temp-file + rename
        routine as the base: the old record survives; a leftover
        ``state.npz.tmp`` (power cut before the cleanup ran) is inert."""
        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), ALG, QUERY, checkpoint_every=2, wal_sync=False,
        )
        for batch in batches[:3]:
            pipeline.run_batch(batch)

        def torn_write(handle, **arrays):
            handle.write(b"PK\x03\x04 half a zip archive")
            raise faults.SimulatedCrash("killed mid-record")

        monkeypatch.setattr("repro.checkpoint.np.savez", torn_write)  # records are stored
        with pytest.raises(faults.SimulatedCrash):
            pipeline.run_batch(batches[3])  # tick at 4 dies inside the write
        pipeline.wal.close()
        monkeypatch.undo()
        assert not os.path.exists(record_path(directory) + ".tmp")
        with open(record_path(directory) + ".tmp", "wb") as handle:
            handle.write(b"PK\x03\x04 half a zip archive")

        assert checkpoint_info(record_path(directory)).snapshot_id == 2
        recovered = RecoveryManager(directory).recover()
        assert recovered.record.snapshot_id == 2
        assert recovered.skipped == [1, 2]
        assert recovered.replayed == [3, 4]
        assert_equals_straight_through(recovered, graph, batches[:4])

    def test_byte_flipped_record_falls_back(self, tmp_path):
        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        run_then_crash(directory, graph, batches[:5])
        path = record_path(directory)
        with open(path, "rb") as handle:
            pristine = handle.read()

        rejected = 0
        for position in range(0, len(pristine), 37):
            damaged = bytearray(pristine)
            damaged[position] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(bytes(damaged))
            recovered = RecoveryManager(directory).recover()
            assert_equals_straight_through(recovered, graph, batches[:5])
            if recovered.record is None:
                rejected += 1
                assert recovered.record_rejected
                assert recovered.skipped == []
                assert recovered.replayed == [1, 2, 3, 4, 5]
        assert rejected > len(pristine) // 37 // 2  # most flips are fatal

    @pytest.mark.parametrize("on_corrupt", ["quarantine", "raise"])
    def test_corrupt_wal_record_inside_span(self, tmp_path, on_corrupt):
        """The cost of not re-serialising topology: a WAL record that rots
        inside the record's span forces base + replay, which loses that
        batch under ``quarantine`` (and says so) and raises under ``raise``."""
        from repro.errors import WalCorruptionError

        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        run_then_crash(directory, graph, batches[:5])
        faults.corrupt_record_byte(state_paths(directory)[1], record_index=1)

        manager = RecoveryManager(directory, on_corrupt=on_corrupt)
        if on_corrupt == "raise":
            with pytest.raises(WalCorruptionError):
                manager.recover()
            return
        recovered = manager.recover()
        assert recovered.record is None
        assert "WAL holds [1, 3, 4] of its span 1..4" in recovered.record_rejected
        assert recovered.replayed == [1, 3, 4, 5]
        assert len(recovered.deadletters.letters("wal-corrupt")) == 1
        assert_equals_straight_through(recovered, graph, batches[:5], lost={2})

    def test_missing_wal_record_inside_span(self, tmp_path):
        import shutil

        from repro.resilience.wal import replay

        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        run_then_crash(directory, graph, batches[:5])
        wal_dir = state_paths(directory)[1]
        records = list(replay(wal_dir))
        shutil.rmtree(wal_dir)
        with WriteAheadLog(wal_dir, sync=False) as wal:
            for record in records:
                if record.sequence != 3:
                    wal.append(record.batch, record.sequence)

        recovered = RecoveryManager(directory, on_corrupt="raise").recover()
        assert recovered.record is None
        assert "WAL holds [1, 2, 4] of its span 1..4" in recovered.record_rejected
        assert recovered.replayed == [1, 2, 4, 5]
        assert_equals_straight_through(recovered, graph, batches[:5], lost={3})

    def test_wal_shorter_than_record(self, tmp_path):
        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        run_then_crash(directory, graph, batches[:4])
        faults.truncate_segment(state_paths(directory)[1], drop_bytes=7)

        recovered = RecoveryManager(directory).recover()
        assert recovered.record is None
        assert "WAL holds [1, 2, 3] of its span 1..4" in recovered.record_rejected
        assert recovered.replayed == [1, 2, 3]
        assert_equals_straight_through(recovered, graph, batches[:3])

    def test_stale_record_after_base_rewrite_is_ignored(self, tmp_path):
        """Crash between the base's rename and the record's unlink."""
        import shutil

        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), ALG, QUERY, checkpoint_every=2, wal_sync=False,
        )
        for batch in batches[:3]:
            pipeline.run_batch(batch)
        shutil.copy(record_path(directory), str(tmp_path / "kept.npz"))
        pipeline.checkpoint()  # base@3
        assert not os.path.exists(record_path(directory))  # removed with it
        shutil.copy(str(tmp_path / "kept.npz"), record_path(directory))
        pipeline.run_batch(batches[3])  # tick at 4 would overwrite: crash first
        pipeline.wal.close()
        shutil.copy(str(tmp_path / "kept.npz"), record_path(directory))

        recovered = RecoveryManager(directory).recover()
        assert recovered.checkpoint.snapshot_id == 3
        assert recovered.record is None
        assert "written for base" in recovered.record_rejected
        assert recovered.replayed == [4]
        assert_equals_straight_through(recovered, graph, batches[:4])

    @pytest.mark.parametrize(
        "tamper, reason",
        [
            (dict(algorithm="ppwp"), "written for base"),
            (dict(query=PairwiseQuery(1, 20)), "written for base"),
            (dict(extra_vertices=1), "written for base"),
            (dict(base_snapshot_id=1), "written for base"),
            (dict(snapshot_id=0), "not newer"),
            (dict(snapshot_id=9), "of its span 1..9"),
            (dict(extra_edge=True), "edges after its WAL span"),
            (dict(drop_state=True), "do not match num_vertices"),
            (dict(wrong_state=True), "convergence verification"),
        ],
    )
    def test_every_mismatch_falls_back(self, tmp_path, tamper, reason):
        """A record that parses but is not *this* directory's truth."""
        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        run_then_crash(directory, graph, batches[:5])

        reference, _ = straight_through(graph, batches[:4])
        shape = reference.graph.copy()
        if tamper.get("extra_edge"):
            u, v = next(
                (u, v) for u in range(40) for v in range(40)
                if u != v and shape.weight_or_none(u, v) is None
            )
            shape.add_edge(u, v, 3.0)
        if tamper.get("extra_vertices"):
            shape = type(shape).from_edges(41, shape.edges())
        forged = CISGraphEngine(
            shape, get_algorithm(tamper.get("algorithm", "ppsp")),
            tamper.get("query", QUERY),
        )
        forged.initialize()
        if tamper.get("drop_state"):
            forged.state.states = forged.state.states[:-1]
        if tamper.get("wrong_state"):
            forged.state.states[QUERY.destination] += 1.0
        save_checkpoint(
            record_path(directory), forged,
            snapshot_id=tamper.get("snapshot_id", 4), wal_sequence=4,
            base_snapshot_id=tamper.get("base_snapshot_id", 0),
        )

        recovered = RecoveryManager(directory).recover()
        assert recovered.record is None
        assert reason in recovered.record_rejected
        assert recovered.skipped == []
        assert recovered.replayed == [1, 2, 3, 4, 5]
        assert_equals_straight_through(recovered, graph, batches[:5])

    def test_rebase_exactly_when_logged_updates_reach_num_edges(self, tmp_path):
        graph = random_graph(12, 30, seed=5)
        batches = [random_batch(graph, 6, 4, seed=40 + i) for i in range(9)]
        directory = str(tmp_path / "state")
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), ALG, PairwiseQuery(0, 7),
            checkpoint_every=1, wal_sync=False,
        )
        base_path = state_paths(directory)[0]
        logged, bases = 0, []
        for sequence, batch in enumerate(batches, start=1):
            pipeline.run_batch(batch)
            logged += len(batch)
            if logged >= pipeline.engine.graph.num_edges:
                logged = 0
                bases.append(sequence)
                assert checkpoint_info(base_path).snapshot_id == sequence
                assert not os.path.exists(record_path(directory))
            else:
                record = checkpoint_info(record_path(directory))
                assert record.snapshot_id == sequence
                assert record.base_snapshot_id == (bases[-1] if bases else 0)
                assert checkpoint_info(base_path).snapshot_id == record.base_snapshot_id
        assert bases and len(bases) < len(batches)  # both branches ran
        assert pipeline.counters.checkpoints_written == 1 + len(batches)
        pipeline.wal.close()

    def test_first_tick_after_resume_writes_a_base(self, tmp_path):
        """A resumed pipeline cannot vouch for the WAL span behind it (a
        quarantined record may sit there), so it re-bases once."""
        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        run_then_crash(directory, graph, batches[:3])
        base_path = state_paths(directory)[0]
        assert checkpoint_info(base_path).snapshot_id == 0

        resumed = ResilientPipeline.resume(directory, wal_sync=False,
                                           checkpoint_every=2)
        assert resumed.snapshot_id == 3
        assert checkpoint_info(record_path(directory)).snapshot_id == 2  # untouched
        resumed.run_batch(batches[3])  # tick at 4: base, record removed
        assert checkpoint_info(base_path).snapshot_id == 4
        assert not os.path.exists(record_path(directory))
        resumed.run_batch(batches[4])
        resumed.run_batch(batches[5])  # tick at 6: a record again
        assert checkpoint_info(base_path).snapshot_id == 4
        assert checkpoint_info(record_path(directory)).base_snapshot_id == 4
        resumed.wal.close()

        recovered = RecoveryManager(directory).recover()
        assert recovered.record.snapshot_id == 6
        assert recovered.skipped == [1, 2, 3, 4, 5, 6]
        assert_equals_straight_through(recovered, graph, batches)

    def test_v2_only_directory_recovers_as_before(self, tmp_path):
        """No ``state.npz`` (a parent-commit directory, or the record was
        deleted): same snapshot and answers, via the base."""
        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        run_then_crash(directory, graph, batches[:5])
        with_record = RecoveryManager(directory).recover()
        os.unlink(record_path(directory))

        recovered = RecoveryManager(directory).recover()
        assert recovered.record is None and recovered.record_rejected == ""
        assert recovered.skipped == []
        assert recovered.replayed == [1, 2, 3, 4, 5]
        assert recovered.answer == with_record.answer
        assert recovered.engine.state.states == with_record.engine.state.states
        assert_equals_straight_through(recovered, graph, batches[:5])

    def test_double_recovery_is_bit_identical_and_read_only(self, tmp_path):
        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        run_then_crash(directory, graph, batches[:5])
        before = directory_bytes(directory)
        assert "state.npz" in before

        first = RecoveryManager(directory).recover()
        second = RecoveryManager(directory).recover()
        assert directory_bytes(directory) == before
        assert first.record == second.record
        assert first.snapshot_id == second.snapshot_id
        assert first.engine.state.states == second.engine.state.states
        assert first.engine.state.parents == second.engine.state.parents
        assert list(first.engine.graph.edges()) == list(second.engine.graph.edges())

    def test_explicit_and_final_checkpoints_are_bases(self, tmp_path):
        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        with ResilientPipeline.open(
            directory, graph.copy(), ALG, QUERY, checkpoint_every=2, wal_sync=False,
        ) as pipeline:
            for batch in batches[:5]:
                pipeline.run_batch(batch)
            assert os.path.exists(record_path(directory))
        info = checkpoint_info(state_paths(directory)[0])
        assert (info.version, info.snapshot_id) == (2, 5)
        assert not os.path.exists(record_path(directory))

    def test_record_is_not_a_loadable_checkpoint(self, tmp_path):
        from repro.checkpoint import CheckpointError, load_checkpoint

        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        run_then_crash(directory, graph, batches[:2])
        with pytest.raises(CheckpointError,
                           match="v3 state record for base snapshot 0"):
            load_checkpoint(record_path(directory))


# ----------------------------------------------------------------------
# archive encodings: the base is deflated, a state record stored; both
# load, and no damaged byte of either escapes as anything but a
# CheckpointError.
# ----------------------------------------------------------------------
def member_encodings(path):
    import zipfile

    with zipfile.ZipFile(path) as archive:
        return {info.filename: info.compress_type for info in archive.infolist()}


def small_state_directory(tmp_path):
    """A 30-vertex directory holding a base at 0 and a record at 2."""
    graph = random_graph(30, 120, seed=11)
    batches = [random_batch(graph, 4, 3, seed=12 + i) for i in range(2)]
    directory = str(tmp_path / "small")
    run_then_crash(directory, graph, batches)
    return directory


class TestArchiveEncoding:
    def test_record_is_stored_and_base_is_deflated(self, tmp_path):
        import zipfile

        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        run_then_crash(directory, graph, batches[:4])
        record = member_encodings(record_path(directory))
        base = member_encodings(state_paths(directory)[0])
        assert "states.npy" in record and "edges_src.npy" in base
        assert set(record.values()) == {zipfile.ZIP_STORED}
        assert set(base.values()) == {zipfile.ZIP_DEFLATED}

    def test_deflated_record_still_loads(self, tmp_path):
        """Every record written before records were stored was deflated."""
        import zipfile

        import numpy as np

        from repro.checkpoint import load_state_record, restore_checkpoint

        graph, batches = make_scenario()
        directory = str(tmp_path / "state")
        run_then_crash(directory, graph, batches[:5])
        stored = RecoveryManager(directory).recover()
        with np.load(record_path(directory)) as data:
            fields = {name: data[name] for name in data.files}
        np.savez_compressed(record_path(directory), **fields)
        assert set(member_encodings(record_path(directory)).values()) == {
            zipfile.ZIP_DEFLATED
        }

        engine, base = restore_checkpoint(state_paths(directory)[0])
        info, states, parents = load_state_record(record_path(directory), engine, base)
        assert info == stored.record
        assert (states, parents) == (
            fields["states"].tolist(), fields["parents"].tolist(),
        )
        deflated = RecoveryManager(directory).recover()
        assert deflated.record == stored.record
        assert (deflated.skipped, deflated.replayed) == (
            stored.skipped, stored.replayed,
        ) == ([1, 2, 3, 4], [5])
        assert deflated.engine.state.states == stored.engine.state.states
        assert_equals_straight_through(deflated, graph, batches[:5])

    @pytest.mark.parametrize("mask", [0xFF, 0x01])
    @pytest.mark.parametrize("kind", ["record", "base"])
    def test_every_byte_flip_loads_or_is_rejected(self, tmp_path, kind, mask):
        """zipfile meets a flipped header byte with BadZipFile, zlib.error,
        NotImplementedError, RuntimeError, ...; each must come out as the
        CheckpointError recovery falls back on (record) or refuses (base)."""
        from repro.checkpoint import (
            CheckpointError,
            load_state_record,
            restore_checkpoint,
        )

        directory = small_state_directory(tmp_path)
        base_path = state_paths(directory)[0]
        engine, base = restore_checkpoint(base_path)
        if kind == "record":
            path, load = record_path(directory), lambda p: load_state_record(p, engine, base)
        else:
            path, load = base_path, restore_checkpoint

        with open(path, "rb") as handle:
            pristine = handle.read()
        rejected = 0
        for position in range(len(pristine)):
            damaged = bytearray(pristine)
            damaged[position] ^= mask
            with open(path, "wb") as handle:
                handle.write(bytes(damaged))
            try:
                load(path)
            except CheckpointError:
                rejected += 1
        assert rejected > len(pristine) // 2  # most bytes matter

    def test_restore_checkpoint_names_a_state_record(self, tmp_path):
        from repro.checkpoint import CheckpointError, restore_checkpoint

        graph, _ = make_scenario()
        engine = CISGraphEngine(graph.copy(), ALG, QUERY)
        engine.initialize()
        path = str(tmp_path / "state.npz")
        save_checkpoint(path, engine, snapshot_id=7, wal_sequence=7,
                        base_snapshot_id=3)
        with pytest.raises(
            CheckpointError,
            match="is a v3 state record for base snapshot 3, not a checkpoint: "
                  "RecoveryManager adopts it on top of its base",
        ):
            restore_checkpoint(path)
        assert checkpoint_info(path).base_snapshot_id == 3  # still readable
