"""The read path: a read is answered by whoever maintains the source.

Differential and fault coverage of ``ServeHarness.read`` →
``ResultCache.fetch`` → ``ShardedServeEngine.lookup`` →
``ShardCore.lookup``: every value equals a cold solve on the canonical
graph, every read is stamped with the epoch it is exact for, the counters
say who served it, and an owner that is absent, dead, retired, unsealed
or wedged is never the one answering.  ``docs/serving.md``'s "Read
contract" links each clause to a test here.
"""

import sys
import threading
import time

import pytest

from repro.algorithms import PPSP
from repro.algorithms.registry import get_algorithm, list_algorithms
from repro.algorithms.solvers import dijkstra
from repro.core.classification import KeyPathRule
from repro.graph.batch import UpdateBatch, add, delete
from repro.query import PairwiseQuery
from repro.resilience.chaos import ManualClock
from repro.serve import ServeHarness, SupervisorConfig, executor
from repro.serve.shard import ShardCore
from tests.conftest import random_batch, random_graph

pytestmark = pytest.mark.serve
process = pytest.mark.procserve
BOTH = ["thread", pytest.param("process", marks=process)]

VERTICES = 60
ANCHOR = PairwiseQuery(7, 23)
#: standing pairs: sources 1 and 4 share a shard at 3 shards, 2 sits alone
STANDING = [(1, 20), (1, 31), (2, 30), (4, 50)]
#: destinations nobody registered, and a source nobody owns
ELSEWHERE = (5, 44)
UNOWNED = 9


def _open(tmp_path, backend="thread", algorithm=None, shards=2, **kwargs):
    graph = random_graph(VERTICES, 300, seed=31)
    return ServeHarness.open(
        str(tmp_path / "state"), graph, algorithm or PPSP(), ANCHOR,
        num_shards=shards, backend=backend, **kwargs,
    )


def _register_all(harness):
    for pair in STANDING:
        harness.register(*pair)
    assert harness.wait_all_live(timeout=30.0)


def _mixed_batch(graph, index):
    """Deletion-heavy and addition-heavy batches in turn, with re-weights
    (``random_batch``), a duplicate addition and a cancelling add/delete."""
    adds, dels = (4, 14) if index % 2 == 0 else (12, 4)
    batch = random_batch(graph, adds, dels, seed=3100 + index)
    absent = next(
        (u, v) for u in range(VERTICES) for v in range(VERTICES)
        if u != v and not graph.has_edge(u, v)
    )
    updates = list(batch)
    if updates:
        updates.append(updates[0])
    updates += [add(*absent, 3.0), delete(*absent, 3.0)]
    return UpdateBatch(updates)


def _oracle(harness, source, destination):
    engine = harness.engine
    return dijkstra(engine.graph, engine.algorithm, source).states[destination]


def _exact(harness, source, destination):
    """One read, checked against a cold solve and the epoch stamp."""
    read = harness.read(source, destination)
    assert read.value == _oracle(harness, source, destination)
    assert read.epoch == harness.engine.epoch
    assert not read.degraded
    return read


def _counts(harness):
    stats = harness.cache.stats
    return stats.lookups, stats.hits, stats.misses, stats.owned_hits


def _deltas(harness, before):
    return tuple(b - a for a, b in zip(before, _counts(harness)))


def _settle(harness):
    """Wait until every shard has retired what is queued for it."""
    deadline = time.monotonic() + 10.0
    while harness.engine.max_depth() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert harness.engine.max_depth() == 0


# ----------------------------------------------------------------------
# differential: every algorithm, both backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BOTH)
@pytest.mark.parametrize("name", list_algorithms())
def test_reads_match_a_cold_solve_and_say_who_served_them(
    tmp_path, name, backend
):
    with _open(tmp_path, backend, get_algorithm(name), shards=3) as harness:
        _register_all(harness)
        owned = [
            (source, destination)
            for source, registered in STANDING
            for destination in (registered,) + ELSEWHERE
        ] + [(ANCHOR.source, d) for d in (ANCHOR.destination,) + ELSEWHERE]
        for index in range(16):
            result = harness.submit(_mixed_batch(harness.engine.graph, index))
            assert not result.degraded and not result.failed_shards
            before = _counts(harness)
            for pair in owned:
                _exact(harness, *pair)
            assert _deltas(harness, before) == (
                len(owned), len(owned), 0, len(owned)
            )
            # nobody maintains UNOWNED: its first read after a commit is
            # the one solve of the epoch (none when the net batch was
            # empty and the family stayed), the rest are cache hits
            for destination in ELSEWHERE + ELSEWHERE:
                _exact(harness, UNOWNED, destination)
            lookups, hits, misses, owned_hits = _deltas(harness, before)
            assert (lookups, owned_hits) == (len(owned) + 4, len(owned))
            assert misses <= 1 and hits == lookups - misses
            # an answered read has been acked: admission sees an idle pool
            assert harness.engine.max_depth() == 0
        stats = harness.stats()["cache"]
        assert stats["owned_hits"] == 16 * len(owned)
        assert 8 <= stats["misses"] <= 16


# ----------------------------------------------------------------------
# owners that must not answer
# ----------------------------------------------------------------------
class TestOwnerLifecycle:
    def test_unregistered_engine_answers_only_for_the_anchor(self, tmp_path):
        with _open(tmp_path) as harness:
            engine = harness.engine
            assert engine.lookup(ANCHOR.source, 5) == _oracle(
                harness, ANCHOR.source, 5
            )
            assert engine.lookup(1, 20) is None
            before = _counts(harness)
            _exact(harness, 1, 20)
            assert _deltas(harness, before) == (1, 0, 1, 0)

    @pytest.mark.parametrize("backend", BOTH)
    def test_deregistering_the_last_destination_returns_the_source_to_the_cache(
        self, tmp_path, backend
    ):
        with _open(tmp_path, backend) as harness:
            sessions = [harness.register(*pair) for pair in STANDING]
            assert harness.wait_all_live(timeout=30.0)
            harness.submit(_mixed_batch(harness.engine.graph, 0))
            harness.deregister(sessions[0].id)  # (1, 20); (1, 31) remains
            _settle(harness)
            before = _counts(harness)
            _exact(harness, 1, 20)  # any destination of a live group
            assert _deltas(harness, before) == (1, 1, 0, 1)
            harness.deregister(sessions[1].id)
            _settle(harness)
            assert harness.engine.lookup(1, 31) is None
            _exact(harness, 1, 31)
            assert _deltas(harness, before) == (2, 1, 1, 1)

    def test_a_group_dropped_mid_batch_is_unreachable(self, tmp_path):
        def explode(kind, source, epoch):
            if kind == "batch" and source == 1 and epoch == 2:
                raise RuntimeError("injected shard fault")

        clock = ManualClock()
        with _open(
            tmp_path, shards=3, fault_hook=explode, clock=clock,
            supervision=SupervisorConfig(
                failure_threshold=1, breaker_cooldown=1000.0
            ),
        ) as harness:
            _register_all(harness)
            first = harness.submit(_mixed_batch(harness.engine.graph, 0))
            second = harness.submit(_mixed_batch(harness.engine.graph, 1))
            assert second.degraded == [(1, "injected shard fault")]
            # the open breaker blocks the rescue, so the group stays gone
            assert harness.engine.lookup(1, 20) is None
            before = _counts(harness)
            read = harness.read(1, 20)
            assert read.degraded and read.stale_epochs == 1
            assert read.value == first.answers[(1, 20)]
            assert read.epoch == harness.engine.epoch - 1
            # an unremembered destination recomputes, still flagged, and
            # no owner is consulted on an open circuit
            read = harness.read(1, 44)
            assert read.degraded and read.epoch == harness.engine.epoch
            assert read.value == _oracle(harness, 1, 44)
            assert _deltas(harness, before) == (1, 0, 1, 0)
            # its shard-mate is still served by the shard
            assert harness.engine.shard_of(4) is harness.engine.shard_of(1)
            _exact(harness, 4, 50)
            assert _deltas(harness, before) == (2, 1, 1, 1)

    def test_an_open_circuit_never_asks_a_healthy_owner(self, tmp_path):
        with _open(tmp_path) as harness:
            _register_all(harness)
            harness.submit(_mixed_batch(harness.engine.graph, 0))
            breaker = harness.supervisor.breaker(2)
            for _ in range(harness.supervisor.config.failure_threshold):
                breaker.record_failure()
            assert harness.engine.lookup(2, 44) is not None
            before = _counts(harness)
            read = harness.read(2, 44)
            assert read.degraded and read.value == _oracle(harness, 2, 44)
            assert _deltas(harness, before) == (1, 0, 1, 0)

    def test_a_core_that_skipped_an_epoch_never_seals_again(self, tmp_path):
        """The shard-missed-the-fan-out case, on the core itself."""
        with _open(tmp_path) as harness:
            _register_all(harness)
            harness.submit(_mixed_batch(harness.engine.graph, 0))
            core = harness.engine.shard_of(1).core
            assert core.lookup(1, 20, 1) == _oracle(harness, 1, 20)
            assert core.lookup(1, 20, 0) is None  # not the epoch asked for
            core.run_epoch(3, UpdateBatch())  # epoch 2 never arrived
            assert core.sealed_epoch is None
            core.run_epoch(4, UpdateBatch())
            assert core.sealed_epoch is None
            assert core.lookup(1, 20, 4) is None

    def test_the_seal_is_open_only_between_epochs(self, monkeypatch):
        """Both halves of the seqlock, each interleaving forced by hand."""
        graph = random_graph(VERTICES, 300, seed=31)
        batch = _mixed_batch(graph, 0)
        mid_epoch = []

        def peek(kind, source, epoch):
            if kind == "batch":
                mid_epoch.extend(
                    core.lookup(1, 20, asked) for asked in (epoch - 1, epoch)
                )

        core = ShardCore(0, graph, PPSP(), KeyPathRule.PRECISE, fault_hook=peek)
        core.register(1, 20)
        assert core.lookup(1, 20, 0) == dijkstra(graph, PPSP(), 1).states[20]
        graph.apply_batch(batch)  # the caller owns the apply, not the core
        core.run_epoch(1, batch)
        assert mid_epoch == [None, None]
        assert core.lookup(1, 20, 1) == dijkstra(graph, PPSP(), 1).states[20]
        # an epoch that begins between a reader's two looks at the seal
        group = core.groups[1]
        answer = group.answer

        def overtaken(destination):
            value = answer(destination)
            core.run_epoch(2, UpdateBatch())
            return value

        monkeypatch.setattr(group, "answer", overtaken)
        assert core.lookup(1, 20, 1) is None
        assert core.lookup(1, 20, 3) is None

    def test_a_hung_source_is_never_answered_from_its_old_state(self, tmp_path):
        release = threading.Event()

        def hang(kind, source, epoch):
            if kind == "batch" and source == 1 and epoch == 2:
                release.wait(10.0)

        with _open(tmp_path, fault_hook=hang, epoch_deadline=0.3) as harness:
            _register_all(harness)
            harness.submit(_mixed_batch(harness.engine.graph, 0))
            zombie = harness.engine.shard_of(1)
            # a deletion-heavy batch, so source 1's state really moves
            result = harness.submit(_mixed_batch(harness.engine.graph, 2))
            try:
                assert [i for i, _ in result.failed_shards] == [zombie.index]
                assert harness.engine.shard_of(1) is not zombie
                for _ in range(2):
                    for destination in (20, 31, 44):
                        read = harness.read(1, destination)
                        assert read.degraded or (
                            read.value == _oracle(harness, 1, destination)
                            and read.epoch == harness.engine.epoch
                        )
                    # second pass: the zombie has woken and sealed epoch 2
                    # on the canonical graph, and is still unreachable
                    # (retired)
                    release.set()
                    zombie._runner.join(10.0)
                assert zombie.core.sealed_epoch == harness.engine.epoch
                assert zombie.lookup(1, 20, harness.engine.epoch) is None
            finally:
                release.set()
            # the replacement's rescued groups serve again
            assert harness.wait_all_live(timeout=30.0)
            harness.submit(_mixed_batch(harness.engine.graph, 3))
            before = _counts(harness)
            _exact(harness, 1, 20)
            assert _deltas(harness, before) == (1, 1, 0, 1)

    @pytest.mark.parametrize("backend", BOTH)
    def test_a_killed_worker_says_no_at_once_and_its_successor_serves(
        self, tmp_path, backend
    ):
        with _open(tmp_path, backend) as harness:
            _register_all(harness)
            harness.submit(_mixed_batch(harness.engine.graph, 0))
            victim = harness.engine.shard_of(1)
            victim.kill()
            started = time.monotonic()
            assert harness.engine.lookup(1, 20) is None
            assert time.monotonic() - started < executor.READ_DEADLINE / 2
            # breaker still closed: the existing contract is an exact,
            # unflagged recompute through the cache
            before = _counts(harness)
            _exact(harness, 1, 20)
            assert _deltas(harness, before) == (1, 0, 1, 0)
            result = harness.submit(_mixed_batch(harness.engine.graph, 1))
            assert [i for i, _ in result.failed_shards] == [victim.index]
            assert harness.wait_all_live(timeout=30.0)
            harness.submit(_mixed_batch(harness.engine.graph, 2))
            before = _counts(harness)
            for pair in STANDING:
                _exact(harness, *pair)
            assert _deltas(harness, before) == (4, 4, 0, 4)

    @process
    def test_a_wedged_child_costs_one_read_deadline_not_one_per_read(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(executor, "READ_DEADLINE", 0.2)
        with _open(tmp_path, "process") as harness:
            _register_all(harness)
            harness.submit(_mixed_batch(harness.engine.graph, 0))
            shard = harness.engine.shard_of(1)
            shard.submit_wedge(600)
            before = _counts(harness)
            started = time.monotonic()
            _exact(harness, 1, 20)
            first = time.monotonic() - started
            assert 0.2 <= first < 0.5
            started = time.monotonic()
            for _ in range(5):
                _exact(harness, 1, 31)
            assert time.monotonic() - started < 0.15
            # one solve; the rest hit the family it installed
            assert _deltas(harness, before) == (6, 5, 1, 0)
            # its next outcome makes it askable again, and the late reply
            # to the abandoned read is not mistaken for a fresh one
            harness.submit(_mixed_batch(harness.engine.graph, 1))
            before = _counts(harness)
            for pair in STANDING:
                _exact(harness, *pair)
            assert _deltas(harness, before) == (4, 4, 0, 4)
            assert shard.depth == 0


@pytest.mark.parametrize("backend", BOTH)
def test_a_running_command_counts_in_depth_until_it_retires(tmp_path, backend):
    """``depth`` is "submitted, not yet retired" on both backends: the
    command a worker is busy with still holds its slot."""
    with _open(tmp_path, backend) as harness:
        _register_all(harness)
        _settle(harness)
        shard = harness.engine.shards[0]
        shard.submit_wedge(400)
        deadline = time.monotonic() + 10.0
        while shard.heartbeat.busy_kind != "wedge":
            assert time.monotonic() < deadline, "worker never parked"
            time.sleep(0.005)
        assert shard.depth == 1
        assert harness.engine.max_depth() == 1
        _settle(harness)
        assert shard.depth == 0


# ----------------------------------------------------------------------
# repartition and recovery
# ----------------------------------------------------------------------
class TestRepartitionAndResume:
    @pytest.mark.parametrize("backend", BOTH)
    def test_rescale_serves_exact_reads_before_and_after_reregistration(
        self, tmp_path, backend
    ):
        with _open(tmp_path, backend) as harness:
            _register_all(harness)
            harness.submit(_mixed_batch(harness.engine.graph, 0))
            retired = list(harness.engine.shards)
            harness.rescale_shards(3)
            for pair in STANDING:  # sessions may still be warming
                _exact(harness, *pair)
            for worker in retired:
                assert worker.lookup(1, 20, harness.engine.epoch) is None
            assert harness.wait_all_live(timeout=30.0)
            before = _counts(harness)
            for pair in STANDING:
                _exact(harness, *pair)
            assert _deltas(harness, before) == (4, 4, 0, 4)
            harness.submit(_mixed_batch(harness.engine.graph, 1))
            for pair in STANDING:
                _exact(harness, *pair)
            assert _deltas(harness, before) == (8, 8, 0, 8)

    def test_resume_serves_exact_reads_before_and_after_reregistration(
        self, tmp_path
    ):
        with _open(tmp_path) as harness:
            _register_all(harness)
            for index in range(3):
                harness.submit(_mixed_batch(harness.engine.graph, index))
            expected = {
                pair: _oracle(harness, *pair) for pair in STANDING
            }
        with ServeHarness.resume(str(tmp_path / "state")) as harness:
            before = _counts(harness)
            for pair in STANDING:  # nobody owns anything yet
                assert _exact(harness, *pair).value == expected[pair]
            _exact(harness, ANCHOR.source, ANCHOR.destination)
            assert _deltas(harness, before) == (5, 2, 3, 1)
            _register_all(harness)
            before = _counts(harness)
            for pair in STANDING:
                assert _exact(harness, *pair).value == expected[pair]
            assert _deltas(harness, before) == (4, 4, 0, 4)
            harness.submit(_mixed_batch(harness.engine.graph, 3))
            for pair in STANDING:
                _exact(harness, *pair)
            assert _deltas(harness, before) == (8, 8, 0, 8)


# ----------------------------------------------------------------------
# the seqlock under contention
# ----------------------------------------------------------------------
def test_a_racing_reader_never_sees_a_value_from_the_wrong_epoch(tmp_path):
    """Readers off the ingest thread hammer ``shard.lookup`` while epochs
    run; whatever comes back non-None for epoch ``e`` is epoch ``e``'s
    converged value (the seal is checked on both sides of the load)."""
    batches = 12
    with _open(tmp_path) as harness:
        _register_all(harness)
        engine = harness.engine
        reference = engine.graph.copy()
        stream, oracle = [], [dijkstra(reference, engine.algorithm, 1).states]
        for index in range(batches):
            stream.append(_mixed_batch(reference, index))
            reference.apply_batch(stream[-1])
            oracle.append(dijkstra(reference, engine.algorithm, 1).states)
        wrong, served, done = [], [0], threading.Event()

        def reader():
            while not done.is_set():
                for destination in (20, 31, 44):
                    epoch = engine.epoch
                    value = engine.shard_of(1).lookup(1, destination, epoch)
                    if value is None:
                        continue
                    served[0] += 1
                    if value != oracle[epoch][destination]:
                        wrong.append((epoch, destination, value))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for batch in stream:
                harness.submit(batch)
                time.sleep(0.01)
        finally:
            done.set()
            for thread in threads:
                thread.join(10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert served[0] > 0 and not wrong
