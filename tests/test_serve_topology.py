"""One topology per epoch: the canonical graph is the only one that moves.

A commit applies its net batch once, to the engine's canonical graph —
thread shards read that graph by reference, a process child keeps its own
replica — and only after every shard has drained what was submitted ahead
of it.  ``docs/serving.md`` ("Sharding") states the contract: a
registration ahead of batch *k* has retired before *k*'s delta is
applied, and a retired zombie's outcome is never merged.
"""

import threading

import pytest

from repro.algorithms.solvers import dijkstra
from repro.graph.batch import UpdateBatch, net_effects
from repro.graph.dynamic import DynamicGraph
from tests.test_serve_reads import BOTH, _mixed_batch, _open, _register_all

pytestmark = pytest.mark.serve

COMMITS = 4
#: a pair no standing session uses; source 3 sits on shard 1 of 2
LATE = (3, 40)

_apply_net = DynamicGraph.apply_net


def _oracle_holds(harness, result):
    """Every merged answer equals a cold solve on the canonical graph."""
    engine = harness.engine
    for (source, destination), value in result.answers.items():
        assert value == dijkstra(
            engine.graph, engine.algorithm, source
        ).states[destination], (source, destination, result.epoch)


@pytest.mark.parametrize("backend", BOTH)
def test_a_commit_applies_its_batch_once(tmp_path, monkeypatch, backend):
    applied = []

    def spy(graph, batch):
        applied.append(graph)
        return _apply_net(graph, batch)

    with _open(tmp_path, backend, shards=3) as harness:
        _register_all(harness)
        monkeypatch.setattr(DynamicGraph, "apply_net", spy)
        for index in range(COMMITS):
            result = harness.submit(_mixed_batch(harness.engine.graph, index))
            assert not result.failed_shards
            assert len(applied) == index + 1
            _oracle_holds(harness, result)
        assert all(graph is harness.engine.graph for graph in applied)


def test_a_registration_in_flight_retires_before_the_graph_moves(
    tmp_path, monkeypatch
):
    order = []
    release = threading.Event()

    def hold(kind, source, epoch):
        if kind == "register" and source == LATE[0]:
            release.wait(10.0)
            order.append("hook returned")

    with _open(tmp_path, fault_hook=hold) as harness:
        _register_all(harness)
        canonical = harness.engine.graph

        def spy(graph, batch):
            if graph is canonical:
                order.append("apply")
            return _apply_net(graph, batch)

        monkeypatch.setattr(DynamicGraph, "apply_net", spy)
        batch = _mixed_batch(canonical, 0)
        session = harness.register(*LATE)
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            result = harness.submit(batch)
        finally:
            release.set()
            timer.cancel()
        assert order == ["hook returned", "apply"]
        assert session.wait_live(timeout=10.0)
        first = session.drain()[0]
        assert first.answer == dijkstra(
            canonical, harness.engine.algorithm, LATE[0]
        ).states[LATE[1]]
        assert not result.degraded and not result.failed_shards
        _oracle_holds(harness, result)


def test_a_zombie_waking_mid_apply_is_never_merged(tmp_path, monkeypatch):
    release = threading.Event()
    crashes, woke = [], []
    monkeypatch.setattr(threading, "excepthook", crashes.append)

    def hang(kind, source, epoch):
        if kind == "batch" and source == 1 and epoch == 2:
            release.wait(10.0)

    with _open(tmp_path, fault_hook=hang, epoch_deadline=0.3) as harness:
        _register_all(harness)
        engine = harness.engine
        canonical = engine.graph
        try:
            _oracle_holds(harness, harness.submit(_mixed_batch(canonical, 0)))
            zombie = engine.shard_of(1)
            # a deletion-heavy batch: source 1's state really moves
            result = harness.submit(_mixed_batch(canonical, 2))
            assert [i for i, _ in result.failed_shards] == [zombie.index]
            assert engine.shard_of(1) is not zombie
            assert all(source != 1 for source, _ in result.answers)
            _oracle_holds(harness, result)
            assert harness.wait_all_live(timeout=30.0)

            def torn(graph, batch):
                """Wake the zombie half-way through the canonical apply
                and let it finish its epoch on the half-moved graph."""
                if graph is not canonical:
                    return _apply_net(graph, batch)
                woke.append(zombie._runner.is_alive())
                effective = net_effects(batch, graph.weight_or_none)
                updates = list(effective)
                half = len(updates) // 2
                graph.apply_batch(UpdateBatch(updates[:half]), missing_ok=False)
                release.set()
                zombie._runner.join(10.0)
                graph.apply_batch(UpdateBatch(updates[half:]), missing_ok=False)
                return effective

            monkeypatch.setattr(DynamicGraph, "apply_net", torn)
            result = harness.submit(_mixed_batch(canonical, 4))
            monkeypatch.setattr(DynamicGraph, "apply_net", _apply_net)
        finally:
            release.set()
        # one canonical apply, with the zombie still hung when it began
        assert woke == [True] and not zombie._runner.is_alive()
        assert not result.failed_shards and not result.degraded
        assert {source for source, _ in result.answers} >= {1, 2, 4}
        _oracle_holds(harness, result)
        # the zombie published epoch 2 after all; nobody ever took it
        assert list(zombie._results) == [2]
        assert zombie.lookup(1, 20, engine.epoch) is None
        assert zombie.exitcode == 0
        _oracle_holds(harness, harness.submit(_mixed_batch(canonical, 5)))
    assert crashes == []
