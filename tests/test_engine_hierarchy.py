"""One query engine over a source group, and one way to install its state.

:class:`~repro.core.engine.CISGraphEngine` owns the single-query
protocol (``state`` / ``keypath`` / ``answer``, the init lifecycle, the
telemetry bracket); the sharded serve engine and the accelerator extend
it.  :meth:`CISGraphEngine.adopt_state` is the only installer of a
converged state computed elsewhere: checkpoint restore, the differential
guard's fallback and the serve resume path all go through it.
"""

import pytest

from repro.algorithms import PPSP, dijkstra
from repro.checkpoint import restore_checkpoint, save_checkpoint
from repro.core.engine import CISGraphEngine
from repro.engine import PairwiseEngine
from repro.hw.accelerator import CISGraphAccelerator
from repro.query import PairwiseQuery
from repro.resilience.guard import DifferentialGuard
from repro.serve import ServeHarness, ShardedServeEngine
from tests.conftest import random_batch, random_graph

QUERY = PairwiseQuery(0, 20)


class TestHierarchy:
    @pytest.mark.parametrize("cls", [ShardedServeEngine, CISGraphAccelerator])
    def test_subclasses_the_single_query_engine(self, cls):
        assert issubclass(cls, CISGraphEngine)
        # the query protocol is inherited, not redefined
        for name in ("state", "keypath", "answer", "initialize", "adopt_state"):
            assert name not in vars(cls), (cls.__name__, name)

    def test_serve_engine_holds_its_own_on_batch(self):
        # perfbench's layer table traces CISGraphEngine.on_batch and
        # ShardedServeEngine.on_batch by class; an inherited attribute
        # would put the serve commit under core.engine
        assert "on_batch" in vars(ShardedServeEngine)
        assert ShardedServeEngine.on_batch is PairwiseEngine.on_batch


class TestAdoptState:
    def _solved(self, seed=3):
        graph = random_graph(40, 220, seed=seed)
        engine = CISGraphEngine(graph.copy(), PPSP(), QUERY)
        engine.initialize()
        batch = random_batch(engine.graph, 8, 6, seed=seed + 1)
        engine.on_batch(batch)
        return engine

    def test_installs_states_parents_and_key_path(self):
        solved = self._solved()
        fresh = CISGraphEngine(solved.graph.copy(), PPSP(), QUERY)
        fresh.state.suppressed.add(5)
        answer = fresh.adopt_state(solved.state.states, solved.state.parents)
        assert answer == solved.answer
        assert fresh.state.states == solved.state.states
        assert fresh.state.parents == solved.state.parents
        # copies, not aliases of the caller's lists
        assert fresh.state.states is not solved.state.states
        assert not fresh.state.suppressed
        assert fresh.keypath.vertices() == solved.keypath.vertices()
        fresh.state.check_converged()
        # initialized: batches are accepted and answers keep agreeing
        batch = random_batch(fresh.graph, 6, 6, seed=11)
        assert fresh.on_batch(batch).answer == solved.on_batch(batch).answer

    def test_checkpoint_guard_and_serve_resume_install_through_it(
        self, tmp_path, monkeypatch
    ):
        calls = []
        adopt = CISGraphEngine.adopt_state

        def spy(engine, states, parents):
            calls.append(type(engine).__name__)
            return adopt(engine, states, parents)

        monkeypatch.setattr(CISGraphEngine, "adopt_state", spy)

        solved = self._solved()
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, solved)
        restored, _ = restore_checkpoint(path)
        assert calls == ["CISGraphEngine"]
        assert restored.answer == solved.answer

        vertex = next(
            v for v, value in enumerate(restored.state.states)
            if v != QUERY.source and value != PPSP().identity()
        )
        restored.state.states[vertex] += 0.5
        assert DifferentialGuard(restored).check().fell_back
        assert calls == ["CISGraphEngine"] * 2

        directory = str(tmp_path / "serve")
        with ServeHarness.open(
            directory, random_graph(40, 220, seed=4), PPSP(), QUERY,
            wal_sync=False,
        ) as harness:
            harness.submit(random_batch(harness.engine.graph, 6, 6, seed=5))
        with ServeHarness.resume(directory, wal_sync=False) as harness:
            # the recovered base engine, then the serve engine's anchor
            assert calls[2:] == ["CISGraphEngine", "ShardedServeEngine"]
            assert all(shard.alive for shard in harness.engine.shards)
            truth = dijkstra(harness.engine.graph, PPSP(), QUERY.source)
            assert harness.engine.state.states == truth.states
