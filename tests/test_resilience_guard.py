"""Differential guard: detect silent corruption, fall back, keep serving."""

import logging

import pytest

from repro.algorithms import dijkstra, get_algorithm
from repro.core.engine import CISGraphEngine
from repro.metrics import ResilienceCounters
from repro.query import PairwiseQuery
from repro.resilience.guard import DifferentialGuard
from repro.serve import ServeHarness
from tests.conftest import random_batch, random_graph

ALG = get_algorithm("ppsp")
QUERY = PairwiseQuery(0, 20)


def make_engine(seed=5):
    engine = CISGraphEngine(random_graph(40, 220, seed=seed), ALG, QUERY)
    engine.initialize()
    engine.on_batch(random_batch(engine.graph, 8, 6, seed=seed + 1))
    return engine


class TestCleanEngine:
    def test_healthy_state_reports_clean(self):
        engine = make_engine()
        counters = ResilienceCounters()
        guard = DifferentialGuard(engine, counters=counters)
        report = guard.check(snapshot_id=1)
        assert not report.diverged
        assert report.bad_vertices == []
        assert report.engine_answer == report.true_answer
        assert counters.guard_checks == 1
        assert counters.guard_divergences == 0

    def test_cadence(self):
        engine = make_engine()
        guard = DifferentialGuard(engine, every_batches=3)
        assert guard.maybe_check(1) is None
        assert guard.maybe_check(2) is None
        assert guard.maybe_check(3) is not None
        assert guard.maybe_check(4) is None
        assert guard.counters.guard_checks == 1

    def test_invalid_cadence(self):
        with pytest.raises(ValueError):
            DifferentialGuard(make_engine(), every_batches=0)


class TestDivergence:
    def corrupt(self, engine):
        """Silently corrupt a state the incremental engine believes in."""
        engine.state.states[QUERY.destination] = 0.5
        return engine

    def test_divergence_detected_and_fallback_restores_truth(self, caplog):
        engine = self.corrupt(make_engine())
        counters = ResilienceCounters()
        guard = DifferentialGuard(engine, counters=counters)
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            report = guard.check(snapshot_id=2)
        assert report.diverged
        assert QUERY.destination in report.bad_vertices
        assert report.fell_back
        assert counters.guard_divergences == 1
        assert counters.guard_fallbacks == 1
        assert any("diverged" in r.message for r in caplog.records)

        # fallback restored cold-start ground truth; the engine keeps serving
        truth = dijkstra(engine.graph, ALG, QUERY.source)
        assert engine.state.states == truth.states
        assert engine.answer == truth.states[QUERY.destination]
        engine.state.check_converged()

    def test_engine_continues_correctly_after_fallback(self):
        engine = self.corrupt(make_engine(seed=9))
        DifferentialGuard(engine).check()
        batch = random_batch(engine.graph, 8, 6, seed=77)
        reference = engine.graph.copy()
        reference.apply_batch(batch)
        result = engine.on_batch(batch)
        assert result.answer == dijkstra(reference, ALG, 0).states[20]
        engine.state.check_converged()

    def test_monitor_only_mode_detects_without_fallback(self):
        engine = self.corrupt(make_engine())
        corrupted = list(engine.state.states)
        guard = DifferentialGuard(engine, fallback=False)
        report = guard.check()
        assert report.diverged and not report.fell_back
        assert engine.state.states == corrupted  # untouched
        assert guard.counters.guard_fallbacks == 0

    def test_reports_accumulate(self):
        engine = make_engine()
        guard = DifferentialGuard(engine)
        guard.check(1)
        engine.state.states[QUERY.destination] = 0.25
        guard.check(2)
        assert [r.diverged for r in guard.reports] == [False, True]


@pytest.mark.serve
class TestServeEngineFallback:
    """The guard's fallback on a live serve engine installs the anchor's
    state and leaves every shard worker as it was."""

    PAIRS = [(1, 20), (2, 30), (5, 35)]

    def _harness(self, directory, graph):
        harness = ServeHarness.open(
            directory, graph.copy(), ALG, QUERY, num_shards=2,
            wal_sync=False,
        )
        for source, destination in self.PAIRS:
            harness.register(source, destination)
        assert harness.wait_all_live()
        return harness

    def test_fallback_touches_no_shard(self, tmp_path):
        graph = random_graph(40, 220, seed=31)
        reference = graph.copy()
        batches = []
        for index in range(3):
            batch = random_batch(reference, 8, 8, seed=310 + index)
            reference.apply_batch(batch)
            batches.append(batch)

        with self._harness(str(tmp_path / "plain"), graph) as plain:
            uninterrupted = [plain.submit(batch) for batch in batches]

        with self._harness(str(tmp_path / "guarded"), graph) as harness:
            engine = harness.engine
            for batch in batches[:2]:
                harness.submit(batch)
            workers = list(engine.shards)
            runners = [worker._runner for worker in workers]
            sealed = [worker.core.sealed_epoch for worker in workers]
            assert sealed == [engine.epoch] * len(workers)

            vertex = next(
                v for v, value in enumerate(engine.state.states)
                if v != QUERY.source and value != ALG.identity()
            )
            engine.state.states[vertex] += 0.5
            report = DifferentialGuard(engine).check()

            assert report.diverged and report.fell_back
            assert vertex in report.bad_vertices
            truth = dijkstra(engine.graph, ALG, QUERY.source)
            assert engine.state.states == truth.states
            assert engine.state.parents == truth.parents
            assert engine.shards == workers  # the same objects
            assert [worker._runner for worker in engine.shards] == runners
            assert all(worker.alive for worker in engine.shards)
            assert engine.retired == []
            assert [w.core.sealed_epoch for w in engine.shards] == sealed

            result = harness.submit(batches[2])
        assert result.answer == uninterrupted[2].answer
        assert result.answers == uninterrupted[2].answers
