"""Tests for the multi-query extension engine."""

import pytest

from repro.algorithms import PPSP, dijkstra, get_algorithm
from repro.core.engine import CISGraphEngine
from repro.core.multiquery import MultiQueryEngine
from repro.errors import DuplicateQueryError, VertexOutOfRangeError
from repro.graph.batch import UpdateBatch, add, delete
from repro.graph.dynamic import DynamicGraph
from repro.query import PairwiseQuery
from tests.conftest import random_batch, random_graph


class TestConstruction:
    def test_requires_queries(self, diamond_graph):
        with pytest.raises(ValueError):
            MultiQueryEngine(diamond_graph, PPSP(), [])

    def test_rejects_duplicates_with_typed_error(self, diamond_graph):
        q = PairwiseQuery(0, 4)
        with pytest.raises(DuplicateQueryError) as excinfo:
            MultiQueryEngine(diamond_graph, PPSP(), [q, q])
        assert excinfo.value.query == q
        # DuplicateQueryError subclasses QueryError -> ValueError-free,
        # but stays catchable through the package's error hierarchy
        from repro.errors import QueryError

        assert isinstance(excinfo.value, QueryError)

    def test_dedupe_collapses_duplicates(self, diamond_graph):
        """With dedupe=True a repeated query registers once and the engine
        keeps answering it — no silent double-entry in the answer map."""
        q1, q2 = PairwiseQuery(0, 4), PairwiseQuery(0, 3)
        engine = MultiQueryEngine(
            diamond_graph, PPSP(), [q1, q2, q1, q1], dedupe=True
        )
        assert engine.queries == [q1, q2]
        answers = engine.initialize()
        assert answers[q1] == 4.0
        assert answers[q2] == 2.0

    def test_groups_by_source(self, diamond_graph):
        engine = MultiQueryEngine(
            diamond_graph,
            PPSP(),
            [PairwiseQuery(0, 3), PairwiseQuery(0, 4), PairwiseQuery(1, 4)],
        )
        assert engine.num_groups == 2

    def test_on_batch_requires_initialize(self, diamond_graph):
        engine = MultiQueryEngine(diamond_graph, PPSP(), [PairwiseQuery(0, 4)])
        with pytest.raises(RuntimeError):
            engine.on_batch(UpdateBatch())

    @pytest.mark.parametrize("update", [add(7, 1), add(1, 7)])
    def test_out_of_range_update_raises_the_typed_error(self, update):
        """Same contract as ``CISGraphEngine``: an update naming a vertex
        the graph lacks is a ``VertexOutOfRangeError`` whichever end is
        off, never a bare ``IndexError`` from the net-effect lookup."""
        graph = DynamicGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0)])
        query = PairwiseQuery(0, 2)
        for engine in (
            MultiQueryEngine(graph.copy(), PPSP(), [query]),
            CISGraphEngine(graph.copy(), PPSP(), query),
        ):
            engine.initialize()
            with pytest.raises(VertexOutOfRangeError):
                engine.on_batch(UpdateBatch([update]))


class TestAnswers:
    def test_initial_answers(self, diamond_graph):
        queries = [PairwiseQuery(0, 3), PairwiseQuery(0, 4)]
        engine = MultiQueryEngine(diamond_graph, PPSP(), queries)
        answers = engine.initialize()
        assert answers[queries[0]] == 2.0
        assert answers[queries[1]] == 4.0

    def test_batch_updates_all_answers(self, diamond_graph):
        queries = [PairwiseQuery(0, 3), PairwiseQuery(0, 4)]
        engine = MultiQueryEngine(diamond_graph, PPSP(), queries)
        engine.initialize()
        result = engine.on_batch(UpdateBatch([add(0, 4, 1.0)]))
        assert result.answers[queries[0]] == 2.0
        assert result.answers[queries[1]] == 1.0

    def test_urgent_for_one_destination_only(self, diamond_graph):
        """Deleting 1->3 carries the answers of both d=3 and d=4; deleting
        0->2 supplies vertex 2 which is on neither key path -> delayed."""
        queries = [PairwiseQuery(0, 3), PairwiseQuery(0, 4)]
        engine = MultiQueryEngine(diamond_graph, PPSP(), queries)
        engine.initialize()
        result = engine.on_batch(UpdateBatch([delete(0, 2, 4.0)]))
        assert result.stats["delayed_deletions"] == 1
        assert result.stats["nondelayed_deletions"] == 0
        result = engine.on_batch(UpdateBatch([delete(1, 3, 1.0)]))
        assert result.stats["nondelayed_deletions"] == 1
        # after deleting 0->2 and then 1->3, vertex 3 is unreachable
        assert result.answers[queries[0]] == float("inf")


class TestDifferential:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_single_query_engines(self, algorithm, seed):
        g = random_graph(60, 360, seed=seed)
        queries = [
            PairwiseQuery(0, 20),
            PairwiseQuery(0, 40),
            PairwiseQuery(5, 20),
        ]
        multi = MultiQueryEngine(g.copy(), algorithm, queries)
        singles = {
            q: CISGraphEngine(g.copy(), algorithm, q) for q in queries
        }
        multi.initialize()
        for engine in singles.values():
            engine.initialize()
        reference_graph = g.copy()
        for b in range(3):
            batch = random_batch(reference_graph, 20, 20, seed=seed * 7 + b)
            reference_graph.apply_batch(batch)
            result = multi.on_batch(batch)
            for q, engine in singles.items():
                want = engine.on_batch(batch).answer
                assert result.answers[q] == want, f"{q} diverged on batch {b}"

    def test_source_sharing_saves_work(self):
        """Two queries from one source must cost less than two separate
        engines (classification and propagation are shared)."""
        g = random_graph(80, 500, seed=9)
        q1, q2 = PairwiseQuery(0, 30), PairwiseQuery(0, 60)
        batch = random_batch(g, 40, 40, seed=10)

        multi = MultiQueryEngine(g.copy(), PPSP(), [q1, q2])
        multi.initialize()
        shared = multi.on_batch(batch).total_ops.total_compute()

        separate = 0
        for q in (q1, q2):
            engine = CISGraphEngine(g.copy(), PPSP(), q)
            engine.initialize()
            separate += engine.on_batch(batch).total_ops.total_compute()
        assert shared < separate

    def test_full_convergence_after_batch(self, algorithm):
        g = random_graph(50, 300, seed=4)
        queries = [PairwiseQuery(3, 30), PairwiseQuery(3, 40)]
        engine = MultiQueryEngine(g.copy(), algorithm, queries)
        engine.initialize()
        reference_graph = g.copy()
        batch = random_batch(reference_graph, 25, 25, seed=5)
        reference_graph.apply_batch(batch)
        engine.on_batch(batch)
        reference = dijkstra(reference_graph, algorithm, 3)
        group = engine._groups[3]
        assert group.state.states == reference.states
