"""Tests for the CISGraph-O contribution-aware engine."""

import math

import pytest

from repro.algorithms import PPSP, dijkstra, get_algorithm
from repro.core.classification import KeyPathRule
from repro.core.engine import CISGraphEngine
from repro.errors import VertexOutOfRangeError
from repro.graph.batch import UpdateBatch, add, delete
from repro.graph.dynamic import DynamicGraph
from repro.query import PairwiseQuery
from tests.conftest import random_batch, random_graph


def make_engine(graph, query=PairwiseQuery(0, 4), algorithm=None, **kwargs):
    engine = CISGraphEngine(graph, algorithm or PPSP(), query, **kwargs)
    engine.initialize()
    return engine


class TestBasics:
    def test_initialize_answer(self, diamond_graph):
        engine = make_engine(diamond_graph)
        assert engine.answer == 4.0

    def test_on_batch_requires_initialize(self, diamond_graph):
        engine = CISGraphEngine(diamond_graph, PPSP(), PairwiseQuery(0, 4))
        with pytest.raises(RuntimeError):
            engine.on_batch(UpdateBatch())

    def test_empty_batch(self, diamond_graph):
        engine = make_engine(diamond_graph)
        result = engine.on_batch(UpdateBatch())
        assert result.answer == 4.0
        assert result.response_ops.updates_processed == 0

    def test_useless_updates_cost_only_classification(self, diamond_graph):
        engine = make_engine(diamond_graph)
        batch = UpdateBatch([add(0, 4, 99.0), add(2, 4, 99.0)])
        result = engine.on_batch(batch)
        assert result.response_ops.relaxations == 0
        assert result.response_ops.classification_checks == 2
        assert result.stats["useless"] == 2

    def test_valuable_addition_improves_answer(self, diamond_graph):
        engine = make_engine(diamond_graph)
        result = engine.on_batch(UpdateBatch([add(0, 4, 1.0)]))
        assert result.answer == 1.0
        assert result.stats["valuable_additions"] == 1

    def test_keypath_deletion_worsens_answer(self, diamond_graph):
        engine = make_engine(diamond_graph)
        result = engine.on_batch(UpdateBatch([delete(1, 3, 1.0)]))
        assert result.answer == 10.0  # rerouted via 0->2->3->4
        assert result.stats["nondelayed_deletions"] == 1

    def test_delayed_deletion_processed_after_answer(self, diamond_graph):
        engine = make_engine(diamond_graph)
        # 0 -> 2 supplies vertex 2 but is off the key path 0-1-3-4
        result = engine.on_batch(UpdateBatch([delete(0, 2, 4.0)]))
        assert result.answer == 4.0
        assert result.stats["delayed_deletions"] == 1
        assert result.response_ops.updates_processed == 0
        assert result.post_ops.updates_processed == 1
        # the repair still ran: vertex 2 is now unreachable
        assert engine.state.states[2] == math.inf
        engine.state.check_converged()

    def test_response_answer_matches_final_answer(self, diamond_graph):
        engine = make_engine(diamond_graph)
        result = engine.on_batch(
            UpdateBatch([delete(0, 2, 4.0), add(0, 4, 3.0)])
        )
        assert engine.last_response_answer == result.answer


class TestRefusedBatch:
    @pytest.mark.parametrize("bad", [add(2, 9, 1.0), add(9, 2, 1.0)])
    def test_out_of_range_batch_leaves_topology_untouched(self, diamond_graph, bad):
        """``on_batch`` refuses the whole batch before writing any of it:
        the updates in front of the bad one are not applied either."""
        engine = make_engine(diamond_graph)
        engine.initialize()
        graph = engine.graph
        edges, num_edges, answer = list(graph.edges()), graph.num_edges, engine.answer
        first = next(iter(graph.edges()))
        batch = UpdateBatch([add(4, 0, 1.0), delete(*first), bad, add(3, 0, 2.0)])
        with pytest.raises(VertexOutOfRangeError):
            engine.on_batch(batch)
        assert list(graph.edges()) == edges
        assert graph.num_edges == num_edges
        graph.check_consistency()
        assert engine.answer == answer
        # and the engine still serves: the same batch without the bad update
        batch.updates.remove(bad)
        result = engine.on_batch(batch)
        reference = dijkstra(graph, engine.algorithm, engine.query.source)
        assert result.answer == reference.states[engine.query.destination]


class TestDelayedPromotion:
    """A delayed deletion must be promoted when repairs reroute the key
    path through it — answering early without the promotion would be wrong.

    Graph: s=0, d=3.  Key path 0 -(1)-> 1 -(1)-> 3 (answer 2).  Fallback
    0 -(1)-> 2 -(2)-> 3 (cost 3).  Backup for 2: 0 -(5)-> 4 -(5)-> 2.
    Batch deletes the key-path edge 1->3 AND 2's supplier 0->2.  The second
    deletion starts delayed (2 is off-path), but after the first repair the
    answer relies on 0->2, so it must be processed before responding:
    correct answer 0-4-2-3 = 12.
    """

    def graph(self):
        return DynamicGraph.from_edges(
            5,
            [
                (0, 1, 1.0),
                (1, 3, 1.0),
                (0, 2, 1.0),
                (2, 3, 2.0),
                (0, 4, 5.0),
                (4, 2, 5.0),
            ],
        )

    @pytest.mark.parametrize("rule", list(KeyPathRule))
    def test_promotion_keeps_answer_correct(self, rule):
        engine = make_engine(self.graph(), PairwiseQuery(0, 3), rule=rule)
        assert engine.answer == 2.0
        batch = UpdateBatch([delete(1, 3, 1.0), delete(0, 2, 1.0)])
        result = engine.on_batch(batch)
        assert result.answer == 12.0
        assert engine.last_response_answer == 12.0
        engine.state.check_converged()

    def test_classification_initially_delays_second_deletion(self):
        engine = make_engine(self.graph(), PairwiseQuery(0, 3))
        batch = UpdateBatch([delete(1, 3, 1.0), delete(0, 2, 1.0)])
        engine.on_batch(batch)
        assert engine.last_classified is not None
        assert len(engine.last_classified.delayed_deletions) == 1
        assert len(engine.last_classified.nondelayed_deletions) == 1


class TestResponseWindow:
    """The early answer must equal the converged one.

    Graph (12 vertices): 3 -(6)-> 4 -(5)-> 1 -(7)-> 2 -(2)-> 1, and an
    unrelated 0 -(3)-> 5.  Q(3 -> 1) answers 11.  One batch deletes 1->2
    (delayed: off the key path) and 4->1 (on it), so 1 is unreachable.
    The batch is applied before the response window, and the tag walk
    finds children through ``graph.out_adj``: it cannot see 2, whose
    supplying edge 1->2 is the delayed deletion, so 1 re-derives from 2's
    stale state (18 + 2) and the early answer is 20.  The drain repairs
    the final answer.
    """

    @pytest.mark.xfail(
        strict=True,
        reason="the tag walk misses a child whose supplying edge is a "
        "delayed deletion already removed from the topology",
    )
    def test_early_answer_equals_the_converged_answer(self):
        graph = DynamicGraph.from_edges(
            12,
            [(3, 4, 6.0), (4, 1, 5.0), (1, 2, 7.0), (2, 1, 2.0), (0, 5, 3.0)],
        )
        engine = make_engine(graph, PairwiseQuery(3, 1))
        assert engine.answer == 11.0
        result = engine.on_batch(
            UpdateBatch([delete(1, 2, 7.0), delete(4, 1, 5.0)])
        )
        assert result.answer == math.inf
        engine.state.check_converged()
        assert engine.last_response_answer == result.answer


class TestInteractions:
    def test_dropped_addition_recovered_by_repair(self):
        """A useless addition must still be visible to deletion repair.

        0 -(1)-> 1 -(1)-> 2 is the cheap route to 2; an added edge
        0 -(3)-> 2 is useless (3 > 2).  Deleting 0 -> 1 then makes the
        added edge the only route: the repair must find it in the topology.
        """
        g = DynamicGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        engine = make_engine(g, PairwiseQuery(0, 2))
        assert engine.answer == 2.0
        result = engine.on_batch(
            UpdateBatch([add(0, 2, 3.0), delete(0, 1, 1.0)])
        )
        assert result.answer == 3.0

    def test_valuable_addition_enables_dropped_edge(self):
        """Propagation picks up edges whose addition was classified useless
        once an upstream improvement makes them improving."""
        g = DynamicGraph.from_edges(4, [(0, 1, 9.0), (1, 2, 1.0), (0, 3, 20.0)])
        engine = make_engine(g, PairwiseQuery(0, 3))
        batch = UpdateBatch(
            [
                add(2, 3, 1.0),  # useless now: 9+1+1=11 > ... wait, improves
                add(0, 1, 1.0),  # valuable: drops 1's state 9 -> 1
            ]
        )
        result = engine.on_batch(batch)
        # final best: 0 -(1)-> 1 -(1)-> 2 -(1)-> 3 = 3
        assert result.answer == 3.0

    def test_add_then_delete_same_edge_in_batch(self, diamond_graph):
        engine = make_engine(diamond_graph)
        batch = UpdateBatch([add(0, 4, 1.0), delete(0, 4, 1.0)])
        result = engine.on_batch(batch)
        assert result.answer == 4.0  # net effect: nothing happened
        engine.state.check_converged()

    def test_reweight_in_batch(self, diamond_graph):
        engine = make_engine(diamond_graph)
        batch = UpdateBatch([add(1, 3, 7.0)])  # re-weight existing 1->3
        result = engine.on_batch(batch)
        assert result.answer == 10.0  # forced through 0->2->3->4
        engine.state.check_converged()


class TestRetarget:
    def test_retarget_answers_immediately(self, diamond_graph):
        engine = make_engine(diamond_graph, PairwiseQuery(0, 4))
        assert engine.retarget(3) == 2.0
        assert engine.query.destination == 3
        assert engine.keypath.vertices() == [0, 1, 3]

    def test_retarget_validates(self, diamond_graph):
        from repro.errors import QueryError

        engine = make_engine(diamond_graph)
        with pytest.raises(QueryError):
            engine.retarget(99)
        with pytest.raises(QueryError):
            engine.retarget(0)  # equals the source

    def test_batches_after_retarget(self, diamond_graph):
        engine = make_engine(diamond_graph, PairwiseQuery(0, 4))
        engine.retarget(3)
        result = engine.on_batch(UpdateBatch([delete(1, 3, 1.0)]))
        assert result.answer == 8.0  # via 0 -> 2 -> 3
        engine.state.check_converged()


class TestMultiBatchConvergence:
    @pytest.mark.parametrize("rule", list(KeyPathRule))
    @pytest.mark.parametrize("seed", range(3))
    def test_random_stream(self, algorithm, seed, rule):
        g = random_graph(60, 350, seed=seed)
        source = seed % 60
        dest = (seed * 7 + 13) % 60
        if dest == source:
            dest = (dest + 1) % 60
        engine = CISGraphEngine(
            g.copy(), algorithm, PairwiseQuery(source, dest), rule=rule
        )
        engine.initialize()
        reference_graph = g.copy()
        for b in range(3):
            batch = random_batch(reference_graph, 25, 25, seed=seed * 10 + b)
            reference_graph.apply_batch(batch)
            result = engine.on_batch(batch)
            reference = dijkstra(reference_graph, algorithm, source)
            assert result.answer == reference.states[dest]
            assert engine.state.states == reference.states
