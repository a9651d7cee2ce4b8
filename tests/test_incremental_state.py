"""Tests for the shared incremental propagation machinery."""

import math

import pytest

from repro.algorithms import PPSP, dijkstra, get_algorithm
from repro.graph.dynamic import DynamicGraph
from repro.incremental import IncrementalState
from repro.metrics import OpCounts
from tests.conftest import random_batch, random_graph


def fresh_state(graph, algorithm, source=0):
    state = IncrementalState(graph, algorithm, source)
    state.full_compute()
    return state


class TestFullCompute:
    def test_matches_dijkstra(self, diamond_graph, algorithm):
        state = fresh_state(diamond_graph, algorithm)
        reference = dijkstra(diamond_graph, algorithm, 0)
        assert state.states == reference.states

    def test_ops_accumulated(self, diamond_graph):
        state = IncrementalState(diamond_graph, PPSP(), 0)
        ops = OpCounts()
        state.full_compute(ops)
        assert ops.relaxations > 0


class TestAdditions:
    def test_improving_addition_propagates(self, diamond_graph):
        state = fresh_state(diamond_graph, PPSP())
        ops = OpCounts()
        diamond_graph.add_edge(0, 3, 1.0)
        assert state.process_addition(0, 3, 1.0, ops) is True
        assert state.states[3] == 1.0
        assert state.states[4] == 3.0  # downstream improvement propagated
        state.check_converged()

    def test_non_improving_addition_noop(self, diamond_graph):
        state = fresh_state(diamond_graph, PPSP())
        ops = OpCounts()
        diamond_graph.add_edge(0, 3, 9.0)
        assert state.process_addition(0, 3, 9.0, ops) is False
        state.check_converged()

    def test_activated_set_collected(self, diamond_graph):
        state = fresh_state(diamond_graph, PPSP())
        ops = OpCounts()
        activated = set()
        diamond_graph.add_edge(0, 3, 1.0)
        state.process_addition(0, 3, 1.0, ops, activated=activated)
        assert activated == {3, 4}

    def test_addition_for_every_algorithm(self, diamond_graph, algorithm):
        state = fresh_state(diamond_graph, algorithm)
        diamond_graph.add_edge(0, 4, 16.0)
        state.process_addition(0, 4, 16.0, OpCounts())
        state.check_converged()


class TestDeletions:
    def test_figure_1b_trap(self):
        """Deletion repair must not reuse stale monotone states."""
        g = DynamicGraph.from_edges(
            5,
            [
                (0, 3, 1.0),
                (3, 4, 4.0),
                (0, 1, 2.0),
                (1, 2, 3.0),
                (2, 4, 4.0),
            ],
        )
        state = fresh_state(g, PPSP())
        assert state.states[4] == 5.0
        g.remove_edge(0, 3)
        assert state.process_deletion(0, 3, OpCounts()) is True
        assert state.states[3] == math.inf
        assert state.states[4] == 9.0
        state.check_converged()

    def test_non_supplier_deletion_is_noop(self, diamond_graph):
        state = fresh_state(diamond_graph, PPSP())
        # 2 -> 3 does not supply vertex 3 (1 -> 3 does)
        diamond_graph.remove_edge(2, 3)
        assert state.process_deletion(2, 3, OpCounts()) is False
        state.check_converged()

    def test_deletion_disconnects(self, diamond_graph):
        state = fresh_state(diamond_graph, PPSP())
        diamond_graph.remove_edge(3, 4)
        state.process_deletion(3, 4, OpCounts())
        assert state.states[4] == math.inf
        state.check_converged()

    def test_subtree_reset_rederives_within_subtree(self):
        """A reset vertex may be re-supplied by another reset vertex."""
        g = DynamicGraph.from_edges(
            5,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (0, 2, 5.0),
                (0, 4, 1.0),
                (4, 3, 9.0),
            ],
        )
        state = fresh_state(g, PPSP())
        assert state.states[3] == 3.0
        g.remove_edge(0, 1)
        state.process_deletion(0, 1, OpCounts())
        assert state.states[1] == math.inf
        assert state.states[2] == 5.0  # via the 0 -> 2 fallback
        assert state.states[3] == 6.0
        state.check_converged()

    def test_tag_ops_charged(self, diamond_graph):
        state = fresh_state(diamond_graph, PPSP())
        ops = OpCounts()
        diamond_graph.remove_edge(0, 1)
        state.process_deletion(0, 1, ops)
        assert ops.tag_ops > 0

    def test_deletion_for_every_algorithm(self, diamond_graph, algorithm):
        state = fresh_state(diamond_graph, algorithm)
        # delete whichever edge currently supplies vertex 3
        parent = state.parents[3]
        if parent == -1:
            pytest.skip("vertex 3 unreached under this algorithm")
        diamond_graph.remove_edge(parent, 3)
        state.process_deletion(parent, 3, OpCounts())
        state.check_converged()


class TestPruning:
    def test_suppressed_then_flushed(self, diamond_graph):
        state = fresh_state(diamond_graph, PPSP())
        ops = OpCounts()
        diamond_graph.add_edge(0, 3, 1.0)
        # suppress everything: nothing downstream converges yet
        state.process_addition(0, 3, 1.0, ops, prune=lambda v, s: True)
        assert 3 in state.suppressed
        assert state.states[4] == 4.0  # stale: broadcast was suppressed
        state.flush_suppressed(ops)
        assert not state.suppressed
        assert state.states[4] == 3.0
        state.check_converged()

    def test_prune_hook_counts_bound_checks(self, diamond_graph):
        state = fresh_state(diamond_graph, PPSP())
        ops = OpCounts()
        diamond_graph.add_edge(0, 3, 1.0)
        state.process_addition(0, 3, 1.0, ops, prune=lambda v, s: False)
        assert ops.bound_checks > 0

    def test_flush_empty_is_noop(self, diamond_graph):
        state = fresh_state(diamond_graph, PPSP())
        assert state.flush_suppressed(OpCounts()) == 0


class TestRandomizedConvergence:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_stream_stays_converged(self, algorithm, seed):
        g = random_graph(50, 250, seed=seed)
        state = fresh_state(g, algorithm, source=seed % 50)
        batch = random_batch(g, 20, 20, seed=seed + 1)
        for upd in batch:
            old_weight = g.weight_or_none(upd.u, upd.v)
            g.apply_update(upd)
            state.process_update(upd, old_weight, OpCounts())
        state.check_converged()
