"""Unit tests for edge updates, batches and net-effect reduction."""

import pytest

from repro.graph.batch import (
    EdgeUpdate,
    UpdateBatch,
    UpdateKind,
    add,
    delete,
    net_effects,
)
from repro.graph.dynamic import DynamicGraph


class TestEdgeUpdate:
    def test_addition_properties(self):
        upd = add(1, 2, 3.5)
        assert upd.is_addition
        assert not upd.is_deletion
        assert upd.edge == (1, 2)
        assert upd.weight == 3.5

    def test_deletion_properties(self):
        upd = delete(4, 5, 1.0)
        assert upd.is_deletion
        assert upd.kind is UpdateKind.DELETE

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            add(3, 3)

    def test_rejects_negative_vertex(self):
        with pytest.raises(ValueError):
            add(-1, 2)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            add(1, 2, 0.0)
        with pytest.raises(ValueError):
            add(1, 2, -2.0)

    def test_str_shows_sign(self):
        assert str(add(0, 1, 2.0)).startswith("+")
        assert str(delete(0, 1, 2.0)).startswith("-")

    def test_frozen(self):
        upd = add(1, 2)
        with pytest.raises(AttributeError):
            upd.u = 5


class TestUpdateBatch:
    def test_empty(self):
        batch = UpdateBatch()
        assert len(batch) == 0
        assert batch.additions == []
        assert batch.deletions == []
        assert batch.max_vertex() == -1

    def test_partition_preserves_order(self):
        batch = UpdateBatch()
        batch.append(add(0, 1))
        batch.append(delete(2, 3))
        batch.append(add(4, 5))
        assert [u.edge for u in batch.additions] == [(0, 1), (4, 5)]
        assert [u.edge for u in batch.deletions] == [(2, 3)]
        assert batch.num_additions == 2
        assert batch.num_deletions == 1

    def test_iteration_and_indexing(self):
        batch = UpdateBatch([add(0, 1), delete(1, 2)])
        assert batch[0].is_addition
        assert [u.edge for u in batch] == [(0, 1), (1, 2)]

    def test_max_vertex(self):
        batch = UpdateBatch([add(3, 9), delete(7, 2)])
        assert batch.max_vertex() == 9

    def test_from_pairs(self):
        batch = UpdateBatch.from_pairs(
            [("add", 0, 1, 2.0), ("delete", 1, 2, 3.0)]
        )
        assert batch[0].is_addition
        assert batch[1].is_deletion
        assert batch[1].weight == 3.0

    def test_extend(self):
        batch = UpdateBatch()
        batch.extend([add(0, 1), add(1, 2)])
        assert len(batch) == 2


class TestNetEffects:
    def _lookup(self, graph):
        return lambda u, v: graph.out_adj(u).get(v)

    def test_pure_addition_passthrough(self):
        g = DynamicGraph(4)
        batch = UpdateBatch([add(0, 1, 2.0)])
        reduced = net_effects(batch, self._lookup(g))
        assert [(u.kind, u.edge, u.weight) for u in reduced] == [
            (UpdateKind.ADD, (0, 1), 2.0)
        ]

    def test_pure_deletion_uses_prebatch_weight(self):
        g = DynamicGraph.from_edges(4, [(0, 1, 7.0)])
        # the stream may carry a stale weight; classification needs the real one
        batch = UpdateBatch([delete(0, 1, 99.0)])
        reduced = net_effects(batch, self._lookup(g))
        assert len(reduced) == 1
        assert reduced[0].is_deletion
        assert reduced[0].weight == 7.0

    def test_add_then_delete_cancels(self):
        g = DynamicGraph(4)
        batch = UpdateBatch([add(0, 1, 2.0), delete(0, 1, 2.0)])
        assert len(net_effects(batch, self._lookup(g))) == 0

    def test_delete_then_readd_same_weight_cancels(self):
        g = DynamicGraph.from_edges(4, [(0, 1, 2.0)])
        batch = UpdateBatch([delete(0, 1, 2.0), add(0, 1, 2.0)])
        assert len(net_effects(batch, self._lookup(g))) == 0

    def test_reweight_becomes_delete_plus_add(self):
        g = DynamicGraph.from_edges(4, [(0, 1, 2.0)])
        batch = UpdateBatch([add(0, 1, 5.0)])
        reduced = net_effects(batch, self._lookup(g))
        assert [u.kind for u in reduced] == [UpdateKind.DELETE, UpdateKind.ADD]
        assert reduced[0].weight == 2.0
        assert reduced[1].weight == 5.0

    def test_last_write_wins(self):
        g = DynamicGraph(4)
        batch = UpdateBatch([add(0, 1, 2.0), add(0, 1, 9.0)])
        reduced = net_effects(batch, self._lookup(g))
        assert len(reduced) == 1
        assert reduced[0].weight == 9.0

    def test_delete_of_absent_edge_disappears(self):
        g = DynamicGraph(4)
        batch = UpdateBatch([delete(0, 1, 1.0)])
        assert len(net_effects(batch, self._lookup(g))) == 0

    def test_net_effect_matches_sequential_apply(self):
        g = DynamicGraph.from_edges(4, [(0, 1, 2.0), (1, 2, 3.0)])
        batch = UpdateBatch(
            [
                delete(0, 1, 2.0),
                add(0, 1, 4.0),
                add(2, 3, 1.0),
                delete(1, 2, 3.0),
                add(1, 2, 3.0),
            ]
        )
        sequential = g.copy()
        sequential.apply_batch(batch)
        reduced_graph = g.copy()
        reduced = net_effects(batch, self._lookup(g))
        reduced_graph.apply_batch(reduced, missing_ok=False)
        assert sorted(sequential.edges()) == sorted(reduced_graph.edges())

    def test_first_touch_order_and_reweight_shape(self):
        g = DynamicGraph.from_edges(5, [(0, 1, 2.0), (3, 4, 1.0)])
        batch = UpdateBatch(
            [
                add(2, 3, 1.0),
                delete(3, 4, 1.0),
                add(0, 1, 6.0),
                add(2, 3, 8.0),  # second touch: keeps the first position
                add(3, 4, 1.0),  # cancels the deletion
            ]
        )
        reduced = net_effects(batch, g.weight_or_none)
        assert [(u.kind, u.edge, u.weight) for u in reduced] == [
            (UpdateKind.ADD, (2, 3), 8.0),
            (UpdateKind.DELETE, (0, 1), 2.0),
            (UpdateKind.ADD, (0, 1), 6.0),
        ]

    def test_one_lookup_per_distinct_edge(self):
        seen = []

        def lookup(u, v):
            seen.append((u, v))
            return None

        batch = UpdateBatch([add(0, 1), add(1, 2), delete(0, 1), add(0, 1)])
        net_effects(batch, lookup)
        assert seen == [(0, 1), (1, 2)]

    def test_own_net_effects_are_returned_not_copied(self):
        """The common case allocates no update: an addition of an absent
        edge and a deletion carrying the pre-batch weight come back as the
        very objects the caller passed in."""
        g = DynamicGraph.from_edges(
            6, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0), (4, 5, 1.0)]
        )
        batch = UpdateBatch(
            [add(0, 2, 1.0), delete(1, 2, 3.0), add(3, 4, 2.0), delete(4, 5, 1.0)]
        )
        reduced = net_effects(batch, g.weight_or_none)
        assert len(reduced) == len(batch)
        for got, given in zip(reduced, batch):
            assert got is given

    def test_stale_delete_and_reweight_build_only_the_deletion(self):
        g = DynamicGraph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        stale, reweight = delete(0, 1, 9.0), add(1, 2, 5.0)
        reduced = net_effects(UpdateBatch([stale, reweight]), g.weight_or_none)
        assert reduced[0] == delete(0, 1, 2.0) and reduced[0] is not stale
        assert reduced[1] == delete(1, 2, 3.0)
        assert reduced[2] is reweight
