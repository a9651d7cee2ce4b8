"""Unit tests for the mutable streaming topology."""

import random
import sys
import threading

import numpy as np
import pytest

from repro.algorithms import PPSP
from repro.checkpoint import restore_checkpoint, save_checkpoint
from repro.core.engine import CISGraphEngine
from repro.errors import EdgeNotFoundError, VertexOutOfRangeError
from repro.graph import dynamic
from repro.graph.batch import UpdateBatch, add, delete
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.query import PairwiseQuery


class TestConstruction:
    def test_empty(self):
        g = DynamicGraph(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            DynamicGraph(-1)

    def test_from_edges(self):
        g = DynamicGraph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert g.num_edges == 2
        assert g.edge_weight(0, 1) == 2.0

        # storage order is state: the bulk loop lays the dicts out exactly
        # as one add_edge per triple does, duplicates included
        rng = random.Random(7)
        edges = [
            (rng.randrange(30), rng.randrange(30), rng.choice([0.5, 1.0, 2, 3.25]))
            for _ in range(400)
        ]
        bulk = DynamicGraph.from_edges(30, edges)
        one_by_one = DynamicGraph(30)
        for u, v, w in edges:
            one_by_one.add_edge(u, v, w)
        assert bulk.num_edges == one_by_one.num_edges
        for x in range(30):
            assert list(bulk.out_adj(x).items()) == list(one_by_one.out_adj(x).items())
            assert list(bulk.in_adj(x).items()) == list(one_by_one.in_adj(x).items())
        bulk.check_consistency()

        # a duplicate edge is counted once and its later weight wins
        g = DynamicGraph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0), (0, 1, 4.0)])
        assert g.num_edges == 2
        assert g.edge_weight(0, 1) == 4.0
        assert list(g.out_adj(0)) == [1]

        for bad in [(-1, 0, 1.0), (0, -1, 1.0), (3, 0, 1.0), (0, 3, 1.0)]:
            with pytest.raises(VertexOutOfRangeError):
                DynamicGraph.from_edges(3, [(0, 1, 1.0), bad])

    @pytest.mark.parametrize(
        "bad", [0.0, -0.0, -1.5, float("nan"), 0, -2, np.float64(-2.0)]
    )
    def test_non_positive_weights_are_refused(self, bad):
        with pytest.raises(ValueError, match="edge weights must be positive"):
            DynamicGraph.from_edges(4, [(0, 1, 2.0), (1, 2, bad)])

    def test_a_refused_weight_fails_the_build_not_the_stream(self):
        """No stream can delete a zero-weight edge (a batch deleting it
        would raise from the reducer half-way through ``apply_net``), so
        the build refuses it, with the message an ``EdgeUpdate`` of that
        weight raises."""
        with pytest.raises(ValueError) as built:
            DynamicGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 0.0)])
        with pytest.raises(ValueError) as update:
            add(1, 2, 0.0)
        assert str(built.value) == str(update.value)

    def test_copy_is_deep(self):
        g = DynamicGraph.from_edges(3, [(0, 1, 2.0)])
        clone = g.copy()
        clone.add_edge(1, 2, 1.0)
        assert g.num_edges == 1
        assert clone.num_edges == 2
        clone.check_consistency()
        g.check_consistency()


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty shared-object tables for one test (they are process-wide)."""
    monkeypatch.setattr(dynamic, "_IDS", [])
    monkeypatch.setattr(dynamic, "_WEIGHTS", {})


def stored(graph):
    """Every (key, weight) object the graph stores, out- and in-adjacency."""
    return [
        item
        for x in range(graph.num_vertices)
        for adj in (graph.out_adj(x), graph.in_adj(x))
        for item in adj.items()
    ]


@pytest.mark.usefixtures("fresh_tables")
class TestSharedStorage:
    """``from_edges`` stores each vertex id and weight value once."""

    @staticmethod
    def build():
        # ids above 256 and weights parsed from text: every triple brings
        # its own objects, so only the build can make them shared
        edges = [
            (int(u), int(v), float(w))
            for u, v, w in [("300", "301", "2.5"), ("301", "302", "2.5"),
                            ("302", "300", "0.75"), ("300", "302", "0.75")]
        ]
        return DynamicGraph.from_edges(400, edges)

    def test_equal_values_are_one_object(self, tmp_path):
        first = self.build()
        engine = CISGraphEngine(self.build(), PPSP(), PairwiseQuery(300, 302))
        engine.initialize()
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, engine)
        graphs = [
            self.build(),
            first.copy(),
            CSRGraph.from_dynamic(first).to_dynamic(),
            restore_checkpoint(path)[0].graph,
        ]
        objects = {}
        for graph in [first] + graphs:
            for key, weight in stored(graph):
                for value in (key, weight):
                    assert objects.setdefault(value, value) is value
        assert sorted(objects) == [0.75, 2.5, 300, 301, 302]
        assert all(objects[i] is dynamic._IDS[i] for i in (300, 301, 302))

    def test_other_weights_are_stored_as_given(self):
        numpy_weight = np.float64(2.0)
        g = DynamicGraph.from_edges(4, [(0, 1, 2), (3, 0, numpy_weight)])
        assert type(g.edge_weight(0, 1)) is int
        assert g.edge_weight(3, 0) is numpy_weight

    def test_weight_table_is_capped(self):
        cap = dynamic._WEIGHTS_CAP
        weights = [i + 0.5 for i in range(cap + 1)]
        DynamicGraph.from_edges(2, [(0, 1, w) for w in weights])
        assert len(dynamic._WEIGHTS) == cap

        def rebuilt(w):
            graph = DynamicGraph.from_edges(2, [(0, 1, float(repr(w)))])
            return graph.edge_weight(0, 1)

        assert rebuilt(weights[cap - 1]) is weights[cap - 1]
        late = rebuilt(weights[cap])
        assert late == weights[cap] and late is not weights[cap]
        assert len(dynamic._WEIGHTS) == cap

    def test_id_table_under_concurrent_builds(self):
        sizes = [50 * (k + 1) for k in range(40)]
        errors = []

        def build(offset):
            try:
                for count in sizes[offset::4] + sizes[::-5]:
                    g = DynamicGraph.from_edges(
                        count, [(i, count - 1 - i, 1.0) for i in range(count)]
                    )
                    assert all(k is dynamic._IDS[k] for k, _ in stored(g))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k % 4,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        ids = dynamic._IDS
        assert len(ids) == max(sizes)
        assert all(type(x) is int and x == i for i, x in enumerate(ids))


class TestMutation:
    def test_add_edge_new(self):
        g = DynamicGraph(3)
        assert g.add_edge(0, 1, 2.0) is True
        assert g.has_edge(0, 1)
        assert g.num_edges == 1

    def test_add_edge_overwrites_weight(self):
        g = DynamicGraph(3)
        g.add_edge(0, 1, 2.0)
        assert g.add_edge(0, 1, 5.0) is False
        assert g.edge_weight(0, 1) == 5.0
        assert g.num_edges == 1

    def test_remove_edge(self):
        g = DynamicGraph.from_edges(3, [(0, 1, 2.0)])
        assert g.remove_edge(0, 1) is True
        assert not g.has_edge(0, 1)
        assert g.num_edges == 0

    def test_remove_missing_edge_raises(self):
        g = DynamicGraph(3)
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 1)

    def test_remove_missing_edge_ok_flag(self):
        g = DynamicGraph(3)
        assert g.remove_edge(0, 1, missing_ok=True) is False

    def test_vertex_bounds_checked(self):
        g = DynamicGraph(3)
        with pytest.raises(VertexOutOfRangeError):
            g.add_edge(0, 7)
        with pytest.raises(VertexOutOfRangeError):
            g.out_degree(-1)

    def test_ensure_vertex_grows(self):
        g = DynamicGraph(2)
        g.ensure_vertex(5)
        assert g.num_vertices == 6
        g.add_edge(5, 0, 1.0)
        g.check_consistency()

    def test_apply_update_roundtrip(self):
        g = DynamicGraph(3)
        assert g.apply_update(add(0, 1, 2.0)) is True
        assert g.apply_update(delete(0, 1, 2.0)) is True
        assert g.apply_update(delete(0, 1, 2.0)) is False  # missing_ok default
        assert g.num_edges == 0

    def test_apply_batch_counts_changes(self):
        g = DynamicGraph(4)
        batch = UpdateBatch([add(0, 1), add(0, 1), add(1, 2), delete(3, 2)])
        # second add overwrites (no change), delete of absent edge ignored
        assert g.apply_batch(batch) == 2
        g.check_consistency()

    @pytest.mark.parametrize("missing_ok", [True, False])
    def test_refused_batch_leaves_the_graph_as_it_found_it(self, missing_ok):
        """The range check runs before the first write: a batch whose k-th
        update names a vertex the graph lacks changes nothing."""
        g = DynamicGraph.from_edges(4, [(0, 1, 2.0), (1, 2, 3.0)])
        edges, out_order = list(g.edges()), [list(g.out_adj(u)) for u in range(4)]
        batch = UpdateBatch([add(2, 3, 1.0), delete(0, 1, 2.0), add(3, 9, 1.0)])
        with pytest.raises(VertexOutOfRangeError) as info:
            g.apply_batch(batch, missing_ok=missing_ok)
        assert (info.value.vertex, info.value.num_vertices) == (9, 4)
        assert list(g.edges()) == edges
        assert [list(g.out_adj(u)) for u in range(4)] == out_order
        assert g.num_edges == 2
        g.check_consistency()

    def test_out_of_range_deletion_is_refused_too(self):
        g = DynamicGraph.from_edges(3, [(0, 1, 2.0)])
        with pytest.raises(VertexOutOfRangeError):
            g.apply_batch(UpdateBatch([delete(0, 1, 2.0), delete(0, 5, 1.0)]))
        assert list(g.edges()) == [(0, 1, 2.0)]
        g.check_consistency()

    def test_edge_count_consistent_after_missing_edge_mid_batch(self):
        g = DynamicGraph.from_edges(4, [(0, 1, 2.0), (1, 2, 3.0)])
        batch = UpdateBatch(
            [add(2, 3, 1.0), delete(0, 1, 2.0), delete(3, 0, 1.0), add(0, 2, 1.0)]
        )
        with pytest.raises(EdgeNotFoundError):
            g.apply_batch(batch, missing_ok=False)
        # the updates in front of the missing edge were applied, none after
        assert sorted(g.edges()) == [(1, 2, 3.0), (2, 3, 1.0)]
        assert g.num_edges == 2
        g.check_consistency()

    def test_reweight_by_delete_then_add_moves_the_edge_to_the_end(self):
        g = DynamicGraph.from_edges(3, [(0, 1, 2.0), (0, 2, 3.0), (1, 2, 1.0)])
        assert g.apply_batch(UpdateBatch([delete(0, 1, 2.0), add(0, 1, 5.0)])) == 2
        assert list(g.out_adj(0).items()) == [(2, 3.0), (1, 5.0)]
        # a plain overwrite keeps the position and is not a change
        assert g.apply_batch(UpdateBatch([add(0, 2, 4.0)])) == 0
        assert list(g.out_adj(0).items()) == [(2, 4.0), (1, 5.0)]
        assert list(g.in_adj(2).items()) == [(0, 4.0), (1, 1.0)]
        g.check_consistency()


class TestTraversal:
    def test_in_out_neighbors_mirror(self):
        g = DynamicGraph.from_edges(4, [(0, 1, 2.0), (2, 1, 3.0), (1, 3, 4.0)])
        assert dict(g.in_neighbors(1)) == {0: 2.0, 2: 3.0}
        assert dict(g.out_neighbors(1)) == {3: 4.0}
        assert g.in_degree(1) == 2
        assert g.out_degree(1) == 1

    def test_edges_iterates_all(self):
        edges = [(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]
        g = DynamicGraph.from_edges(3, edges)
        assert sorted(g.edges()) == sorted(edges)

    def test_edge_weight_missing_raises(self):
        g = DynamicGraph(2)
        with pytest.raises(EdgeNotFoundError):
            g.edge_weight(0, 1)

    def test_degrees(self):
        g = DynamicGraph.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        assert g.degrees() == [2, 1, 0]
        assert g.total_degrees() == [2, 2, 2]

    def test_consistency_after_mixed_mutation(self):
        g = DynamicGraph(10)
        import random

        rng = random.Random(7)
        for _ in range(300):
            u, v = rng.randrange(10), rng.randrange(10)
            if u == v:
                continue
            if g.has_edge(u, v) and rng.random() < 0.5:
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v, float(rng.randint(1, 9)))
        g.check_consistency()
