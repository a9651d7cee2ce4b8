"""Tests for edge-list I/O, the streaming driver, metrics and queries."""

import math
import os

import pytest

from repro.errors import QueryError
from repro.graph import io
from repro.graph.batch import UpdateBatch, add, delete
from repro.graph.dynamic import DynamicGraph
from repro.graph.streaming import StreamReplay, StreamingGraph
from repro.metrics import BatchResult, OpCounts
from repro.query import PairwiseQuery

EDGES = [(0, 1, 2.0), (1, 2, 3.5), (2, 0, 1.0)]


class TestEdgeListIO:
    def test_roundtrip_text(self, tmp_path):
        path = str(tmp_path / "graph.txt")
        # weights that "%g" would round: 1234570.0 and 0.3
        edges = EDGES + [(0, 2, 1234567.0), (2, 1, 0.1 + 0.2)]
        io.save_edge_list(path, edges, header="test graph\nsecond line")
        loaded = io.load_edge_list(path)
        assert loaded == edges

    def test_default_weight(self, tmp_path):
        path = str(tmp_path / "unweighted.txt")
        with open(path, "w") as handle:
            handle.write("# comment\n0 1\n1 2\n")
        loaded = io.load_edge_list(path, default_weight=7.0)
        assert loaded == [(0, 1, 7.0), (1, 2, 7.0)]

    def test_malformed_line_raises(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as handle:
            handle.write("0 1 2 3 4\n")
        with pytest.raises(ValueError, match="bad.txt:1"):
            io.load_edge_list(path)

    def test_roundtrip_npz(self, tmp_path):
        path = str(tmp_path / "graph.npz")
        io.save_npz(path, 3, EDGES)
        num_vertices, loaded = io.load_npz(path)
        assert num_vertices == 3
        assert loaded == EDGES

    def test_convenience_builders(self):
        dyn = io.edges_to_dynamic(3, EDGES)
        csr = io.edges_to_csr(3, EDGES)
        assert dyn.num_edges == csr.num_edges == 3

    def test_infer_num_vertices(self):
        assert io.infer_num_vertices(EDGES) == 3
        assert io.infer_num_vertices([]) == 0


class TestStreamingGraph:
    def test_buffer_and_seal(self):
        stream = StreamingGraph(DynamicGraph(4), batch_threshold=2)
        assert stream.ingest(add(0, 1)) is False
        assert stream.ingest(add(1, 2)) is True
        batch = stream.seal_batch()
        assert len(batch) == 2
        assert stream.pending_count == 0

    def test_apply_advances_snapshot(self):
        stream = StreamingGraph(DynamicGraph(4), batch_threshold=10)
        stream.ingest(add(0, 1))
        batch = stream.seal_batch()
        assert stream.snapshot_id == 0
        stream.apply(batch)
        assert stream.snapshot_id == 1
        assert stream.graph.has_edge(0, 1)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            StreamingGraph(DynamicGraph(1), batch_threshold=0)

    def test_snapshot_csr(self):
        stream = StreamingGraph(DynamicGraph.from_edges(3, EDGES))
        assert stream.snapshot_csr().num_edges == 3

    def test_seek_sets_snapshot_directly(self):
        stream = StreamingGraph(DynamicGraph(4))
        stream.seek(1_000_000)  # O(1), not a million commits
        assert stream.snapshot_id == 1_000_000
        stream.seek(0)
        assert stream.snapshot_id == 0

    def test_seek_rejects_negative_and_pending(self):
        stream = StreamingGraph(DynamicGraph(4))
        with pytest.raises(ValueError, match="non-negative"):
            stream.seek(-1)
        stream.ingest(add(0, 1))
        with pytest.raises(ValueError, match="buffered"):
            stream.seek(5)


class TestStreamReplay:
    def test_replay_isolation(self):
        initial = DynamicGraph.from_edges(3, EDGES)
        replay = StreamReplay(initial, [UpdateBatch([delete(0, 1, 2.0)])])
        g1 = replay.initial_graph
        g1.remove_edge(0, 1)
        g2 = replay.initial_graph
        assert g2.has_edge(0, 1), "initial_graph must return private copies"

    def test_batches_sequence(self):
        replay = StreamReplay(
            DynamicGraph(3),
            [UpdateBatch([add(0, 1)]), UpdateBatch([add(1, 2)])],
        )
        steps = list(replay.batches())
        assert [s.snapshot_id for s in steps] == [1, 2]
        assert replay.num_batches == 2
        assert replay.batch(1)[0].edge == (1, 2)

    def test_final_graph(self):
        replay = StreamReplay(
            DynamicGraph(3),
            [UpdateBatch([add(0, 1)]), UpdateBatch([delete(0, 1)])],
        )
        assert replay.final_graph().num_edges == 0


class TestOpCounts:
    def test_add(self):
        a = OpCounts(relaxations=2, heap_ops=1)
        b = OpCounts(relaxations=3)
        c = a + b
        assert c.relaxations == 5
        assert c.heap_ops == 1
        # originals untouched
        assert a.relaxations == 2

    def test_iadd(self):
        a = OpCounts(relaxations=2)
        a += OpCounts(relaxations=3, tag_ops=1)
        assert a.relaxations == 5
        assert a.tag_ops == 1

    def test_copy_independent(self):
        a = OpCounts(relaxations=1)
        b = a.copy()
        b.relaxations = 9
        assert a.relaxations == 1

    def test_total_compute(self):
        ops = OpCounts(
            relaxations=1, classification_checks=2, tag_ops=3, bound_checks=4
        )
        assert ops.total_compute() == 10

    def test_bool(self):
        assert not OpCounts()
        assert OpCounts(state_reads=1)

    def test_batch_result_total(self):
        result = BatchResult(
            answer=1.0,
            response_ops=OpCounts(relaxations=2),
            post_ops=OpCounts(relaxations=3),
        )
        assert result.total_ops.relaxations == 5


class TestPairwiseQuery:
    def test_distinct_required(self):
        with pytest.raises(QueryError):
            PairwiseQuery(3, 3)

    def test_non_negative_required(self):
        with pytest.raises(QueryError):
            PairwiseQuery(-1, 2)

    def test_validate_bounds(self):
        q = PairwiseQuery(0, 10)
        with pytest.raises(QueryError):
            q.validate(5)
        q.validate(11)

    def test_str(self):
        assert str(PairwiseQuery(1, 2)) == "Q(1 -> 2)"
