"""Unit tests for CSR snapshots and their byte layout."""

import numpy as np
import pytest

from repro.errors import VertexOutOfRangeError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from tests.conftest import random_graph

EDGES = [(0, 1, 2.0), (0, 2, 3.0), (1, 2, 4.0), (3, 0, 5.0)]


class TestConstruction:
    def test_from_edges(self):
        csr = CSRGraph.from_edges(4, EDGES)
        assert csr.num_vertices == 4
        assert csr.num_edges == 4
        assert csr.out_degree(0) == 2
        assert csr.out_degree(2) == 0

    def test_from_dynamic_matches_from_edges(self):
        dyn = DynamicGraph.from_edges(4, EDGES)
        a = CSRGraph.from_dynamic(dyn)
        b = CSRGraph.from_edges(4, EDGES)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_to_dynamic_copy_outlives_the_csr(self):
        # to_dynamic keeps every edge and each out-order, and owns its
        # data: dropping the CSR or mutating the copy leaves the other be
        for graph in (DynamicGraph.from_edges(4, EDGES), random_graph(30, 120, seed=6)):
            csr = CSRGraph.from_dynamic(graph)
            expected = list(csr.edges())
            copy = csr.to_dynamic()
            assert list(copy.edges()) == list(graph.edges())
            copy.add_edge(0, 3, 9.0)
            assert list(csr.edges()) == expected
            del csr
            assert (0, 3, 9.0) in set(copy.edges())

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            CSRGraph.from_edges(2, [(0, 5, 1.0)])

    def test_invalid_arrays_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(
                np.array([0, 2]), np.array([1]), np.array([1.0])
            )  # indptr end != num_edges
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([1]), np.array([1.0, 2.0]))

    def test_empty_graph(self):
        csr = CSRGraph.from_edges(3, [])
        assert csr.num_edges == 0
        assert list(csr.out_neighbors(0)) == []


class TestQueries:
    def test_out_neighbors(self):
        csr = CSRGraph.from_edges(4, EDGES)
        assert sorted(csr.out_neighbors(0)) == [(1, 2.0), (2, 3.0)]

    def test_neighbor_slice(self):
        csr = CSRGraph.from_edges(4, EDGES)
        ids, weights = csr.neighbor_slice(0)
        assert set(ids.tolist()) == {1, 2}
        assert len(weights) == 2

    def test_edges_roundtrip(self):
        csr = CSRGraph.from_edges(4, EDGES)
        assert sorted(csr.edges()) == sorted(EDGES)

    def test_average_degree(self):
        csr = CSRGraph.from_edges(4, EDGES)
        assert csr.average_degree() == 1.0

    def test_reversed_transposes(self):
        csr = CSRGraph.from_edges(4, EDGES)
        rev = csr.reversed()
        assert sorted(rev.edges()) == sorted((v, u, w) for u, v, w in EDGES)
        # double reverse is identity
        assert sorted(rev.reversed().edges()) == sorted(csr.edges())


class TestLayout:
    def test_edge_list_address_contiguity(self):
        csr = CSRGraph.from_edges(4, EDGES)
        record = CSRGraph.INDEX_BYTES + CSRGraph.WEIGHT_BYTES
        addr0, len0 = csr.edge_list_address(0)
        addr1, len1 = csr.edge_list_address(1)
        assert len0 == 2 * record
        assert addr1 == addr0 + len0  # vertex 1's list directly follows
        assert len1 == 1 * record

    def test_edge_list_address_with_base(self):
        csr = CSRGraph.from_edges(4, EDGES)
        addr, _ = csr.edge_list_address(0, base=1024)
        assert addr == 1024
