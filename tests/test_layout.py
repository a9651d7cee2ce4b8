"""Tests for the physical memory layout."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.hw.layout import MemoryLayout, Span

EDGES = [(0, 1, 2.0), (0, 2, 3.0), (1, 2, 4.0), (3, 0, 5.0)]


def make_layout(num_vertices=4, edges=EDGES):
    return MemoryLayout(DynamicGraph.from_edges(num_vertices, edges))


class TestRegions:
    def test_regions_do_not_overlap(self):
        layout = make_layout()
        n = 4
        regions = [
            (layout.state_base, n * layout.STATE_BYTES),
            (layout.indptr_base, (n + 1) * layout.INDPTR_BYTES),
            (layout.edges_base, len(EDGES) * layout.EDGE_RECORD_BYTES),
            (layout.rev_indptr_base, (n + 1) * layout.INDPTR_BYTES),
            (layout.rev_edges_base, len(EDGES) * layout.EDGE_RECORD_BYTES),
        ]
        regions.sort()
        for (a_start, a_len), (b_start, _) in zip(regions, regions[1:]):
            assert a_start + a_len <= b_start

    def test_total_bytes_covers_everything(self):
        layout = make_layout()
        assert layout.total_bytes >= layout.rev_edges_base


class TestSpans:
    def test_state_span(self):
        layout = make_layout()
        span = layout.state_span(3)
        assert span.address == 3 * 8
        assert span.length == 8
        assert span.end == 32

    def test_indptr_span_covers_two_entries(self):
        layout = make_layout()
        span = layout.indptr_span(1)
        assert span.length == 16

    def test_edge_list_spans_are_contiguous(self):
        layout = make_layout()
        s0 = layout.edge_list_span(0)
        s1 = layout.edge_list_span(1)
        assert s0.length == 2 * layout.EDGE_RECORD_BYTES
        assert s1.address == s0.end

    def test_zero_degree_vertex(self):
        layout = make_layout()
        span = layout.edge_list_span(2)
        assert span.length == 0

    def test_reverse_spans(self):
        layout = make_layout()
        # vertex 2 has two in-edges (from 0 and 1)
        span = layout.rev_edge_list_span(2)
        assert span.length == 2 * layout.EDGE_RECORD_BYTES


def _align(value, alignment=8192):
    return (value + alignment - 1) // alignment * alignment


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from([0.5, 1.0, 3.0])),
        max_size=40,
    ))
    return DynamicGraph.from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(graph=graphs())
def test_layout_matches_the_csr_offsets(graph):
    """Every region base and span equals the one computed from CSR
    offsets: the forward CSR of the graph and the CSR of its transpose."""
    n = graph.num_vertices
    forward = CSRGraph.from_dynamic(graph)
    reverse = CSRGraph.from_dynamic(DynamicGraph.from_edges(
        n, [(v, u, w) for u, v, w in graph.edges()]
    ))
    layout = MemoryLayout(graph)
    record = 8
    indptr_base = _align(n * 8)
    edges_base = _align(indptr_base + (n + 1) * 8)
    rev_indptr_base = _align(edges_base + forward.num_edges * record)
    rev_edges_base = _align(rev_indptr_base + (n + 1) * 8)
    assert (
        layout.state_base, layout.indptr_base, layout.edges_base,
        layout.rev_indptr_base, layout.rev_edges_base, layout.total_bytes,
    ) == (
        0, indptr_base, edges_base, rev_indptr_base, rev_edges_base,
        _align(rev_edges_base + reverse.num_edges * record),
    )
    for v in range(n):
        assert layout.state_span(v) == Span(v * 8, 8)
        assert layout.indptr_span(v) == Span(indptr_base + v * 8, 16)
        assert layout.rev_indptr_span(v) == Span(rev_indptr_base + v * 8, 16)
        assert layout.edge_list_span(v) == Span(
            edges_base + int(forward.indptr[v]) * record,
            forward.out_degree(v) * record,
        )
        assert layout.rev_edge_list_span(v) == Span(
            rev_edges_base + int(reverse.indptr[v]) * record,
            reverse.out_degree(v) * record,
        )
