"""Physical memory layout of the graph data structures.

The accelerator addresses four regions in off-chip memory (Section III-B):
the per-vertex state array, the CSR index (``indptr``), the packed forward
edge lists (4 B neighbor id + 4 B weight per edge, contiguous per vertex)
and the packed reverse edge lists used by deletion repair.  The layout
object translates logical accesses ("state of vertex 17", "edge list of
vertex 4") into byte addresses and lengths for the SPM/DRAM models.

Addresses depend only on the CSR offsets, so the layout of a snapshot is
two degree prefix sums over the :class:`~repro.graph.dynamic.DynamicGraph`
(out-degrees for the forward index, in-degrees for the reverse one); the
edge records themselves are never materialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List

from repro.graph.dynamic import DynamicGraph

#: alignment of region bases; a DRAM row so regions never share a row
_REGION_ALIGN = 8192


def _align(value: int, alignment: int = _REGION_ALIGN) -> int:
    return (value + alignment - 1) // alignment * alignment


def _offsets(adjacency) -> List[int]:
    """CSR ``indptr``: the prefix sum of the per-vertex degrees."""
    return list(accumulate(map(len, adjacency), initial=0))


@dataclass(frozen=True)
class Span:
    """A contiguous byte range in memory."""

    address: int
    length: int

    @property
    def end(self) -> int:
        return self.address + self.length


class MemoryLayout:
    """Byte addresses of state, CSR and reverse-CSR regions for a snapshot."""

    STATE_BYTES = 8
    INDPTR_BYTES = 8
    #: 4 B neighbor id + 4 B weight (the accelerator stores fp32 weights)
    EDGE_RECORD_BYTES = 8

    def __init__(self, graph: DynamicGraph) -> None:
        vertices = range(graph.num_vertices)
        self._indptr = _offsets(map(graph.out_adj, vertices))
        self._rev_indptr = _offsets(map(graph.in_adj, vertices))
        n = graph.num_vertices
        self.state_base = 0
        self.indptr_base = _align(self.state_base + n * self.STATE_BYTES)
        self.edges_base = _align(self.indptr_base + (n + 1) * self.INDPTR_BYTES)
        self.rev_indptr_base = _align(
            self.edges_base + self._indptr[-1] * self.EDGE_RECORD_BYTES
        )
        self.rev_edges_base = _align(
            self.rev_indptr_base + (n + 1) * self.INDPTR_BYTES
        )
        self.total_bytes = _align(
            self.rev_edges_base + self._rev_indptr[-1] * self.EDGE_RECORD_BYTES
        )

    # ------------------------------------------------------------------
    def state_span(self, vertex: int) -> Span:
        """Byte range of ``state[vertex]``."""
        return Span(self.state_base + vertex * self.STATE_BYTES, self.STATE_BYTES)

    def indptr_span(self, vertex: int) -> Span:
        """Byte range of ``indptr[vertex]`` and ``indptr[vertex+1]``.

        Both offsets are needed to size the edge-list request; they are
        adjacent, so a single 16-byte access covers them.
        """
        return Span(
            self.indptr_base + vertex * self.INDPTR_BYTES, 2 * self.INDPTR_BYTES
        )

    def edge_list_span(self, vertex: int) -> Span:
        """Byte range of ``vertex``'s packed forward edge list."""
        return self._list_span(self.edges_base, self._indptr, vertex)

    def rev_indptr_span(self, vertex: int) -> Span:
        return Span(
            self.rev_indptr_base + vertex * self.INDPTR_BYTES,
            2 * self.INDPTR_BYTES,
        )

    def rev_edge_list_span(self, vertex: int) -> Span:
        """Byte range of ``vertex``'s packed reverse (in-) edge list."""
        return self._list_span(self.rev_edges_base, self._rev_indptr, vertex)

    def _list_span(self, base: int, indptr: List[int], vertex: int) -> Span:
        start = indptr[vertex]
        return Span(
            base + start * self.EDGE_RECORD_BYTES,
            (indptr[vertex + 1] - start) * self.EDGE_RECORD_BYTES,
        )
