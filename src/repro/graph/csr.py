"""Compressed Sparse Row snapshots.

The accelerator stores graph topology in CSR (Section III-B): neighbor ids
and weights of one vertex are contiguous, so the neighbor prefetcher fetches
a whole edge list with a single base-address + length memory request.
:class:`CSRGraph` is the immutable snapshot format consumed by the hardware
simulator and the cold-start solver; it also knows the byte layout of its
arrays so the memory model can translate accesses to addresses.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np

from repro.errors import VertexOutOfRangeError


class CSRGraph:
    """Immutable weighted digraph in CSR form.

    Attributes
    ----------
    indptr:
        ``int64[num_vertices + 1]`` — edge-list offsets per vertex.
    indices:
        ``int32[num_edges]`` — destination vertex of each edge.
    weights:
        ``float64[num_edges]`` — edge weights, aligned with ``indices``.
    """

    #: bytes per element, used by the hardware memory layout
    INDPTR_BYTES = 8
    INDEX_BYTES = 4
    WEIGHT_BYTES = 4  # the accelerator stores fp32 weights
    STATE_BYTES = 8

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        if indptr.ndim != 1 or indices.ndim != 1 or weights.ndim != 1:
            raise ValueError("CSR arrays must be one-dimensional")
        if len(indices) != len(weights):
            raise ValueError("indices and weights must have equal length")
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr must start at 0 and end at num_edges")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int, float]],
    ) -> "CSRGraph":
        """Build a CSR snapshot from ``(u, v, weight)`` triples."""
        edge_list = list(edges)
        num_edges = len(edge_list)
        src = np.empty(num_edges, dtype=np.int64)
        dst = np.empty(num_edges, dtype=np.int32)
        wgt = np.empty(num_edges, dtype=np.float64)
        for i, (u, v, w) in enumerate(edge_list):
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise VertexOutOfRangeError(max(u, v), num_vertices)
            src[i] = u
            dst[i] = v
            wgt[i] = w
        order = np.argsort(src, kind="stable")
        src = src[order]
        dst = dst[order]
        wgt = wgt[order]
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, dst, wgt)

    @classmethod
    def from_dynamic(cls, graph) -> "CSRGraph":
        """Snapshot a :class:`~repro.graph.dynamic.DynamicGraph`."""
        num_vertices = graph.num_vertices
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        for u in range(num_vertices):
            indptr[u + 1] = indptr[u] + graph.out_degree(u)
        num_edges = int(indptr[-1])
        indices = np.empty(num_edges, dtype=np.int32)
        weights = np.empty(num_edges, dtype=np.float64)
        pos = 0
        for u in range(num_vertices):
            for v, w in graph.out_neighbors(u):
                indices[pos] = v
                weights[pos] = w
                pos += 1
        return cls(indptr, indices, weights)

    def reversed(self) -> "CSRGraph":
        """CSR of the transposed graph (in-edges become out-edges)."""
        num_vertices = self.num_vertices
        sources = np.repeat(
            np.arange(num_vertices, dtype=np.int32), np.diff(self.indptr)
        )
        order = np.argsort(self.indices, kind="stable")
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(indptr, self.indices.astype(np.int64) + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRGraph(indptr, sources[order], self.weights[order])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def out_degree(self, u: int) -> int:
        self._check_vertex(u)
        return int(self.indptr[u + 1] - self.indptr[u])

    def out_neighbors(self, u: int) -> Iterator[Tuple[int, float]]:
        """Iterate ``(neighbor, weight)`` over out-edges of ``u``."""
        self._check_vertex(u)
        lo = int(self.indptr[u])
        hi = int(self.indptr[u + 1])
        for i in range(lo, hi):
            yield int(self.indices[i]), float(self.weights[i])

    def neighbor_slice(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised view of ``u``'s neighbor ids and weights."""
        self._check_vertex(u)
        lo = int(self.indptr[u])
        hi = int(self.indptr[u + 1])
        return self.indices[lo:hi], self.weights[lo:hi]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        for u in range(self.num_vertices):
            for v, w in self.out_neighbors(u):
                yield u, v, w

    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    # ------------------------------------------------------------------
    # memory layout (used by repro.hw)
    # ------------------------------------------------------------------
    def edge_list_address(self, u: int, base: int = 0) -> Tuple[int, int]:
        """Byte address and length of ``u``'s packed (id, weight) edge list.

        The accelerator fetches a vertex's whole edge list with one request
        (Section III-B).  Each edge record is ``INDEX_BYTES + WEIGHT_BYTES``
        bytes, records of one vertex are contiguous.
        """
        self._check_vertex(u)
        record = self.INDEX_BYTES + self.WEIGHT_BYTES
        start = base + int(self.indptr[u]) * record
        length = self.out_degree(u) * record
        return start, length

    def to_dynamic(self):
        """Rebuild a mutable :class:`~repro.graph.dynamic.DynamicGraph`.

        The arrays are read once and copied, in CSR (out-edge) order,
        through :meth:`DynamicGraph.from_edges`; the copy shares nothing with
        this snapshot.
        """
        from repro.graph.dynamic import DynamicGraph

        sources = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )
        return DynamicGraph.from_edges(
            self.num_vertices,
            zip(sources.tolist(), self.indices.tolist(), self.weights.tolist()),
        )

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise VertexOutOfRangeError(vertex, self.num_vertices)

    def __repr__(self) -> str:
        return f"CSRGraph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"
