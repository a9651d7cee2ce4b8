"""Edge-list I/O.

Supports the plain-text format used by SNAP/LAW dataset dumps
(``u v [weight]`` per line, ``#`` comments) and a fast NumPy ``.npz``
binary cache used by the benchmark harness.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph

Edge = Tuple[int, int, float]


def load_edge_list(
    path: str,
    default_weight: float = 1.0,
    comment: str = "#",
) -> List[Edge]:
    """Read a whitespace-separated edge list.

    Lines are ``u v`` or ``u v weight``; missing weights get
    ``default_weight``.  Vertex ids must be non-negative integers and
    weights ``> 0`` (a zero, negative or NaN weight raises a
    ``ValueError`` naming ``path:lineno``).
    """
    edges: List[Edge] = []
    with open(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(comment):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 'u v [w]', got {line!r}")
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else default_weight
            if not w > 0:
                raise ValueError(
                    f"{path}:{lineno}: edge weights must be positive, got {w!r}"
                )
            edges.append((u, v, w))
    return edges


def save_edge_list(path: str, edges: List[Edge], header: Optional[str] = None) -> None:
    """Write edges as ``u v weight`` lines with an optional ``#`` header.

    Weights are written with ``repr`` so :func:`load_edge_list` reads back
    the exact float.
    """
    with open(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v, w in edges:
            handle.write(f"{u} {v} {w!r}\n")


def save_npz(path: str, num_vertices: int, edges: List[Edge]) -> None:
    """Cache an edge list as a compressed NumPy archive."""
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    wgt = np.array([e[2] for e in edges], dtype=np.float64)
    np.savez_compressed(
        path, num_vertices=np.int64(num_vertices), src=src, dst=dst, wgt=wgt
    )


def load_npz(path: str) -> Tuple[int, List[Edge]]:
    """Load an edge list cached with :func:`save_npz`."""
    data = np.load(path)
    num_vertices = int(data["num_vertices"])
    edges = list(
        zip(data["src"].tolist(), data["dst"].tolist(), data["wgt"].tolist())
    )
    return num_vertices, edges


def edges_to_dynamic(num_vertices: int, edges: List[Edge]) -> DynamicGraph:
    """Convenience: materialise an edge list as a :class:`DynamicGraph`."""
    return DynamicGraph.from_edges(num_vertices, edges)


def edges_to_csr(num_vertices: int, edges: List[Edge]) -> CSRGraph:
    """Convenience: materialise an edge list as a :class:`CSRGraph`."""
    return CSRGraph.from_edges(num_vertices, edges)


def infer_num_vertices(edges: List[Edge]) -> int:
    """Smallest vertex-count that fits every edge endpoint."""
    best = -1
    for u, v, _ in edges:
        if u > best:
            best = u
        if v > best:
            best = v
    return best + 1
