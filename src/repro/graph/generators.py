"""Synthetic graph generators.

The paper evaluates on Orkut, LiveJournal and UK-2002 (Table III), which are
multi-hundred-megabyte downloads unavailable offline.  These generators
produce scaled stand-ins with the structural properties the experiments
depend on — power-law degree skew (RMAT/Kronecker for social graphs,
preferential attachment with locality for web graphs) — plus regular
topologies (grids for road-network-style examples, Erdos-Renyi for fuzzing).

All generators are deterministic given a seed and return unique directed
edges ``(u, v, weight)`` with integer-valued positive weights, which every
algorithm's weight transform can consume (see
:meth:`repro.algorithms.base.MonotonicAlgorithm.transform_weight`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.dynamic import DynamicGraph
from repro.graph.popularity import ZipfSampler

Edge = Tuple[int, int, float]

#: Default inclusive weight range; matches common streaming-graph setups
#: where unweighted datasets are assigned small random integer weights.
DEFAULT_MAX_WEIGHT = 64


def _assign_weights(
    rng: np.random.Generator, count: int, max_weight: int
) -> np.ndarray:
    return rng.integers(1, max_weight + 1, size=count).astype(np.float64)


def _dedupe(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Drop self loops and duplicate (u, v) pairs, keeping first occurrence."""
    mask = src != dst
    src, dst = src[mask], dst[mask]
    keys = src.astype(np.int64) * (int(dst.max(initial=0)) + 1) + dst
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return src[first], dst[first]


def rmat(
    num_vertices: int,
    num_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> List[Edge]:
    """Recursive-matrix (Kronecker) generator, the standard social-graph model.

    Parameters follow the Graph500 convention (``d = 1 - a - b - c``).
    Oversamples then deduplicates, so the returned edge count may be slightly
    below ``num_edges`` on dense configurations.
    """
    if not num_vertices > 0:
        raise ValueError("num_vertices must be positive")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("RMAT probabilities must be non-negative and sum <= 1")
    scale = max(1, int(np.ceil(np.log2(num_vertices))))
    rng = np.random.default_rng(seed)

    target = num_edges
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    collected = 0
    # a couple of oversampling rounds are enough; duplicates are rare at the
    # densities we generate, but loop defensively.
    for _ in range(8):
        need = int((target - collected) * 1.15) + 16
        src = np.zeros(need, dtype=np.int64)
        dst = np.zeros(need, dtype=np.int64)
        for level in range(scale):
            r = rng.random(need)
            right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
            down = r >= a + b
            src |= down.astype(np.int64) << level
            dst |= right.astype(np.int64) << level
        src %= num_vertices
        dst %= num_vertices
        src, dst = _dedupe(src, dst)
        src_parts.append(src)
        dst_parts.append(dst)
        all_src = np.concatenate(src_parts)
        all_dst = np.concatenate(dst_parts)
        all_src, all_dst = _dedupe(all_src, all_dst)
        src_parts = [all_src]
        dst_parts = [all_dst]
        collected = len(all_src)
        if collected >= target:
            break
    src = src_parts[0][:target]
    dst = dst_parts[0][:target]
    weights = _assign_weights(rng, len(src), max_weight)
    return list(zip(src.tolist(), dst.tolist(), weights.tolist()))


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> List[Edge]:
    """Uniform random digraph with exactly ``num_edges`` unique edges."""
    if num_edges > num_vertices * (num_vertices - 1):
        raise ValueError("too many edges requested for a simple digraph")
    rng = np.random.default_rng(seed)
    chosen: set = set()
    edges: List[Tuple[int, int]] = []
    while len(edges) < num_edges:
        need = num_edges - len(edges)
        src = rng.integers(0, num_vertices, size=need * 2)
        dst = rng.integers(0, num_vertices, size=need * 2)
        for u, v in zip(src.tolist(), dst.tolist()):
            if u == v or (u, v) in chosen:
                continue
            chosen.add((u, v))
            edges.append((u, v))
            if len(edges) == num_edges:
                break
    weights = _assign_weights(rng, len(edges), max_weight)
    return [(u, v, w) for (u, v), w in zip(edges, weights.tolist())]


def uniform_digraph(num_vertices: int, num_edges: int, rng) -> DynamicGraph:
    """Uniform simple digraph with weights in ``1 .. 16``, drawn from ``rng``
    (a :class:`random.Random`).

    Draws edge endpoints until ``num_edges`` distinct non-loop pairs are
    taken, then one weight per edge, in the set's iteration order; the
    caller's later draws continue from there.
    """
    edges = set()
    while len(edges) < num_edges:
        u, v = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if u != v:
            edges.add((u, v))
    weighted = [(u, v, float(rng.randint(1, 16))) for u, v in edges]
    return DynamicGraph.from_edges(num_vertices, weighted)


def web_graph(
    num_vertices: int,
    num_edges: int,
    locality: float = 0.6,
    seed: int = 0,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> List[Edge]:
    """Web-crawl-like graph (UK-2002 stand-in).

    Web graphs combine heavy-tailed in-degrees (popular pages) with strong
    host locality (most hyperlinks stay within a neighborhood of ids, since
    crawls order pages by host).  Each edge's destination is drawn either
    near its source (with probability ``locality``) or by preferential
    attachment over a Zipf-ranked popularity table.
    """
    if not 0 <= locality <= 1:
        raise ValueError("locality must be in [0, 1]")
    rng = np.random.default_rng(seed)
    # Zipf-like popularity over a random permutation of vertex ids.
    popularity = ZipfSampler(num_vertices, exponent=0.8, rng=rng, permute=True)

    chosen: set = set()
    edges: List[Tuple[int, int]] = []
    window = max(4, num_vertices // 64)
    while len(edges) < num_edges:
        need = (num_edges - len(edges)) * 2
        src = rng.integers(0, num_vertices, size=need)
        local = rng.random(need) < locality
        offsets = rng.integers(-window, window + 1, size=need)
        near = (src + offsets) % num_vertices
        popular = popularity.sample(need)
        dst = np.where(local, near, popular)
        for u, v in zip(src.tolist(), dst.tolist()):
            if u == v or (u, v) in chosen:
                continue
            chosen.add((u, v))
            edges.append((u, v))
            if len(edges) == num_edges:
                break
    weights = _assign_weights(rng, len(edges), max_weight)
    return [(u, v, w) for (u, v), w in zip(edges, weights.tolist())]


def grid(
    rows: int,
    cols: int,
    bidirectional: bool = True,
    seed: int = 0,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> List[Edge]:
    """Rectangular grid, a road-network stand-in for the navigation example.

    Vertex ``(r, c)`` has id ``r * cols + c`` and edges to its right and
    down neighbors (plus the reverse edges when ``bidirectional``).
    """
    rng = np.random.default_rng(seed)
    edges: List[Edge] = []

    def vid(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            here = vid(r, c)
            if c + 1 < cols:
                w = float(rng.integers(1, max_weight + 1))
                edges.append((here, vid(r, c + 1), w))
                if bidirectional:
                    edges.append((vid(r, c + 1), here, w))
            if r + 1 < rows:
                w = float(rng.integers(1, max_weight + 1))
                edges.append((here, vid(r + 1, c), w))
                if bidirectional:
                    edges.append((vid(r + 1, c), here, w))
    return edges


def small_world(
    num_vertices: int,
    neighbors: int = 4,
    rewire_probability: float = 0.1,
    seed: int = 0,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> List[Edge]:
    """Watts-Strogatz-style small-world digraph.

    Each vertex links to its ``neighbors`` clockwise ring successors; each
    link is rewired to a uniform random target with
    ``rewire_probability`` — short average path lengths with high local
    clustering, a useful contrast to RMAT's skew in sensitivity studies.
    """
    if neighbors < 1 or neighbors >= num_vertices:
        raise ValueError("need 1 <= neighbors < num_vertices")
    if not 0 <= rewire_probability <= 1:
        raise ValueError("rewire_probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    chosen: set = set()
    edges: List[Edge] = []
    for u in range(num_vertices):
        for k in range(1, neighbors + 1):
            v = (u + k) % num_vertices
            if rng.random() < rewire_probability:
                v = int(rng.integers(0, num_vertices))
            if v == u or (u, v) in chosen:
                continue
            chosen.add((u, v))
            edges.append((u, v, float(rng.integers(1, max_weight + 1))))
    return edges


def path_graph(length: int, weight: float = 1.0) -> List[Edge]:
    """A simple directed path ``0 -> 1 -> ... -> length`` (test helper)."""
    return [(i, i + 1, weight) for i in range(length)]
