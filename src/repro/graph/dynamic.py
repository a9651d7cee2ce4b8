"""Mutable weighted digraph supporting streaming edge updates.

:class:`DynamicGraph` is the in-memory topology every engine mutates as
batches arrive.  It keeps both out- and in-adjacency because incremental
deletion repair (KickStarter-style re-computation, Section II-A) must ask
"which in-neighbors can still supply vertex ``v``'s state?".

Adjacency is stored as one ``dict`` per vertex mapping neighbor id to edge
weight.  Parallel edges are not modelled (matching CSR snapshots); adding an
existing edge overwrites its weight.

Bulk builds (:meth:`DynamicGraph.from_edges`) store each value once: every
endpoint id is one shared ``int`` per id and every ``float`` weight one
shared object per value, so a relaxation touches a few hot objects instead
of two cold ones per edge.  Copies share the same objects.  Weights are
positive, as :class:`~repro.graph.batch.EdgeUpdate` requires: a bulk build
refuses any other.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import EdgeNotFoundError, VertexOutOfRangeError
from repro.graph.batch import EdgeUpdate, UpdateBatch, UpdateKind, net_effects

# Process-wide on purpose: every graph built in the process (and its copies:
# engine graphs, serve replicas, forked children) points at the same objects.
# ``_IDS[i]`` is the shared ``int`` for vertex ``i``; the list only grows.
# ``_WEIGHTS`` maps a weight to its shared object and takes no new value past
# ``_WEIGHTS_CAP``, so continuous weights cost a bounded table.  Both tables
# change only under ``_LOCK``.
_IDS: List[int] = []
_WEIGHTS: Dict[float, float] = {}
_WEIGHTS_CAP = 4096
_LOCK = threading.Lock()


def _shared_ids(count: int) -> List[int]:
    """The shared id table, grown to cover ids ``0 .. count - 1``."""
    ids = _IDS
    if len(ids) < count:
        with _LOCK:
            ids.extend(range(len(ids), count))
    return ids


def _share_weight(weight: float) -> float:
    """The shared object for ``weight``; ``weight`` itself once the table is full."""
    table = _WEIGHTS
    with _LOCK:
        if len(table) < _WEIGHTS_CAP:
            return table.setdefault(weight, weight)
        return table.get(weight, weight)


class DynamicGraph:
    """A directed weighted graph with O(1) edge addition and deletion."""

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._out: List[Dict[int, float]] = [dict() for _ in range(num_vertices)]
        self._in: List[Dict[int, float]] = [dict() for _ in range(num_vertices)]
        self._num_edges = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int, float]],
    ) -> "DynamicGraph":
        """Build a graph from ``(u, v, weight)`` triples.

        Same result as :meth:`add_edge` per triple (range checks, insertion
        order, the last weight of a duplicate wins), but stored with shared
        objects: each endpoint as the one ``int`` of its id, and each weight
        that is exactly a ``float`` as the one object of its value (for the
        first 4096 values the process sees).  Other positive weights --
        ints, float subclasses such as NumPy's -- are stored as given.  A
        weight that is not ``> 0`` (zero, negative, ``-0.0``, NaN) raises
        the ``ValueError`` an :class:`EdgeUpdate` raises for it: no stream
        could delete or re-weight such an edge.
        :meth:`add_edge`, :meth:`apply_batch` and :meth:`apply_net` store the
        caller's objects: sharing inside the streaming ingest loop costs
        more than it saves.
        """
        graph = cls(num_vertices)
        out, inn = graph._out, graph._in
        count = len(out)
        ids = _shared_ids(count)
        table = _WEIGHTS
        exact = float
        added = 0
        for u, v, w in edges:
            if not 0 <= u < count:
                raise VertexOutOfRangeError(u, count)
            if not 0 <= v < count:
                raise VertexOutOfRangeError(v, count)
            u = ids[u]
            v = ids[v]
            if type(w) is exact and w > 0.0:
                w = table.get(w) or _share_weight(w)
            elif not w > 0:
                raise ValueError(
                    f"edge weights must be positive: +({u} --{w:g}--> {v})"
                )
            adj = out[u]
            if v not in adj:
                added += 1
            adj[v] = inn[v][u] = w
        graph._num_edges = added
        return graph

    def copy(self) -> "DynamicGraph":
        """Deep copy (adjacency dicts are duplicated, stored objects shared)."""
        clone = DynamicGraph(self.num_vertices)
        clone._out = [dict(adj) for adj in self._out]
        clone._in = [dict(adj) for adj in self._in]
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # size queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._out)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def out_degree(self, u: int) -> int:
        self._check_vertex(u)
        return len(self._out[u])

    def in_degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._in[v])

    # ------------------------------------------------------------------
    # vertex / edge mutation
    # ------------------------------------------------------------------
    def ensure_vertex(self, vertex: int) -> None:
        """Grow the vertex set so that ``vertex`` is a valid id."""
        if vertex < 0:
            raise VertexOutOfRangeError(vertex, self.num_vertices)
        while len(self._out) <= vertex:
            self._out.append(dict())
            self._in.append(dict())

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> bool:
        """Insert (or re-weight) edge ``u -> v``.

        Returns ``True`` when the edge is new, ``False`` when an existing
        edge's weight was overwritten.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        is_new = v not in self._out[u]
        self._out[u][v] = weight
        self._in[v][u] = weight
        if is_new:
            self._num_edges += 1
        return is_new

    def remove_edge(self, u: int, v: int, missing_ok: bool = False) -> bool:
        """Delete edge ``u -> v``.

        Returns ``True`` when an edge was removed.  With ``missing_ok`` a
        missing edge is ignored (streaming batches may delete an edge that a
        preceding update in the same batch already removed); otherwise
        :class:`EdgeNotFoundError` is raised.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._out[u]:
            if missing_ok:
                return False
            raise EdgeNotFoundError(u, v)
        del self._out[u][v]
        del self._in[v][u]
        self._num_edges -= 1
        return True

    def apply_update(self, update: EdgeUpdate, missing_ok: bool = True) -> bool:
        """Apply one streaming update to the topology.

        Returns ``True`` if the topology changed.
        """
        if update.is_addition:
            return self.add_edge(update.u, update.v, update.weight)
        return self.remove_edge(update.u, update.v, missing_ok=missing_ok)

    def apply_batch(self, batch: UpdateBatch, missing_ok: bool = True) -> int:
        """Apply a whole batch in order; returns the number of effective changes.

        The apply routine for raw batches (stream replay, the cold-start
        baseline, a process child's replica); engines call
        :meth:`apply_net`.  Both endpoints of every update are range-checked
        *before the first write*, so a batch refused with
        :class:`VertexOutOfRangeError` leaves the graph as it found it.
        With ``missing_ok=False`` deleting an absent edge raises
        :class:`EdgeNotFoundError` after the updates in front of it were
        applied; the edge count stays consistent with the adjacency.
        """
        out, inn = self._out, self._in
        top = batch.max_vertex()
        if top >= len(out):
            raise VertexOutOfRangeError(top, len(out))
        is_add = UpdateKind.ADD
        added = removed = 0
        try:
            for update in batch:
                u, v = update.u, update.v
                adj = out[u]
                if update.kind is is_add:
                    if v not in adj:
                        added += 1
                    adj[v] = inn[v][u] = update.weight
                elif v in adj:
                    del adj[v]
                    del inn[v][u]
                    removed += 1
                elif not missing_ok:
                    raise EdgeNotFoundError(u, v)
        finally:
            self._num_edges += added - removed
        return added + removed

    def apply_net(self, batch: UpdateBatch) -> UpdateBatch:
        """Apply a batch's *net* topology effect and return that effect.

        The ingest routine of every engine: exactly
        ``net_effects(batch, self.weight_or_none)`` followed by
        ``apply_batch(effective, missing_ok=False)`` -- the same effective
        updates (the caller's own objects wherever ``net_effects`` reuses
        them), in first-touch order, leaving the same insertion order in
        both adjacency dicts and the same edge count -- in one dedupe pass
        and one loop over the distinct edges, which reads each pre-batch
        weight from the out-adjacency, decides the effect and writes it.

        A surviving addition that names a vertex the graph does not have
        raises :class:`VertexOutOfRangeError` for the largest such vertex
        before the first write; a deletion of such an edge has no effect.
        One difference from the pair: a stored weight no
        :class:`EdgeUpdate` can carry (``<= 0`` or NaN, which only
        :meth:`add_edge` stores; :meth:`from_edges` refuses it) raises the
        reducer's ``ValueError`` when a deletion half must carry it, but
        after the edges in front of it were applied; the edge count stays
        consistent.
        """
        out, inn = self._out, self._in
        count = len(out)
        last = {(upd.u, upd.v): upd for upd in batch}
        if batch.max_vertex() >= count:
            top = net_effects(batch, self.weight_or_none).max_vertex()
            if top >= count:
                raise VertexOutOfRangeError(top, count)
            # what is left naming such a vertex deletes an edge that cannot exist
            last = {key: upd for key, upd in last.items() if max(key) < count}
        is_add, is_delete = UpdateKind.ADD, UpdateKind.DELETE
        reduced: List[EdgeUpdate] = []
        append = reduced.append
        added = removed = 0
        try:
            for (u, v), upd in last.items():
                adj = out[u]
                if upd.kind is is_add:
                    if v in adj:
                        old = adj[v]
                        if old == upd.weight:
                            continue
                        # delete-then-add: the edge moves to the end of both dicts
                        append(EdgeUpdate(is_delete, u, v, old))
                        del adj[v]
                        del inn[v][u]
                    else:
                        added += 1
                    adj[v] = inn[v][u] = upd.weight
                    append(upd)
                else:
                    old = adj.get(v)
                    if old is not None:
                        if upd.weight != old:
                            upd = EdgeUpdate(is_delete, u, v, old)
                        del adj[v]
                        del inn[v][u]
                        removed += 1
                        append(upd)
        finally:
            self._num_edges += added - removed
        return UpdateBatch(reduced)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._out[u]

    def edge_weight(self, u: int, v: int) -> float:
        self._check_vertex(u)
        self._check_vertex(v)
        try:
            return self._out[u][v]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def weight_or_none(self, u: int, v: int) -> Optional[float]:
        """Weight of ``u -> v``; ``None`` when absent or ``u`` out of range.

        The pre-batch lookup to hand :func:`~repro.graph.batch.net_effects`
        (what :meth:`apply_net` reads inline): an update naming a vertex
        the graph does not have reduces to a net addition (or to nothing,
        for a deletion), so applying the reduced batch raises the typed
        :class:`VertexOutOfRangeError` instead of an ``IndexError`` here.
        """
        if 0 <= u < len(self._out):
            return self._out[u].get(v)
        return None

    def out_neighbors(self, u: int) -> Iterator[Tuple[int, float]]:
        """Iterate ``(neighbor, weight)`` over out-edges of ``u``."""
        self._check_vertex(u)
        return iter(self._out[u].items())

    def in_neighbors(self, v: int) -> Iterator[Tuple[int, float]]:
        """Iterate ``(neighbor, weight)`` over in-edges of ``v``."""
        self._check_vertex(v)
        return iter(self._in[v].items())

    def out_adj(self, u: int) -> Dict[int, float]:
        """Direct (read-only by convention) access to ``u``'s out-adjacency dict.

        Exposed for hot loops in the engines; callers must not mutate it.
        """
        return self._out[u]

    def in_adj(self, v: int) -> Dict[int, float]:
        """Direct (read-only by convention) access to ``v``'s in-adjacency dict."""
        return self._in[v]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate all edges as ``(u, v, weight)``."""
        for u, adj in enumerate(self._out):
            for v, w in adj.items():
                yield (u, v, w)

    def degrees(self) -> List[int]:
        """Out-degree of every vertex (used for hub selection)."""
        return [len(adj) for adj in self._out]

    def total_degrees(self) -> List[int]:
        """Out-degree + in-degree of every vertex."""
        return [len(out) + len(inn) for out, inn in zip(self._out, self._in)]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < len(self._out):
            raise VertexOutOfRangeError(vertex, len(self._out))

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )

    def check_consistency(self) -> None:
        """Verify the out/in adjacency mirrors agree (used by tests)."""
        count = 0
        for u, adj in enumerate(self._out):
            for v, w in adj.items():
                assert self._in[v].get(u) == w, f"in-adjacency missing {u}->{v}"
                count += 1
        in_count = sum(len(adj) for adj in self._in)
        assert count == in_count == self._num_edges, "edge count drifted"
