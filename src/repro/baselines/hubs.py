"""Hub-vertex distance index for SGraph-style bound pruning.

SGraph (Section II-B) selects the 16 highest-degree vertices as *hubs* and
maintains, for every vertex, its distance from each hub; the distances feed
the upper/lower bounds used to prune activations, and keeping them fresh on
every batch is the "boundary maintaining" overhead the paper observes.

The index is query-independent (hub sources do not depend on ``s``/``d``),
so the harness may share one instance across the ten query pairs of an
experiment; each engine still charges the full maintenance cost to its own
response, matching the paper's single-query scenario.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.algorithms.base import MonotonicAlgorithm
from repro.graph.batch import UpdateBatch
from repro.graph.dynamic import DynamicGraph
from repro.incremental import IncrementalState
from repro.metrics import OpCounts


def select_hubs(graph: DynamicGraph, num_hubs: int = 16) -> List[int]:
    """The ``num_hubs`` vertices with the highest total degree."""
    if num_hubs <= 0:
        raise ValueError("num_hubs must be positive")
    degrees = graph.total_degrees()
    order = sorted(range(len(degrees)), key=lambda v: (-degrees[v], v))
    return order[: min(num_hubs, len(order))]


class HubIndex:
    """Converged one-to-all state per hub, maintained incrementally.

    Owns a private copy of the topology (engines mutate their own copies on
    a different schedule).  :meth:`process_batch` advances the index by one
    batch and returns the maintenance cost; repeated calls with the same
    ``batch_id`` return the recorded cost without re-processing, enabling
    safe sharing across engines that replay the same stream.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        num_hubs: int = 16,
        hubs: Optional[Sequence[int]] = None,
    ) -> None:
        self.graph = graph.copy()
        self.algorithm = algorithm
        self.hubs: List[int] = (
            list(hubs) if hubs is not None else select_hubs(self.graph, num_hubs)
        )
        self._states: Dict[int, IncrementalState] = {}
        self._processed: Dict[int, OpCounts] = {}
        self.init_ops = OpCounts()
        for hub in self.hubs:
            state = IncrementalState(self.graph, algorithm, hub)
            state.full_compute(self.init_ops)
            self._states[hub] = state

    # ------------------------------------------------------------------
    def hub_state(self, hub: int, vertex: int) -> float:
        """Converged state of ``vertex`` as seen from ``hub``."""
        return self._states[hub].states[vertex]

    def process_batch(self, batch_id: int, batch: UpdateBatch) -> OpCounts:
        """Advance the index by one batch.

        Idempotent per ``batch_id``: engines replaying the same stream share
        one index, and only the first caller per batch advances it — later
        callers get the recorded maintenance cost.  Batches must arrive in
        stream order the first time around.
        """
        if batch_id in self._processed:
            return self._processed[batch_id].copy()
        if self._processed and batch_id != max(self._processed) + 1:
            raise ValueError(
                f"hub index saw batch {batch_id} but last processed was "
                f"{max(self._processed)}; batches must arrive in order"
            )
        ops = OpCounts()
        for upd in batch:
            old_weight = self.graph.weight_or_none(upd.u, upd.v)
            self.graph.apply_update(upd)
            for state in self._states.values():
                state.process_update(upd, old_weight, ops)
        # All maintenance work is bound bookkeeping from the query's point of
        # view; fold the traffic into the hub_relaxations counter as well so
        # result tables can report it separately.
        ops.hub_relaxations += ops.relaxations
        self._processed[batch_id] = ops
        return ops.copy()

    # ------------------------------------------------------------------
    def ppsp_lower_bound(self, vertex: int, destination: int) -> float:
        """Landmark (ALT) lower bound on ``dist(vertex -> destination)``.

        From the triangle inequality ``dist(h,d) <= dist(h,v) + dist(v,d)``:
        ``dist(v,d) >= max_h (dist(h,d) - dist(h,v))``, clipped at zero.
        Only valid for additive shortest-path semirings (PPSP).
        """
        bound = 0.0
        for hub in self.hubs:
            hd = self.hub_state(hub, destination)
            hv = self.hub_state(hub, vertex)
            if hd == float("inf") or hv == float("inf"):
                continue
            gap = hd - hv
            if gap > bound:
                bound = gap
        return bound
