"""SGraph baseline: bound-based activation pruning with hub maintenance.

SGraph (ASPLOS'23; Section II-B of the CISGraph paper) prunes vertex
activations whose state falls outside conservative bounds derived from a set
of hub vertices, and pays for it by keeping per-hub distance vectors fresh on
every batch.  The reproduction keeps the two sound pruning rules:

* **generic rule** (all five algorithms): suppress broadcasting a vertex
  whose new state is not strictly better than the current answer at the
  destination — since ``(+)`` is non-improving, no extension of that state
  can beat the answer;
* **landmark rule** (PPSP only): suppress when ``state[v] + LB(v, d)``
  cannot beat the answer, with ``LB`` the hub (ALT) lower bound.

:class:`PnPEngine` is the generic rule; :class:`SGraphEngine` adds the
landmark rule and the hub upkeep.  Pruning is *deferred*, not discarded:
suppressed vertices are flushed to full convergence before the batch's
first repair (a deletion or re-weight of a present edge worsens the answer,
which would invalidate prune decisions; pruning stops there) and at the end
of the batch, so the maintained state array is always converged at batch
boundaries.  See DESIGN.md section 5 for the soundness argument.
"""

from __future__ import annotations

import math
from typing import Optional, Set

from repro.algorithms.base import MonotonicAlgorithm
from repro.baselines.hubs import HubIndex
from repro.engine import PairwiseEngine
from repro.graph.batch import UpdateBatch
from repro.graph.dynamic import DynamicGraph
from repro.incremental import IncrementalState, PruneHook
from repro.metrics import BatchResult, OpCounts
from repro.query import PairwiseQuery


class PnPEngine(PairwiseEngine):
    """Upper-bound-only pruning (PnP): the generic rule, no hub upkeep."""

    name = "pnp"

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        query: PairwiseQuery,
    ) -> None:
        super().__init__(graph, algorithm, query)
        self.state = IncrementalState(graph, algorithm, query.source)

    # ------------------------------------------------------------------
    def _do_initialize(self) -> None:
        self.state.full_compute(self.init_ops)

    @property
    def answer(self) -> float:
        return self.state.states[self.query.destination]

    # ------------------------------------------------------------------
    def _prune(self, vertex: int, state: float) -> bool:
        """Sound suppression test; subclasses may strengthen it."""
        return not self.algorithm.is_better(state, self.answer)

    def _maintenance_ops(self, batch: UpdateBatch) -> OpCounts:
        """Per-batch bound bookkeeping (hub updates for SGraph)."""
        return OpCounts()

    # ------------------------------------------------------------------
    def _do_batch(self, batch: UpdateBatch) -> BatchResult:
        response = OpCounts()
        post = OpCounts()
        response += self._maintenance_ops(batch)

        activated: Set[int] = set()
        prune: Optional[PruneHook] = self._prune
        for upd in batch:
            response.updates_processed += 1
            old_weight = self.graph.weight_or_none(upd.u, upd.v)
            self.graph.apply_update(upd)
            if prune is not None and old_weight is not None and (
                upd.is_deletion or old_weight != upd.weight
            ):
                # A repair (a deletion, or a re-weight) worsens the answer,
                # invalidating earlier prune decisions: finish suppressed
                # convergence first and stop pruning for the batch.
                self.state.flush_suppressed(response, activated=activated)
                prune = None
            self.state.process_update(
                upd, old_weight, response, prune=prune, activated=activated
            )

        # Background completion of any remaining suppressed broadcasts so the
        # next batch starts from a converged array.
        self.state.flush_suppressed(post, activated=activated)
        return BatchResult(
            answer=self.answer,
            response_ops=response,
            post_ops=post,
            stats={"activated": len(activated)},
        )


class SGraphEngine(PnPEngine):
    """Hub-based upper/lower-bound pruning (SGraph)."""

    name = "sgraph"

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        query: PairwiseQuery,
        num_hubs: int = 16,
        hub_index: Optional[HubIndex] = None,
    ) -> None:
        super().__init__(graph, algorithm, query)
        self.num_hubs = num_hubs
        self._external_hub_index = hub_index
        self.hub_index: Optional[HubIndex] = hub_index
        self._batch_counter = 0
        self._use_landmark = algorithm.name == "ppsp"

    def _do_initialize(self) -> None:
        super()._do_initialize()
        if self.hub_index is None:
            self.hub_index = HubIndex(self.graph, self.algorithm, self.num_hubs)
            self.init_ops += self.hub_index.init_ops

    def _maintenance_ops(self, batch: UpdateBatch) -> OpCounts:
        assert self.hub_index is not None
        self._batch_counter += 1
        return self.hub_index.process_batch(self._batch_counter, batch)

    def _prune(self, vertex: int, state: float) -> bool:
        if super()._prune(vertex, state):
            return True
        answer = self.answer
        if self._use_landmark and answer != math.inf:
            assert self.hub_index is not None
            bound = self.hub_index.ppsp_lower_bound(vertex, self.query.destination)
            if state + bound >= answer:
                return True
        return False
