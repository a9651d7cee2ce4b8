"""Coalescing incremental engine (TDGraph / JetStream style).

The hardware systems the paper builds on (Section II-A) accelerate
one-to-all streaming analytics by *coalescing*: updates and activations
targeting the same vertex are merged before propagation, so a vertex is
broadcast once per wave instead of once per triggering update.  This
engine is the software analogue and completes the baseline spectrum
between the per-update plain engine and the contribution-aware CISGraph-O:

* **additions**: the whole batch is applied, every added edge is relaxed,
  and all improved targets seed a single deduplicated worklist — one
  coalesced wave instead of one wave per update;
* **deletions**: all supplying deletions are collected, their dependence
  subtrees are tagged and reset *together*, every reset vertex is
  re-derived once, and a single wave re-converges — merging the repair
  work that overlapping subtrees would otherwise repeat.

No contribution classification happens: like the systems it models, the
engine processes every update, so its response time still pays for the
useless ones.
"""

from __future__ import annotations

from typing import Set

from repro import kernels
from repro.algorithms.base import MonotonicAlgorithm
from repro.engine import PairwiseEngine
from repro.graph.batch import UpdateBatch
from repro.graph.dynamic import DynamicGraph
from repro.incremental import IncrementalState
from repro.metrics import BatchResult, OpCounts
from repro.query import PairwiseQuery


class CoalescingEngine(PairwiseEngine):
    """Batch-coalesced incremental processing without classification."""

    name = "coalescing"

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        query: PairwiseQuery,
    ) -> None:
        super().__init__(graph, algorithm, query)
        self.state = IncrementalState(graph, algorithm, query.source)
        self._relax = kernels.compiled(algorithm).relax

    def _do_initialize(self) -> None:
        self.state.full_compute(self.init_ops)

    @property
    def answer(self) -> float:
        return self.state.states[self.query.destination]

    # ------------------------------------------------------------------
    def _do_batch(self, batch: UpdateBatch) -> BatchResult:
        ops = OpCounts()
        state = self.state

        effective = self.graph.apply_net(batch)
        ops.updates_processed += len(effective)

        # ---- coalesced deletion repair first: collect every supplying
        # deletion, tag the union of their dependence subtrees once.
        roots = [
            upd.v
            for upd in effective
            if upd.is_deletion and state.parents[upd.v] == upd.u
        ]
        ops.tag_ops += sum(1 for upd in effective if upd.is_deletion)
        tagged, _, rederived = state.repair_subtrees(roots, ops)
        seeds: Set[int] = set(rederived)

        # ---- coalesced additions: relax every added edge, merge improved
        # targets into the same single wave.
        added = [upd for upd in effective if upd.is_addition]
        improved = [
            head
            for upd in added
            for head in self._relax(
                self.algorithm, state.states, state.parents, upd.u,
                ((upd.v, upd.weight),),
            )
        ]
        ops.relaxations += len(added)
        ops.state_reads += 2 * len(added)
        ops.state_writes += len(improved)
        ops.activations += len(improved)
        seeds.update(improved)

        state.propagate(sorted(seeds), ops)
        return BatchResult(
            answer=self.answer,
            response_ops=ops,
            stats={"coalesced_seeds": len(seeds), "tagged": len(tagged)},
        )
