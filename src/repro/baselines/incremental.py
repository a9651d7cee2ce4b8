"""Plain contribution-independent incremental engine.

This is the workflow of existing streaming systems the paper's motivation
section measures (Figure 2): every update is processed sequentially, in
arrival order, with no classification — each addition relaxes and
broadcasts, each supplying deletion triggers the tagging + reset + repair
traversal.  Per-update attribution records how much work each individual
update caused and whether it ever moved the destination's state, which is
exactly the data behind the paper's useless-update/redundant-computation
breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.algorithms.base import MonotonicAlgorithm
from repro.engine import PairwiseEngine
from repro.graph.batch import EdgeUpdate, UpdateBatch
from repro.graph.dynamic import DynamicGraph
from repro.incremental import IncrementalState
from repro.metrics import BatchResult, OpCounts
from repro.query import PairwiseQuery


@dataclass
class UpdateRecord:
    """Per-update attribution from the plain engine.

    ``contributed`` means the update's processing wave changed the
    destination's state — the operational ground truth for "this update
    affected the result" in the Figure 2 breakdown.
    """

    update: EdgeUpdate
    ops: OpCounts = field(default_factory=OpCounts)
    contributed: bool = False
    changed_any_state: bool = False
    activated: int = 0


class PlainIncrementalEngine(PairwiseEngine):
    """Sequential, classification-free incremental processing."""

    name = "incremental"

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        query: PairwiseQuery,
        record_updates: bool = False,
        deletion_policy: str = "supplier",
    ) -> None:
        super().__init__(graph, algorithm, query)
        self.state = IncrementalState(graph, algorithm, query.source)
        self.record_updates = record_updates
        #: "supplier" = KickStarter-like dependence tagging;
        #: "reachable" = GraphFly-like conservative reset (Figure 2 setup)
        self.deletion_policy = deletion_policy
        #: per-update attribution of the last batch (when recording)
        self.last_records: List[UpdateRecord] = []

    def _do_initialize(self) -> None:
        self.state.full_compute(self.init_ops)

    @property
    def answer(self) -> float:
        return self.state.states[self.query.destination]

    def _do_batch(self, batch: UpdateBatch) -> BatchResult:
        response = OpCounts()
        records: List[UpdateRecord] = []
        destination = self.query.destination

        for upd in batch:
            ops = OpCounts()
            activated: Set[int] = set()
            before = self.state.states[destination]
            old_weight = self.graph.weight_or_none(upd.u, upd.v)
            self.graph.apply_update(upd)
            self.state.process_update(
                upd, old_weight, ops, activated=activated,
                policy=self.deletion_policy,
            )
            ops.updates_processed += 1
            if self.record_updates:
                records.append(
                    UpdateRecord(
                        update=upd,
                        ops=ops,
                        contributed=self.state.states[destination] != before,
                        changed_any_state=bool(activated) or ops.state_writes > 0,
                        activated=len(activated),
                    )
                )
            response += ops

        self.last_records = records
        stats = {}
        if records:
            useless = sum(1 for r in records if not r.contributed)
            stats["useless_updates"] = useless
            stats["useless_fraction"] = useless / len(records)
        return BatchResult(answer=self.answer, response_ops=response, stats=stats)
