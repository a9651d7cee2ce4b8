"""CISGraph-O: the contribution-aware software engine (Section III-A).

The engine augments incremental computation with the paper's workflow:

1. apply the batch's *net* topology effect to the snapshot;
2. classify every update against the previous converged state array using
   the triangle-inequality tests (Algorithm 1) — O(1) per update, no
   traversal;
3. process valuable additions (always monotone-safe), then non-delayed
   valuable deletions preemptively, re-checking buffered delayed deletions
   against the key path after every repair;
4. emit the answer as soon as no non-delayed update remains — this closes
   the *response* window;
5. drain delayed deletions afterwards (*post* work), restoring the fully
   converged state array the next batch's classification relies on.

Useless updates are dropped in step 2 and never touch the propagation
machinery — the paper's headline computation reduction.

Step 1 happens here, as one :meth:`DynamicGraph.apply_net` call that
reduces the batch and applies it in the same loop; steps 2-5 are
:meth:`repro.core.multiquery.SourceGroup.process_batch`, shared with the
multi-query engine and the serve layer.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.algorithms.base import MonotonicAlgorithm
from repro.core.classification import ClassifiedBatch, KeyPathRule
from repro.core.keypath import KeyPathTracker
from repro.core.multiquery import BatchObserver, SourceGroup
from repro.engine import PairwiseEngine
from repro.graph.batch import UpdateBatch
# unused here; perfbench's tracer self-test rebinds this by-name import
from repro.graph.batch import net_effects  # noqa: F401
from repro.graph.dynamic import DynamicGraph
from repro.incremental import IncrementalState
from repro.metrics import BatchResult, OpCounts
from repro.query import PairwiseQuery


class CISGraphEngine(PairwiseEngine):
    """Contribution-driven pairwise engine (CISGraph-O in the paper).

    A single query is a source group with one destination: steps 2-5 of
    the workflow run in :meth:`SourceGroup.process_batch`, the one
    implementation every engine shares, and this class adds what only a
    single-query caller reports — the activation waves of Figure 5b, the
    answer observed when the response window closed, and the phase spans.
    """

    name = "cisgraph-o"

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        query: PairwiseQuery,
        rule: KeyPathRule = KeyPathRule.PRECISE,
    ) -> None:
        super().__init__(graph, algorithm, query)
        self.rule = rule
        self._group = SourceGroup(
            graph, algorithm, query.source, [query.destination], rule
        )
        #: classification summary of the last processed batch
        self.last_classified: Optional[ClassifiedBatch] = None
        #: vertices activated by additions / deletions in the last batch;
        #: the ``_response`` variant counts only deletion activations that
        #: happened before the answer was emitted (Figure 5b's metric)
        self.last_activated_add: Set[int] = set()
        self.last_activated_del: Set[int] = set()
        self.last_activated_del_response: Set[int] = set()
        #: answer observed when the response window closed (before drain)
        self.last_response_answer: float = algorithm.identity()

    # ------------------------------------------------------------------
    @property
    def state(self) -> IncrementalState:
        """Converged state array and dependence tree of the query's source."""
        return self._group.state

    @property
    def keypath(self) -> KeyPathTracker:
        """The query's global key path."""
        return self._group.keypaths[self.query.destination]

    @property
    def answer(self) -> float:
        return self._group.answer(self.query.destination)

    def _do_initialize(self) -> None:
        self._group.initialize(self.init_ops)

    def adopt_state(self, states: List[float], parents: List[int]) -> float:
        """Install a converged state computed elsewhere instead of solving
        it (checkpoint restore, the guard's fallback, serve resume);
        ``self.graph`` must already hold the topology it was computed for.
        Returns the answer."""
        state = self._group.state
        state.states = list(states)
        state.parents = list(parents)
        state.suppressed.clear()
        self._group.rebuild_keypaths()
        self._initialized = True
        return self.answer

    # ------------------------------------------------------------------
    def _do_batch(self, batch: UpdateBatch) -> BatchResult:
        response = OpCounts()
        post = OpCounts()
        graph = self.graph

        # net topology effect, applied before any processing so that
        # propagation and repair always traverse the new snapshot
        effective = graph.apply_net(batch)

        seen = BatchObserver(telemetry=self.telemetry, engine=self.name)
        self._group.process_batch(effective, response, post, seen)

        self.last_classified = seen.classified
        self.last_response_answer = seen.response_answers[self.query.destination]
        self.last_activated_add = seen.activated_add
        self.last_activated_del = seen.activated_del
        self.last_activated_del_response = seen.activated_del_response
        summary = seen.classified.summary()
        summary["activated_by_additions"] = len(seen.activated_add)
        summary["activated_by_deletions"] = len(seen.activated_del)
        summary["activated_by_deletions_response"] = len(
            seen.activated_del_response
        )
        summary["keypath_hops"] = self.keypath.length()
        return BatchResult(
            answer=self.answer,
            response_ops=response,
            post_ops=post,
            stats=summary,
        )

    # ------------------------------------------------------------------
    def retarget(self, destination: int) -> float:
        """Switch the query to a new destination (same source); returns
        the new answer immediately.

        The converged state array is keyed by the source only, so changing
        the destination costs one key-path rebuild — the cheap direction of
        pairwise re-querying.  (A new *source* requires a new engine.)
        """
        new_query = PairwiseQuery(self.query.source, destination)
        new_query.validate(self.graph.num_vertices)
        self._group.add_destination(destination)
        if destination != self.query.destination:
            self._group.remove_destination(self.query.destination)
        self.query = new_query
        return self.answer
