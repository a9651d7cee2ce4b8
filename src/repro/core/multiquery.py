"""Multi-query pairwise analytics (the paper's future work, Section III-A).

The paper's engine serves a single query; this extension serves a set of
pairwise queries over one evolving topology while sharing all shareable
work.  Two structural facts make sharing natural:

* the triangle-inequality tests (does this addition improve ``v``?  does
  this deletion supply ``v``?) depend only on the *source*'s converged
  state array — so queries sharing a source share classification,
  propagation and repair entirely;
* only the delayed/non-delayed split of valuable deletions depends on the
  *destination* (its key path), so a source group keeps one key-path
  tracker per destination and a deletion is non-delayed if it carries the
  answer of *any* of them.

Queries are grouped by source; each :class:`SourceGroup` maintains one
:class:`~repro.incremental.IncrementalState` and runs the paper's
per-batch workflow — classify, valuable additions, scheduled deletions
with the delayed-promotion pass (against every destination's key path,
which keeps all early answers exact), drain.  That workflow exists only
here: the single-query engine is the one-destination case, and the
accelerator model times the same steps over a one-destination group.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Sequence, Set

from repro.algorithms.base import MonotonicAlgorithm
from repro.core.classification import (
    ClassifiedBatch,
    KeyPathRule,
    carries_answer,
    classify_batch,
)
from repro.core.keypath import KeyPathTracker
from repro.core.scheduler import UpdateScheduler
from repro.errors import DuplicateQueryError
from repro.graph.batch import EdgeUpdate, UpdateBatch
from repro.graph.dynamic import DynamicGraph
from repro.incremental import IncrementalState
from repro.metrics import OpCounts
from repro.obs.telemetry import Telemetry
from repro.query import PairwiseQuery

_NO_SPAN = nullcontext()


@dataclass
class MultiBatchResult:
    """Per-batch outcome across all queries."""

    answers: Dict[PairwiseQuery, float]
    response_ops: OpCounts = field(default_factory=OpCounts)
    post_ops: OpCounts = field(default_factory=OpCounts)
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def total_ops(self) -> OpCounts:
        return self.response_ops + self.post_ops


@dataclass
class BatchObserver:
    """What a caller wants to *see* of one :meth:`SourceGroup.process_batch`.

    Purely out-parameters: the group fills them in and opens its phase
    spans on ``telemetry`` (stamped ``engine=``); nothing here changes
    what the group computes.
    :class:`~repro.core.engine.CISGraphEngine` passes one per batch (it
    reports activation waves and the early answer); the serve layer's
    shard and anchor callers pass none.
    """

    telemetry: Optional[Telemetry] = None
    engine: str = ""
    classified: Optional[ClassifiedBatch] = None
    #: per-destination answers when the response window closed (pre-drain)
    response_answers: Dict[int, float] = field(default_factory=dict)
    activated_add: Set[int] = field(default_factory=set)
    #: deletion activations before the answer was emitted (Figure 5b)
    activated_del_response: Set[int] = field(default_factory=set)
    #: all deletion activations, response and drain
    activated_del: Set[int] = field(default_factory=set)


def _phase_span(observer: Optional[BatchObserver], name: str, **attributes):
    """The observer's telemetry span for one workflow phase, or a no-op."""
    if observer is None or observer.telemetry is None:
        return _NO_SPAN
    return observer.telemetry.span(name, engine=observer.engine, **attributes)


class SourceGroup:
    """All queries sharing one source: one state array, many key paths.

    The only implementation of the contribution-aware workflow
    (:meth:`process_batch`): :class:`MultiQueryEngine` drives one group per
    source, :class:`~repro.core.engine.CISGraphEngine` *is* a group with a
    single destination, and the serve layer (:mod:`repro.serve`) shards
    standing sessions along source groups.  The accelerator model
    (:class:`~repro.hw.accelerator.CISGraphAccelerator`) holds a
    one-destination group too: it runs the same steps (:meth:`classify`,
    the repair and relaxation kernels on :attr:`state`,
    :meth:`rebuild_keypaths`, :meth:`carries_answer`) in its own timing
    order instead of :meth:`process_batch`'s.  Destinations can be attached
    and detached at runtime (:meth:`add_destination` /
    :meth:`remove_destination`) so standing queries can register and
    deregister against a live group.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        source: int,
        destinations: Sequence[int],
        rule: KeyPathRule,
    ) -> None:
        self.source = source
        self.destinations = list(destinations)
        self.rule = rule
        self.state = IncrementalState(graph, algorithm, source)
        self.keypaths = {
            d: KeyPathTracker(source, d) for d in self.destinations
        }
        self.algorithm = algorithm

    # ------------------------------------------------------------------
    def initialize(self, ops: OpCounts) -> None:
        self.state.full_compute(ops)
        self.rebuild_keypaths()

    def rebuild_keypaths(self) -> None:
        for tracker in self.keypaths.values():
            tracker.rebuild(self.state.parents)

    def answer(self, destination: int) -> float:
        return self.state.states[destination]

    def add_destination(self, destination: int) -> None:
        """Attach a destination to the group (idempotent, O(key path)).

        The shared state array is keyed by the source only, so a late
        destination costs exactly one key-path rebuild — no propagation.
        """
        if destination in self.keypaths:
            return
        self.destinations.append(destination)
        tracker = KeyPathTracker(self.source, destination)
        tracker.rebuild(self.state.parents)
        self.keypaths[destination] = tracker

    def remove_destination(self, destination: int) -> bool:
        """Detach a destination; returns True when the group is now empty."""
        if destination in self.keypaths:
            del self.keypaths[destination]
            self.destinations.remove(destination)
        return not self.keypaths

    # ------------------------------------------------------------------
    def classify(self, updates) -> ClassifiedBatch:
        state = self.state
        return classify_batch(
            self.algorithm, state.states, state.parents,
            self.keypaths.values(), updates, self.rule,
        )

    def carries_answer(self, upd: EdgeUpdate) -> bool:
        """Does a buffered delayed deletion now carry some answer?"""
        return carries_answer(
            self.rule, self.keypaths.values(), self.state.parents, upd
        )

    def classify_sample(
        self, effective: UpdateBatch, limit: int
    ) -> List[Dict[str, object]]:
        """Triangle-inequality verdicts for the first ``limit`` updates.

        The provenance probe (:mod:`repro.obs.provenance`): classifies the
        sample through the same kernel :meth:`process_batch` will run,
        against the *current* (pre-batch) converged states, without
        mutating anything — call it before processing and the verdicts
        match the batch's real classification exactly.
        """
        sample = list(islice(effective, max(0, limit)))
        classified = self.classify(sample)
        verdicts = {
            id(upd): verdict
            for verdict, bucket in (
                ("valuable", classified.valuable_additions),
                ("nondelayed", classified.nondelayed_deletions),
                ("delayed", classified.delayed_deletions),
            )
            for upd in bucket
        }
        states = self.state.states
        out: List[Dict[str, object]] = []
        for upd in sample:
            verdict = verdicts.get(id(upd), "useless")
            if upd.is_addition:
                test = "improves"
            elif verdict == "useless":
                test = "supplies"
            else:
                test = "supplies+keypath"
            out.append({
                "kind": "add" if upd.is_addition else "delete",
                "u": upd.u,
                "v": upd.v,
                "weight": upd.weight,
                "state_u": states[upd.u],
                "state_v": states[upd.v],
                "test": test,
                "verdict": verdict,
            })
        return out

    def process_batch(
        self,
        effective: UpdateBatch,
        response: OpCounts,
        post: OpCounts,
        observer: Optional[BatchObserver] = None,
    ) -> Dict[str, int]:
        """Contribution-aware processing of a net batch already applied
        to the topology; returns the classification counts.

        Work done before every destination's answer is final is charged
        to ``response``, the delayed drain to ``post``.
        """
        state = self.state
        add_wave = del_wave = drain_wave = None
        if observer is not None:
            add_wave = observer.activated_add
            del_wave = observer.activated_del_response

        # classification against the previous converged states
        with _phase_span(observer, "engine.classify") as classify_span:
            classified = self.classify(effective)
            if classify_span is not None:
                classify_span.set(
                    valuable=classified.num_valuable,
                    delayed=classified.num_delayed,
                    useless=classified.num_useless,
                )
        response += classified.ops

        # valuable additions (the paper finishes all of them first)
        with _phase_span(observer, "engine.propagate", phase="additions"):
            additions = classified.valuable_additions
            state.process_additions(
                [(upd.u, upd.v, upd.weight) for upd in additions],
                response, add_wave,
            )
            response.updates_processed += len(additions)
            self.rebuild_keypaths()

        # deletion phase through the priority buffer
        with _phase_span(observer, "engine.schedule"):
            scheduler = UpdateScheduler()
            for upd in classified.nondelayed_deletions:
                scheduler.push_valuable(upd)
            scheduler.extend_delayed(classified.delayed_deletions)

        with _phase_span(observer, "engine.propagate", phase="deletions"):
            while True:
                while not scheduler.answer_ready:
                    item = scheduler.pop()
                    assert item is not None
                    if state.process_deletion(
                        item.update.u, item.update.v, response,
                        activated=del_wave,
                    ):
                        self.rebuild_keypaths()
                    response.updates_processed += 1
                # Repairs may have rerouted a key path through a deletion
                # we originally delayed; promote and keep going until
                # stable so every early answer is safe.
                if scheduler.promote_delayed(self.carries_answer) == 0:
                    break

        # the response window closes for every destination of this group:
        # remaining delayed repairs cannot touch any key path
        if observer is not None:
            observer.classified = classified
            observer.response_answers = {
                d: state.states[d] for d in self.destinations
            }
            observer.activated_del |= observer.activated_del_response
            drain_wave = observer.activated_del

        # drain delayed deletions in the background (post work), restoring
        # full convergence for the next batch's classification
        with _phase_span(observer, "engine.drain"):
            pairs = [(item.update.u, item.update.v) for item in scheduler.drain()]
            state.process_deletions(pairs, post, drain_wave)
            post.updates_processed += len(pairs)
            self.rebuild_keypaths()
        return {
            "valuable_additions": len(classified.valuable_additions),
            "nondelayed_deletions": len(classified.nondelayed_deletions),
            "delayed_deletions": len(classified.delayed_deletions),
            "useless": len(classified.useless),
        }


class MultiQueryEngine:
    """Contribution-aware engine serving many pairwise queries at once."""

    name = "cisgraph-multi"

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        queries: Sequence[PairwiseQuery],
        rule: KeyPathRule = KeyPathRule.PRECISE,
        dedupe: bool = False,
    ) -> None:
        if not queries:
            raise ValueError("need at least one query")
        # The answer maps are keyed by query, so a duplicate registration
        # would silently collapse onto one entry while ``queries`` kept
        # both — either dedupe explicitly or fail with a typed error.
        accepted: List[PairwiseQuery] = []
        seen = set()
        for query in queries:
            query.validate(graph.num_vertices)
            if query in seen:
                if dedupe:
                    continue
                raise DuplicateQueryError(query)
            seen.add(query)
            accepted.append(query)
        self.graph = graph
        self.algorithm = algorithm
        self.queries = accepted
        self.init_ops = OpCounts()
        by_source: Dict[int, List[int]] = {}
        for query in accepted:
            by_source.setdefault(query.source, []).append(query.destination)
        self._groups = {
            source: SourceGroup(graph, algorithm, source, dests, rule)
            for source, dests in by_source.items()
        }
        self._initialized = False

    @property
    def num_groups(self) -> int:
        """Source groups actually maintained (the sharing factor)."""
        return len(self._groups)

    # ------------------------------------------------------------------
    def initialize(self) -> Dict[PairwiseQuery, float]:
        for group in self._groups.values():
            group.initialize(self.init_ops)
        self._initialized = True
        return self.answers

    @property
    def answers(self) -> Dict[PairwiseQuery, float]:
        return {
            query: self._groups[query.source].answer(query.destination)
            for query in self.queries
        }

    def on_batch(self, batch: UpdateBatch) -> MultiBatchResult:
        if not self._initialized:
            raise RuntimeError("initialize() must run before on_batch()")
        response = OpCounts()
        post = OpCounts()

        effective = self.graph.apply_net(batch)

        stats: Dict[str, float] = {
            "groups": float(len(self._groups)),
            "queries": float(len(self.queries)),
        }
        totals: Dict[str, int] = {}
        for group in self._groups.values():
            group_stats = group.process_batch(effective, response, post)
            for key, value in group_stats.items():
                totals[key] = totals.get(key, 0) + value
        stats.update({k: float(v) for k, v in totals.items()})
        return MultiBatchResult(
            answers=self.answers,
            response_ops=response,
            post_ops=post,
            stats=stats,
        )
