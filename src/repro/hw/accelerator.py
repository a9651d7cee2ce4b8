"""Cycle-resolution simulator of the CISGraph accelerator (Section III-B).

The simulator is a *timing* layer over the functional workflow of
:class:`~repro.core.engine.CISGraphEngine`: it holds a one-destination
:class:`~repro.core.multiquery.SourceGroup` (state and parent arrays, key
path, classification, the promotion predicate) and runs the per-edge work
through the loops of :mod:`repro.kernels`, while it decides *when* each
step happens:

* **Identification**: the batch streams through ``pipelines`` identification
  units (update ``u -> v`` goes to pipeline ``v mod P``, one update issued
  per cycle per pipeline).  Each update's ``state[u]``/``state[v]`` are
  fetched through the SPM by the state prefetcher before the one-cycle
  triangle-inequality check.  Useless updates die here.
* **Scheduling**: valuable updates enter the output buffer with the cycle at
  which identification finished; non-delayed deletions take priority and
  the answer is emitted once no non-delayed work remains.
* **Propagation**: a pool of ``propagate_units`` pops ready work (activated
  vertices are assigned by ``id mod Q``), fetches CSR edge lists with one
  burst per vertex (neighbor prefetcher), relaxes one out-neighbor per
  cycle, and appends activations to the global buffer.  Deletion repair
  runs the shared repair kernel and replays its timing in the kernel's
  order: the tag walk over forward edge lists, the resets, and the
  re-derivation over reverse edge lists.

The memory layout of each snapshot is two degree prefix sums
(:class:`~repro.hw.layout.MemoryLayout`); the state region keeps its
addresses across batches and the edge-list regions are invalidated in the
SPM.  The answers are exact because the functional steps are the software
engine's own; the timing layer adds SPM/DRAM contention and unit
occupancy, producing the response/total cycle counts used in Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import kernels
from repro.algorithms.base import MonotonicAlgorithm
from repro.core.classification import ClassifiedBatch, KeyPathRule
from repro.core.keypath import KeyPathTracker
from repro.core.multiquery import SourceGroup
from repro.engine import PairwiseEngine
from repro.graph.batch import EdgeUpdate, UpdateBatch
from repro.graph.dynamic import DynamicGraph
from repro.hw.config import AcceleratorConfig
from repro.hw.dram import DramModel, DramStats
from repro.hw.layout import MemoryLayout
from repro.hw.prefetcher import (
    NeighborPrefetcher,
    PrefetcherStats,
    StatePrefetcher,
)
from repro.hw.sim import ReadyQueue, Resource
from repro.hw.trace import TraceRecorder
from repro.obs.bridge import record_hw_stats, record_trace_recorder
from repro.hw.spm import ScratchpadMemory, SpmStats
from repro.metrics import BatchResult, OpCounts
from repro.query import PairwiseQuery


@dataclass
class HwBatchStats:
    """Per-batch accelerator telemetry."""

    identify_cycles: int = 0
    addition_phase_end: int = 0
    response_cycles: int = 0
    total_cycles: int = 0
    relaxations: int = 0
    activations: int = 0
    repairs: int = 0
    promoted: int = 0
    buffer_peak: int = 0
    spm: SpmStats = field(default_factory=SpmStats)
    dram: DramStats = field(default_factory=DramStats)
    state_prefetch: PrefetcherStats = field(default_factory=PrefetcherStats)
    neighbor_prefetch: PrefetcherStats = field(default_factory=PrefetcherStats)
    classification: Dict[str, float] = field(default_factory=dict)


class CISGraphAccelerator(PairwiseEngine):
    """Hardware CISGraph: contribution-aware workflow with timed pipelines."""

    name = "cisgraph"

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        query: PairwiseQuery,
        config: Optional[AcceleratorConfig] = None,
        rule: KeyPathRule = KeyPathRule.PRECISE,
        trace: bool = False,
    ) -> None:
        super().__init__(graph, algorithm, query)
        self.config = config or AcceleratorConfig()
        self.rule = rule
        #: per-batch execution trace (None unless trace=True)
        self.tracer: Optional[TraceRecorder] = TraceRecorder() if trace else None
        self._group = SourceGroup(
            graph, algorithm, query.source, [query.destination], rule
        )
        self._relax = kernels.compiled(algorithm).relax
        self.last_stats: Optional[HwBatchStats] = None
        # per-batch timing machinery, rebuilt at the top of _do_batch
        self._spm: Optional[ScratchpadMemory] = None
        self._dram: Optional[DramModel] = None
        self._units: List[Resource] = []
        self._id_state_pf: List[StatePrefetcher] = []
        self._unit_state_pf: List[StatePrefetcher] = []
        self._unit_nbr_pf: List[NeighborPrefetcher] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _do_initialize(self) -> None:
        self._group.initialize(self.init_ops)

    @property
    def states(self) -> List[float]:
        """The converged state array (the source group's)."""
        return self._group.state.states

    @property
    def parents(self) -> List[int]:
        """The dependence tree (the source group's)."""
        return self._group.state.parents

    @property
    def keypath(self) -> KeyPathTracker:
        """The query's global key path."""
        return self._group.keypaths[self.query.destination]

    @property
    def answer(self) -> float:
        return self._group.answer(self.query.destination)

    # ------------------------------------------------------------------
    # batch processing
    # ------------------------------------------------------------------
    def _do_batch(self, batch: UpdateBatch) -> BatchResult:
        stats = HwBatchStats()
        group = self._group
        if self.tracer is not None:
            self.tracer.clear()

        # -- snapshot generation: apply the net topology effect; the new
        # layout is two degree prefix sums over the updated adjacency.
        effective = self.graph.apply_net(batch)
        layout = MemoryLayout(self.graph)
        if self._spm is None or self._dram is None:
            self._dram = DramModel(self.config.dram)
            self._spm = ScratchpadMemory(self.config.spm, self._dram)
        else:
            # the state region keeps stable addresses across batches (SPM
            # reuse, Section III-B); the CSR regions are laid out anew from
            # the new degrees, so their cached lines are stale and must be
            # invalidated.
            self._spm.invalidate_from(layout.indptr_base)
            self._dram.reset_stats()
            self._dram.reset_timing()
            self._spm.reset_timing()
            self._spm.stats = SpmStats()
        self._units = [
            Resource(f"propagate-unit-{i}")
            for i in range(self.config.propagate_units)
        ]
        # decoupled prefetchers (Section III-B): one state prefetcher per
        # identification pipeline, one state+neighbor pair per propagation
        # unit (propagation reuses the prefetcher hardware).
        self._id_state_pf = [
            StatePrefetcher(self._spm, layout)
            for _ in range(self.config.pipelines)
        ]
        self._unit_state_pf = [
            StatePrefetcher(self._spm, layout)
            for _ in range(self.config.propagate_units)
        ]
        self._unit_nbr_pf = [
            NeighborPrefetcher(self._spm, layout)
            for _ in range(self.config.propagate_units)
        ]

        # -- identification: stream the batch through the pipelines.
        classified, ready_times, identify_end = self._identify(effective)
        stats.identify_cycles = identify_end
        stats.classification = classified.summary()

        # -- valuable additions (finished before deletions start).
        heap = ReadyQueue()
        for upd in classified.valuable_additions:
            heap.push(ready_times[id(upd)], ("add", (upd.u, upd.v, upd.weight)))
        additions_end = self._run(heap, stats)
        stats.addition_phase_end = additions_end
        group.rebuild_keypaths()

        # -- non-delayed deletions, preemptively; delayed buffered.
        pending_delayed: List[EdgeUpdate] = list(classified.delayed_deletions)
        for upd in classified.nondelayed_deletions:
            ready = max(ready_times[id(upd)], additions_end)
            heap.push(ready, ("del", (upd.u, upd.v)))
        response_end = max(self._run(heap, stats), additions_end, identify_end)

        # promotion loop: repairs may pull a delayed deletion onto the key
        # path; the answer waits until no such deletion remains.
        while True:
            group.rebuild_keypaths()
            promoted = [
                upd for upd in pending_delayed if group.carries_answer(upd)
            ]
            if not promoted:
                break
            stats.promoted += len(promoted)
            promoted_ids = {id(u) for u in promoted}
            pending_delayed = [
                u for u in pending_delayed if id(u) not in promoted_ids
            ]
            for upd in promoted:
                ready = max(ready_times[id(upd)], response_end)
                heap.push(ready, ("del", (upd.u, upd.v)))
            response_end = max(self._run(heap, stats), response_end)

        stats.response_cycles = response_end
        response_answer = self.answer

        # -- delayed deletions drain in the background.
        for upd in pending_delayed:
            ready = max(ready_times[id(upd)], response_end)
            heap.push(ready, ("del", (upd.u, upd.v)))
        total_end = max(self._run(heap, stats), response_end)
        stats.total_cycles = total_end
        group.rebuild_keypaths()

        assert self._spm is not None and self._dram is not None
        stats.spm = self._spm.stats
        stats.dram = self._dram.stats
        for pf in self._id_state_pf + self._unit_state_pf:
            stats.state_prefetch.requests += pf.stats.requests
            stats.state_prefetch.bytes_requested += pf.stats.bytes_requested
            stats.state_prefetch.stall_cycles += pf.stats.stall_cycles
        for nf in self._unit_nbr_pf:
            stats.neighbor_prefetch.requests += nf.stats.requests
            stats.neighbor_prefetch.bytes_requested += nf.stats.bytes_requested
            stats.neighbor_prefetch.stall_cycles += nf.stats.stall_cycles
        self.last_stats = stats

        if self.telemetry is not None:
            # same registry/format as the software engines, so a simulated
            # run and a software run are comparable in one export
            record_hw_stats(self.telemetry.registry, stats)
            if self.tracer is not None:
                record_trace_recorder(self.telemetry.registry, self.tracer)

        result_stats = dict(stats.classification)
        result_stats.update(
            response_cycles=stats.response_cycles,
            total_cycles=stats.total_cycles,
            identify_cycles=stats.identify_cycles,
            relaxations=stats.relaxations,
            activations=stats.activations,
            repairs=stats.repairs,
            promoted=stats.promoted,
            buffer_peak=stats.buffer_peak,
            spm_hit_rate=stats.spm.hit_rate,
            dram_row_hit_rate=stats.dram.row_hit_rate,
            response_answer=response_answer,
        )
        response_ops = OpCounts(
            relaxations=stats.relaxations,
            activations=stats.activations,
            classification_checks=len(effective),
        )
        return BatchResult(
            answer=self.answer, response_ops=response_ops, stats=result_stats
        )

    # ------------------------------------------------------------------
    # identification phase
    # ------------------------------------------------------------------
    def _identify(
        self, batch: UpdateBatch
    ) -> Tuple[ClassifiedBatch, Dict[int, int], int]:
        """Stream all updates through the identification pipelines.

        Returns the functional classification, a map from update identity to
        the cycle its identification completed, and the cycle the whole
        phase drained.
        """
        cfg = self.config
        classified = self._group.classify(batch)
        pipe_free = [0] * cfg.pipelines
        ready: Dict[int, int] = {}
        phase_end = 0
        for upd in batch:
            pipe = upd.v % cfg.pipelines
            issue = pipe_free[pipe]
            pipe_free[pipe] = issue + 1  # one update per cycle per pipeline
            done_u = self._id_state_pf[pipe].fetch_state(upd.u, now=issue)
            done_v = self._id_state_pf[pipe].fetch_state(upd.v, now=issue)
            done = max(done_u, done_v) + cfg.identify_latency
            if self.tracer is not None:
                self.tracer.record(issue, "identify", pipe, "issue", upd.v)
            ready[id(upd)] = done
            if done > phase_end:
                phase_end = done
        return classified, ready, phase_end

    # ------------------------------------------------------------------
    # propagation engine
    # ------------------------------------------------------------------
    def _unit_index(self, item: Tuple[str, tuple]) -> int:
        kind, payload = item
        vertex = payload[1] if kind != "vertex" else payload[0]
        return vertex % self.config.propagate_units

    def _run(self, heap: ReadyQueue, stats: HwBatchStats) -> int:
        """Drain the work queue; returns the completion cycle of the drain.

        Items execute in near-chronological start order: an item whose
        propagation unit is busy past another item's readiness is re-keyed
        at its actual start time (see :meth:`ReadyQueue.pop_or_requeue`),
        so shared-memory contention is resolved fairly.
        """
        last_done = 0
        while heap:
            if len(heap) > stats.buffer_peak:
                stats.buffer_peak = len(heap)
            popped = heap.pop_or_requeue(
                lambda item: self._units[self._unit_index(item)].next_free
            )
            if popped is None:
                continue
            start, (kind, payload) = popped
            unit = self._unit_index((kind, payload))
            if kind == "add":
                done = self._exec_addition(heap, unit, start, payload, stats)
            elif kind == "del":
                done = self._exec_deletion(heap, unit, start, payload, stats)
            else:
                done = self._exec_vertex(heap, unit, start, payload[0], stats)
            if done > last_done:
                last_done = done
        return last_done

    def _exec_addition(
        self, heap: ReadyQueue, unit: int, start: int, payload: tuple, stats: HwBatchStats
    ) -> int:
        """Relax a valuable added edge; activate its target on improvement."""
        u, v, weight = payload
        state = self._group.state
        if self.tracer is not None:
            self.tracer.record(start, "addition", unit, "start", v)
        # operand states were prefetched at identification; re-read u (it may
        # have improved since) and apply one relaxation.
        t = self._unit_state_pf[unit].fetch_state(u, now=start)
        t += self.config.compute_latency
        stats.relaxations += 1
        improved = self._relax(
            self.algorithm, state.states, state.parents, u, ((v, weight),)
        )
        self._units[unit].occupy_until(t)
        if improved:
            stats.activations += 1
            t = self._unit_state_pf[unit].fetch_state(v, now=t, write=True)
            heap.push(t, ("vertex", (v,)))
        return t

    def _exec_vertex(
        self, heap: ReadyQueue, unit: int, start: int, v: int, stats: HwBatchStats
    ) -> int:
        """Broadcast vertex ``v``'s state to its out-neighbors.

        One indptr access sizes the request, one burst fetches the packed
        edge list, then one neighbor is relaxed per cycle (Section III-B's
        two-step propagate: compute candidate, select against previous).
        The relaxation runs first, in the shared kernel; the walk below
        times it edge by edge.
        """
        state = self._group.state
        if self.tracer is not None:
            self.tracer.record(start, "vertex", unit, "start", v)
        t = self._unit_nbr_pf[unit].fetch_edge_list(v, now=start)
        adj = self.graph.out_adj(v)
        activated = set(
            self._relax(self.algorithm, state.states, state.parents, v, adj.items())
        )
        stats.relaxations += len(adj)
        fetch_state = self._unit_state_pf[unit].fetch_state
        latency = self.config.compute_latency
        done = t
        issue = t
        for x in adj:
            issue += latency
            read_done = fetch_state(x, now=issue)
            if x in activated:
                stats.activations += 1
                write_done = fetch_state(x, now=read_done, write=True)
                heap.push(write_done, ("vertex", (x,)))
                if self.tracer is not None:
                    self.tracer.record(write_done, "vertex", unit, "activate", x)
                read_done = write_done
            if read_done > done:
                done = read_done
        self._units[unit].occupy_until(issue)
        return done

    def _exec_deletion(
        self, heap: ReadyQueue, unit: int, start: int, payload: tuple, stats: HwBatchStats
    ) -> int:
        """Repair after a valuable deletion (KickStarter-style, timed).

        The shared repair kernel tags the dependence subtree, resets it and
        re-derives each member; the timing is replayed in its order: per
        tagged vertex one forward edge-list fetch and one cycle per scanned
        out-edge, one state write per member, then per member one reverse
        edge-list fetch and ``compute_latency`` per in-edge, and a state
        write plus an activation for each re-derived member.  A deletion
        whose target is supplied by another edge is a one-cycle no-op (the
        witness is intact).
        """
        u, v = payload
        state = self._group.state
        if self.tracer is not None:
            self.tracer.record(start, "deletion", unit, "start", v)
        if state.parents[v] != u:
            self._units[unit].occupy_until(start + 1)
            return start + 1
        stats.repairs += 1
        if self.tracer is not None:
            self.tracer.record(start, "deletion", unit, "repair", v)
        tagged, members, seeds = state.repair_subtrees((v,), OpCounts())
        out_adj, in_adj = self.graph.out_adj, self.graph.in_adj
        fetch_edge_list = self._unit_nbr_pf[unit].fetch_edge_list
        fetch_state = self._unit_state_pf[unit].fetch_state
        latency = self.config.compute_latency
        t = start
        for x in tagged:  # parent comparison, one per scanned edge
            t = fetch_edge_list(x, now=t) + len(out_adj(x))
        for x in members:
            t = fetch_state(x, now=t, write=True)
        derived = set(seeds)
        for x in members:
            in_degree = len(in_adj(x))
            t = fetch_edge_list(x, now=t, reverse=True) + latency * in_degree
            stats.relaxations += in_degree
            if x in derived:
                stats.activations += 1
                t = fetch_state(x, now=t, write=True)
                heap.push(t, ("vertex", (x,)))
        self._units[unit].occupy_until(t)
        return t
