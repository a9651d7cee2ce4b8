"""The sharded serve engine: one ingest thread, N shard workers.

:class:`ShardedServeEngine` is a :class:`~repro.core.engine.CISGraphEngine`
whose query is the **anchor**, so the whole resilience stack — WAL-first
commit, checkpoint cadence, differential guard, crash recovery — wraps it
unchanged via :meth:`repro.resilience.pipeline.ResilientPipeline.wrap`.

Topology and work are split as follows:

* the engine owns the **canonical graph** (the one the pipeline WALs and
  checkpoints) and the inherited one-destination source group — the
  anchor — processed inline on the ingest thread; the anchor is the
  durability surface: its ``state`` is what checkpoints capture, what
  the guard cross-checks and what
  :meth:`~repro.core.engine.CISGraphEngine.adopt_state` installs on
  resume;
* every shard worker owns the source groups of the standing sessions
  hashed to it (``source % num_shards``); a thread shard reads the
  canonical graph itself, a process child a replica of it;
* :meth:`on_batch` runs **drain → reduce + apply once → fan out →
  anchor → barrier**: it waits until every shard has retired what was
  submitted before the epoch, reduces the batch and applies it to the
  canonical graph in one :meth:`DynamicGraph.apply_net` call, fans the
  effective batch it returns to every shard, processes the anchor, and
  merges the shard outcomes for the epoch into one
  :class:`ServeBatchResult`.

The drain is the topology contract: a registration submitted ahead of
batch *k* has retired — bootstrapped on the pre-*k* topology — before
*k*'s delta is applied, and answers from *k* on.  The only reader that can
race a later apply is a worker already retired past ``epoch_deadline``,
whose outcome is never merged and whose reads answer None.

Converged state has one owner on the read path too: :meth:`lookup`
returns ``Q(s -> d)`` from whoever maintains ``s`` — the anchor group, or
the owning shard when it is alive and sealed at :attr:`epoch` — and None
otherwise, which is the result cache's cue to solve.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.algorithms.base import MonotonicAlgorithm
from repro.core.classification import KeyPathRule
from repro.core.engine import CISGraphEngine
from repro.engine import PairwiseEngine
from repro.errors import ShardCrashedError, ShardShutdownError
from repro.graph.batch import UpdateBatch
from repro.graph.dynamic import DynamicGraph
from repro.metrics import BatchResult, OpCounts
from repro.obs.provenance import ProvenanceRecorder
from repro.query import PairwiseQuery
from repro.serve.executor import ProcessShardWorker, resolve_backend
from repro.serve.shard import (
    FaultHook,
    ShardCore,
    ShardWorker,
    process_group,
)


@dataclass
class ServeBatchResult(BatchResult):
    """A :class:`~repro.metrics.BatchResult` plus the per-session answers.

    ``answer`` (inherited) is the anchor query's answer; ``answers`` maps
    every standing ``(source, destination)`` pair to its converged answer
    for this epoch; ``degraded`` lists sources whose shard-side group
    failed mid-batch (with the failure text).
    """

    answers: Dict[Tuple[int, int], float] = field(default_factory=dict)
    degraded: List[Tuple[int, str]] = field(default_factory=list)
    #: shards that produced no outcome this epoch (crashed or hung past
    #: the epoch deadline), with the failure text; only populated when the
    #: engine runs in tolerant mode (under a supervisor)
    failed_shards: List[Tuple[int, str]] = field(default_factory=list)
    epoch: int = 0


class ShardedServeEngine(CISGraphEngine):
    """CISGraph-O over the sharded worker pool.

    ``anchor`` is the pairwise query checkpointed and guarded on behalf of
    the whole serving session (see module docstring); standing sessions
    are attached afterwards through the shard workers.  The inherited
    ``last_*`` fields are CISGraph-O's single-query report: the anchor
    does not fill them.
    """

    name = "serve-sharded"
    # not inherited: perfbench traces CISGraphEngine.on_batch as core.engine
    on_batch = PairwiseEngine.on_batch

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        anchor: PairwiseQuery,
        num_shards: int = 2,
        rule: KeyPathRule = KeyPathRule.PRECISE,
        queue_bound: int = 64,
        fault_hook: Optional[FaultHook] = None,
        epoch_deadline: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        provenance: Optional[ProvenanceRecorder] = None,
        backend: str = "thread",
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if epoch_deadline <= 0:
            raise ValueError("epoch_deadline must be positive")
        super().__init__(graph, algorithm, anchor, rule)
        self.queue_bound = queue_bound
        self.fault_hook = fault_hook
        #: how long the epoch barrier waits for one shard's outcome; the
        #: watchdog deadline that turns a hung worker into a detected fault
        self.epoch_deadline = epoch_deadline
        self.clock = clock
        #: with a supervisor attached, a crashed/hung shard degrades its
        #: sources for the epoch instead of raising out of on_batch
        self.tolerate_shard_failures = False
        self.epoch = 0
        #: the last committed net batch (consumed by the result cache)
        self.last_effective: Optional[UpdateBatch] = None
        #: contribution-provenance store shared by the anchor (recorded
        #: under shard -1) and every worker; None disables recording
        self.provenance = provenance
        #: which executor runs the workers ("thread" default, "process"
        #: for real OS processes, each inheriting the canonical graph)
        self.backend = resolve_backend(backend)
        #: per-worker flight-ring spill files land here (process backend
        #: with telemetry); an engine-created tempdir is removed at close
        self._spill_root: Optional[str] = None
        self._spill_root_owned = False
        self.shards = [
            self._make_worker(index) for index in range(num_shards)
        ]
        #: replaced workers awaiting their final join at close()
        self.retired: List[ShardWorker] = []

    def _spill_dir(self) -> Optional[str]:
        """Where process children spill their flight rings (lazy).

        Prefers the telemetry flight directory (so CI jobs find the
        spill files next to the bundles they feed); otherwise an
        engine-owned tempdir removed at :meth:`close`.  None without
        telemetry — a child with no agent writes nothing.
        """
        if self.telemetry is None:
            return None
        if self._spill_root is None:
            flight_dir = self.telemetry.flight.directory
            if flight_dir is not None:
                self._spill_root = os.path.join(flight_dir, "workers")
            else:
                self._spill_root = tempfile.mkdtemp(prefix="repro-spill-")
                self._spill_root_owned = True
        return self._spill_root

    def _make_worker(self, index: int):
        if self.backend == "process":
            return ProcessShardWorker(
                index,
                self.graph,
                self.algorithm,
                rule=self.rule,
                queue_bound=self.queue_bound,
                clock=self.clock,
                telemetry_source=lambda: self.telemetry,
                spill_dir=self._spill_dir(),
                epoch=self.epoch,
            )
        return ShardWorker(
            ShardCore(
                index, self.graph, self.algorithm, self.rule,
                self.fault_hook, self.provenance, epoch=self.epoch,
            ),
            queue_bound=self.queue_bound,
            clock=self.clock,
            telemetry_source=lambda: self.telemetry,
        )

    # ------------------------------------------------------------------
    # lifecycle and the commit
    # ------------------------------------------------------------------
    def _do_initialize(self) -> None:
        super()._do_initialize()
        self.start_shards()

    def start_shards(self) -> None:
        """Start every worker (``initialize`` does; resume calls it after
        :meth:`adopt_state`)."""
        for shard in self.shards:
            shard.start()

    def _do_batch(self, batch: UpdateBatch) -> ServeBatchResult:
        telemetry = self.telemetry
        provenance = self.provenance
        response = OpCounts()
        post = OpCounts()
        self.epoch += 1
        # the context every shard re-activates: on the ingest thread this
        # is the open engine.batch span (itself nested under the
        # pipeline.commit root when the batch came through the WAL)
        context = (
            telemetry.tracer.current_context() if telemetry is not None
            else None
        )
        # drain: nothing submitted before this epoch (a bootstrap above
        # all) may still be reading the graph when it moves; a shard that
        # stays busy past the deadline fails for the epoch instead of
        # hanging the ingest thread
        failed_shards: List[Tuple[int, str]] = []
        drained: List[ShardWorker] = []
        for shard in self.shards:
            if shard.wait_idle(self.epoch_deadline):
                drained.append(shard)
                continue
            reason = (
                f"shard {shard.index} stayed busy past the "
                f"{self.epoch_deadline:g}s epoch deadline"
            )
            if not self.tolerate_shard_failures:
                raise ShardCrashedError(reason)
            failed_shards.append((shard.index, reason))
        # reduce + apply once, then fan out so shards overlap with the anchor
        effective = self.graph.apply_net(batch)
        if provenance is not None:
            provenance.begin_batch(
                self.epoch,
                trace_id=context.trace_id if context is not None else None,
                updates=len(effective),
            )
        for shard in drained:
            shard.submit_batch(self.epoch, effective, context)
        # the anchor is the durability surface, not an isolated source:
        # a failure here propagates out of on_batch
        with (
            telemetry.span("engine.anchor", source=self.query.source,
                           epoch=self.epoch)
            if telemetry is not None else nullcontext()
        ):
            anchor_stats = process_group(
                self._group, effective, response, post,
                provenance, self.epoch, -1,
            )

        answers: Dict[Tuple[int, int], float] = {}
        degraded: List[Tuple[int, str]] = []
        totals: Dict[str, int] = dict(anchor_stats)
        for shard in drained:
            try:
                with (
                    telemetry.span("engine.barrier", shard=shard.index,
                                   epoch=self.epoch)
                    if telemetry is not None else nullcontext()
                ):
                    outcome = shard.wait_outcome(
                        self.epoch, timeout=self.epoch_deadline
                    )
            except ShardCrashedError as exc:
                if not self.tolerate_shard_failures:
                    raise
                # supervised mode: the epoch completes without this shard —
                # its sessions degrade now and the supervisor resurrects
                # the worker (and re-derives its groups) after the batch
                failed_shards.append((shard.index, str(exc)))
                continue
            answers.update(outcome.answers)
            degraded.extend(outcome.degraded)
            response += outcome.response_ops
            post += outcome.post_ops
            for key, value in outcome.stats.items():
                totals[key] = totals.get(key, 0) + value

        self.last_effective = effective
        stats: Dict[str, float] = {k: float(v) for k, v in totals.items()}
        stats["standing_answers"] = float(len(answers))
        stats["degraded_sources"] = float(len(degraded))
        if failed_shards:
            stats["failed_shards"] = float(len(failed_shards))
        return ServeBatchResult(
            answer=self.answer,
            response_ops=response,
            post_ops=post,
            stats=stats,
            answers=answers,
            degraded=degraded,
            failed_shards=failed_shards,
            epoch=self.epoch,
        )

    # ------------------------------------------------------------------
    # shard routing (what the harness consumes)
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, source: int) -> ShardWorker:
        """The worker owning ``source``'s group (stable hash by source)."""
        return self.shards[source % len(self.shards)]

    def lookup(self, source: int, destination: int) -> Optional[float]:
        """``Q(source -> destination)`` from whoever maintains ``source``.

        The anchor group (processed inline, so converged whenever the
        ingest thread is between batches) or the owning shard's core —
        the latter only when that worker is alive, in the pool, holds a
        group for ``source`` and has fully absorbed :attr:`epoch`.  None
        otherwise, never an exception: the caller
        (:meth:`repro.serve.cache.ResultCache.fetch`) then solves.
        """
        if not self._initialized:
            return None
        if source == self.query.source:
            return self._group.answer(destination)
        return self.shard_of(source).lookup(source, destination, self.epoch)

    def max_depth(self) -> int:
        """Deepest shard inbox right now (the admission probe)."""
        return max(shard.depth for shard in self.shards)

    def sources_owned(self) -> Dict[int, List[int]]:
        """Shard index -> sources currently grouped there (diagnostics)."""
        return {shard.index: sorted(shard.groups) for shard in self.shards}

    def replace_shard(self, index: int) -> ShardWorker:
        """Retire the worker at ``index`` and swap in a fresh one.

        The replacement reads the current **canonical graph** — exactly
        what the anchor checkpoint plus the WAL tail reconstruct — so
        resurrected source groups re-derive their converged state on the
        current topology instead of replaying the stream from batch 0.
        The retired worker is asked to stop (it may be a zombie stuck in a
        hung command; if it wakes while a later epoch moves the graph, its
        outcome is never merged and its reads answer None) and is joined
        at :meth:`close`.
        """
        old = self.shards[index]
        old.request_stop()
        self.retired.append(old)
        replacement = self._make_worker(index)
        replacement.start()
        self.shards[index] = replacement
        return replacement

    def rescale(self, num_shards: int) -> None:
        """Repartition to ``num_shards`` fresh workers (the scaling knob).

        Every current worker is retired (same stop-and-join contract as
        :meth:`replace_shard`) and a new pool is built on the canonical
        graph, so the replacement workers see the exact topology of the
        current epoch.  Routing is ``source % num_shards``
        against the *new* pool — the caller (the harness) must re-register
        every active session on its new owning shard, which re-enters the
        normal warm-up path and answers again from the next batch.  Must
        be called between batches (the ingest thread's quiet point).
        """
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if num_shards == len(self.shards):
            return
        for old in self.shards:
            old.request_stop()
            self.retired.append(old)
        self.shards = [self._make_worker(index) for index in range(num_shards)]
        if self._initialized:
            self.start_shards()

    def close(self, timeout: float = 5.0, strict: bool = True) -> None:
        """Stop and join every worker, including retired ones (idempotent).

        With ``strict`` (default) any thread still alive after its join
        deadline raises :class:`~repro.errors.ShardShutdownError` listing
        the straggler shard indices — a leak is an error, not a silent
        daemon-thread residue bleeding across tests.  Pass
        ``strict=False`` on already-failing paths (e.g. an injected crash
        unwinding) where masking the original exception would hurt more.
        """
        stragglers: List[int] = []
        for shard in self.shards + self.retired:
            if not shard.stop(timeout=timeout):
                stragglers.append(shard.index)
        if self._spill_root_owned and self._spill_root is not None:
            shutil.rmtree(self._spill_root, ignore_errors=True)
            self._spill_root = None
            self._spill_root_owned = False
        if stragglers and strict:
            if self.telemetry is not None:
                # post-mortem bundle before raising: the straggler's last
                # events say what it was doing when the join gave up
                self.telemetry.flight.dump(
                    "strict-close",
                    {"stragglers": sorted(set(stragglers)),
                     "epoch": self.epoch},
                )
            raise ShardShutdownError(sorted(set(stragglers)))

    def __repr__(self) -> str:
        return (
            f"ShardedServeEngine(shards={len(self.shards)}, "
            f"epoch={self.epoch}, anchor={self.query})"
        )
