"""End-to-end fault-tolerant streaming pipeline.

:class:`ResilientPipeline` wraps the CISGraph engine with every layer of
the resilience subsystem::

    raw records ──▶ IngestGuard (validate / dead-letter) ──▶ StreamingGraph
                                                                buffer
                         seal at threshold ─▶ WAL append (durable) ─▶
                    engine.on_batch ─▶ periodic checkpoint ─▶
                    periodic DifferentialGuard cross-check

The ordering is the durability contract: a batch reaches the engine only
after its WAL record is on disk, and a checkpoint records the WAL sequence
it covers — so a crash at *any* point is recoverable by
:class:`repro.resilience.recovery.RecoveryManager` (restore checkpoint,
replay WAL tail) with no batch applied twice and at most the not-yet-sealed
buffer lost.

A periodic checkpoint costs what changed: the WAL already holds the
topology delta since the base ``checkpoint.npz``, so a cadence tick writes
only a small state record (``state.npz``: states, parents, position, the
base it continues).  The full base is rewritten on the occasions listed at
:meth:`ResilientPipeline.checkpoint`.
"""

from __future__ import annotations

import os
from contextlib import nullcontext, suppress
from typing import Iterable, List, Optional

from repro.algorithms.base import MonotonicAlgorithm
from repro.checkpoint import save_checkpoint
from repro.core.engine import CISGraphEngine
from repro.graph.batch import UpdateBatch
from repro.graph.dynamic import DynamicGraph
from repro.graph.streaming import StreamingGraph
from repro.metrics import BatchResult, ResilienceCounters
from repro.obs.bridge import record_deadletters, record_resilience_counters
from repro.obs.telemetry import Telemetry, get_global_telemetry
from repro.obs.tracing import TraceContext
from repro.query import PairwiseQuery
from repro.resilience.deadletter import DeadLetterQueue, IngestGuard, RawRecord
from repro.resilience.guard import DifferentialGuard
from repro.resilience.recovery import STATE_RECORD_NAME, RecoveryManager, state_paths
from repro.resilience.wal import WriteAheadLog


def _span(telemetry: Optional[Telemetry], name: str, **attributes):
    """``telemetry.span(...)``, or a no-op context when telemetry is off."""
    if telemetry is None:
        return nullcontext()
    return telemetry.span(name, **attributes)


class ResilientPipeline:
    """A streaming session with WAL durability, quarantine, and a guard.

    Construct fresh with :meth:`open` (full computation on the initial
    snapshot, checkpoint 0 written immediately) or after a crash with
    :meth:`resume` (checkpoint + WAL tail replay).  Feed raw records with
    :meth:`offer` (or whole pre-validated batches with :meth:`run_batch`)
    and call :meth:`flush` at end of stream.
    """

    def __init__(
        self,
        directory: str,
        engine: CISGraphEngine,
        start_snapshot: int = 0,
        batch_threshold: int = 100_000,
        policy: str = "quarantine",
        checkpoint_every: int = 4,
        guard_every: Optional[int] = None,
        wal_sync: bool = True,
        counters: Optional[ResilienceCounters] = None,
        write_hook=None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        self.directory = directory
        self.engine = engine
        self.telemetry = telemetry if telemetry is not None else get_global_telemetry()
        if self.telemetry is not None and engine.telemetry is None:
            # the pipeline's sink covers its engine so one export holds both
            engine.telemetry = self.telemetry
        self.counters = counters if counters is not None else ResilienceCounters()
        self.checkpoint_path, wal_dir = state_paths(directory)
        self.record_path = os.path.join(directory, STATE_RECORD_NAME)
        os.makedirs(directory, exist_ok=True)
        # the stream and the engine share one DynamicGraph: the engine owns
        # topology application, the stream owns buffering and the snapshot
        # counter (advanced via commit_external)
        self.stream = StreamingGraph(engine.graph, batch_threshold=batch_threshold)
        self.stream.seek(start_snapshot)
        self.ingest_guard = IngestGuard(
            self.stream, policy=policy, deadletters=DeadLetterQueue()
        )
        self.wal = WriteAheadLog(wal_dir, sync=wal_sync, write_hook=write_hook)
        self.guard = (
            DifferentialGuard(engine, every_batches=guard_every,
                              counters=self.counters)
            if guard_every
            else None
        )
        self.checkpoint_every = checkpoint_every
        #: snapshot id of the base this pipeline wrote (None until it has:
        #: a resumed pipeline cannot vouch for the WAL span behind it, so
        #: its first cadence tick writes a base) and updates logged since
        self._base_snapshot: Optional[int] = None
        self._logged_since_base = 0
        #: trace context of the most recent commit (the batch's causal
        #: root); consumers — answer fan-out, cache invalidation,
        #: supervision — re-activate it so their events join the tree
        self.last_trace: Optional[TraceContext] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: str,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        query: PairwiseQuery,
        **kwargs,
    ) -> "ResilientPipeline":
        """Start a fresh session: full computation on ``graph``, then an
        immediate checkpoint at snapshot 0 so recovery always has a base."""
        engine = CISGraphEngine(graph, algorithm, query)
        engine.initialize()
        pipeline = cls(directory, engine, start_snapshot=0, **kwargs)
        pipeline.checkpoint()
        return pipeline

    @classmethod
    def wrap(
        cls,
        directory: str,
        engine: CISGraphEngine,
        start_snapshot: int = 0,
        checkpoint_now: bool = True,
        **kwargs,
    ) -> "ResilientPipeline":
        """Wrap an already-initialized engine with the durable path.

        Unlike :meth:`open`, no engine is constructed: a
        :class:`CISGraphEngine` or any subclass gains WAL-first commits,
        checkpoint cadence and guard coverage — this is how the serve
        layer (:mod:`repro.serve`) attaches its sharded engine.  With
        ``checkpoint_now`` (default) a base checkpoint is written at
        ``start_snapshot`` so recovery always has a foundation; pass
        ``False`` when resuming onto a directory that already has one.
        """
        pipeline = cls(directory, engine, start_snapshot=start_snapshot, **kwargs)
        if checkpoint_now:
            pipeline.checkpoint()
        return pipeline

    @classmethod
    def resume(
        cls,
        directory: str,
        algorithm: Optional[MonotonicAlgorithm] = None,
        on_corrupt: str = "quarantine",
        **kwargs,
    ) -> "ResilientPipeline":
        """Recover from ``directory`` and continue the session.

        The recovered position seeds the snapshot counter, so new WAL
        records continue the sequence exactly where the crash cut it.
        """
        counters = kwargs.pop("counters", None) or ResilienceCounters()
        manager = RecoveryManager(
            directory, algorithm=algorithm, on_corrupt=on_corrupt,
            counters=counters,
        )
        recovered = manager.recover()
        return cls(
            directory,
            recovered.engine,
            start_snapshot=recovered.snapshot_id,
            counters=counters,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    @property
    def snapshot_id(self) -> int:
        return self.stream.snapshot_id

    @property
    def answer(self) -> float:
        return self.engine.answer

    @property
    def deadletters(self) -> DeadLetterQueue:
        return self.ingest_guard.deadletters

    def offer(self, record: RawRecord) -> Optional[BatchResult]:
        """Validate and buffer one raw record; process the batch when the
        threshold fills.  Returns the batch result when one was processed."""
        if self.ingest_guard.offer(record):
            return self._process_sealed()
        return None

    def offer_many(self, records: Iterable[RawRecord]) -> List[BatchResult]:
        """Offer a record sequence; returns the results of full batches."""
        results = []
        for record in records:
            result = self.offer(record)
            if result is not None:
                results.append(result)
        return results

    def flush(self) -> Optional[BatchResult]:
        """Seal and process the under-full buffer (end of stream)."""
        if self.stream.pending_count == 0:
            return None
        return self._process_sealed()

    def run_batch(self, batch: UpdateBatch) -> BatchResult:
        """Process one pre-built batch through the durable path directly.

        Skips ingestion validation (the batch is trusted, e.g. replayed
        from a :class:`~repro.graph.streaming.StreamReplay`), but keeps the
        WAL-before-apply ordering and the checkpoint/guard cadence.
        """
        if self.stream.pending_count:
            raise RuntimeError("cannot run_batch with records still buffered")
        return self._commit(batch)

    def _process_sealed(self) -> BatchResult:
        batch = self.stream.seal_batch()
        self.ingest_guard.on_sealed()
        return self._commit(batch)

    def _commit(self, batch: UpdateBatch) -> BatchResult:
        sequence = self.snapshot_id + 1
        telemetry = self.telemetry
        # the trace root: everything this batch causes — WAL append,
        # engine fan-out, shard work, barrier, checkpoint, guard, answer
        # delivery — links back to this span's trace
        with _span(
            telemetry, "pipeline.commit", sequence=sequence, updates=len(batch)
        ) as root:
            self.last_trace = root.context() if root is not None else None
            with _span(telemetry, "pipeline.wal_append",
                       sequence=sequence, updates=len(batch)):
                self.wal.append(batch, sequence)  # durable before the engine sees it
            self.counters.wal_records_appended += 1
            self._logged_since_base += len(batch)
            result = self.engine.on_batch(batch)
            self.stream.commit_external()
            if sequence % self.checkpoint_every == 0:
                # fast-forwarding as many updates as the graph has edges
                # costs about one base load: past that, a new base is cheaper
                self._checkpoint(
                    base=self._base_snapshot is None
                    or self._logged_since_base >= self.engine.graph.num_edges
                )
            if self.guard is not None:
                with _span(telemetry, "pipeline.guard_check", sequence=sequence):
                    self.guard.maybe_check(sequence)
            if telemetry is not None:
                record_resilience_counters(telemetry.registry, self.counters)
                record_deadletters(telemetry.registry, self.deadletters)
            return result

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Write a full base checkpoint at the current stream position.

        A base is written here (an explicit call, :meth:`open`,
        :meth:`wrap` with ``checkpoint_now``, :meth:`close` with
        ``final_checkpoint``), by the first cadence tick after a
        :meth:`resume`, and by a cadence tick at which the updates logged
        since the last base reach ``graph.num_edges``; every other cadence
        tick writes a state record on top of it.
        """
        self._checkpoint(base=True)

    def _checkpoint(self, base: bool) -> None:
        telemetry = self.telemetry
        snapshot = self.snapshot_id
        with _span(telemetry, "pipeline.checkpoint", snapshot=snapshot):
            save_checkpoint(
                self.checkpoint_path if base else self.record_path,
                self.engine,
                snapshot_id=snapshot,
                wal_sequence=snapshot,
                base_snapshot_id=None if base else self._base_snapshot,
            )
            if base:
                self._base_snapshot, self._logged_since_base = snapshot, 0
                with suppress(FileNotFoundError):
                    os.unlink(self.record_path)  # it continued the old base
        self.counters.checkpoints_written += 1
        if telemetry is not None:
            # checkpoint is also the close path, so refresh both gauge
            # families here — a quarantine after the last commit would
            # otherwise never reach the registry
            record_resilience_counters(telemetry.registry, self.counters)
            record_deadletters(telemetry.registry, self.deadletters)

    def close(self, final_checkpoint: bool = True) -> None:
        """Flush the buffer, optionally checkpoint, release the WAL."""
        self.flush()
        if final_checkpoint:
            self.checkpoint()
        self.wal.close()

    def __enter__(self) -> "ResilientPipeline":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # on an exception (including an injected crash) leave the disk state
        # exactly as the crash left it — that is what recovery is for
        if exc_type is None:
            self.close()
        else:
            self.wal.close()
