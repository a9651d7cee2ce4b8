"""Crash recovery: base checkpoint + state record + WAL tail replay.

The durability protocol (see ``docs/resilience.md``):

* every sealed batch is appended to the WAL *before* the engine processes
  it (sequence ``k`` = the snapshot id the batch produces);
* every ``checkpoint_every`` batches the engine's converged state is
  written with its stream position (``snapshot_id``, ``wal_sequence``) —
  as a small *state record* beside the base checkpoint, whose topology is
  the base's plus the WAL records since it, or as a new base.

After a crash, :meth:`RecoveryManager.recover` restores the base, fast-
forwards the topology over the record's WAL span and adopts the record's
state, then replays only WAL records with ``sequence > snapshot_id``.  A
record that fails any check is ignored: base + replay, as from an older
checkpoint.
Replay is idempotent and duplicate-tolerant: records at or below the
checkpoint position are skipped, a torn final record (crash mid-append)
is dropped, and a CRC-corrupt record is quarantined to the dead-letter
queue under the default policy — the stream position then advances past
it, trading one lost batch for availability, and the caller is expected
to run a differential check (:class:`repro.resilience.guard.DifferentialGuard`)
to restore ground truth.  Running :meth:`recover` twice yields identical
state: it never mutates the WAL, the checkpoint or the record.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.algorithms.base import MonotonicAlgorithm
from repro.checkpoint import (
    CheckpointError,
    CheckpointInfo,
    install_state,
    load_state_record,
    restore_checkpoint,
)
from repro.core.engine import CISGraphEngine
from repro.errors import RecoveryError
from repro.metrics import ResilienceCounters
from repro.resilience.deadletter import DeadLetterQueue
from repro.resilience.wal import WalRecord, WalStats, replay

logger = logging.getLogger("repro.resilience")

#: file/directory names a resilient pipeline uses inside its state directory
CHECKPOINT_NAME = "checkpoint.npz"
STATE_RECORD_NAME = "state.npz"
WAL_DIRNAME = "wal"


def state_paths(directory: str) -> tuple:
    """``(checkpoint_path, wal_directory)`` for a pipeline state directory."""
    return (
        os.path.join(directory, CHECKPOINT_NAME),
        os.path.join(directory, WAL_DIRNAME),
    )


@dataclass
class RecoveryResult:
    """What :meth:`RecoveryManager.recover` restored."""

    engine: CISGraphEngine
    #: snapshot id the recovered engine's state corresponds to
    snapshot_id: int
    #: checkpoint metadata the recovery started from
    checkpoint: CheckpointInfo
    #: the state record adopted on top of the checkpoint, if one was
    record: Optional[CheckpointInfo] = None
    #: why the directory's state record was ignored ("" = adopted or absent)
    record_rejected: str = ""
    #: WAL sequences replayed on top of the checkpoint, in order
    replayed: List[int] = field(default_factory=list)
    #: WAL sequences skipped because the checkpoint or record covered them
    skipped: List[int] = field(default_factory=list)
    wal_stats: WalStats = field(default_factory=WalStats)
    deadletters: DeadLetterQueue = field(default_factory=DeadLetterQueue)

    @property
    def answer(self) -> float:
        return self.engine.answer


class RecoveryManager:
    """Restore a crashed pipeline from its state directory.

    ``on_corrupt`` is the WAL replay policy: ``"quarantine"`` (default —
    skip damaged records, count them, keep going) or ``"raise"``
    (:class:`~repro.errors.WalCorruptionError` aborts recovery).
    """

    def __init__(
        self,
        directory: str,
        algorithm: Optional[MonotonicAlgorithm] = None,
        on_corrupt: str = "quarantine",
        counters: Optional[ResilienceCounters] = None,
    ) -> None:
        self.directory = directory
        self.algorithm = algorithm
        self.on_corrupt = on_corrupt
        self.counters = counters if counters is not None else ResilienceCounters()
        self.checkpoint_path, self.wal_directory = state_paths(directory)
        self.record_path = os.path.join(directory, STATE_RECORD_NAME)

    # ------------------------------------------------------------------
    def recover(self, verify: bool = True) -> RecoveryResult:
        """Restore the last checkpoint and replay the WAL tail.

        With ``verify`` (default) the checkpoint's state array — and the
        state record's, after its topology is rebuilt — is checked to be a
        converged fixpoint before any replay: recovery refuses to build on
        a corrupt foundation (:class:`~repro.errors.RecoveryError`) and
        ignores a record that does not verify.
        """
        try:
            engine, info = restore_checkpoint(
                self.checkpoint_path, algorithm=self.algorithm, verify=verify
            )
        except CheckpointError as exc:
            raise RecoveryError(
                f"cannot restore checkpoint for {self.directory!r}: {exc}"
            ) from exc

        result = RecoveryResult(engine=engine, snapshot_id=info.snapshot_id,
                                checkpoint=info)
        stats = result.wal_stats
        log = replay(self.wal_directory, on_corrupt=self.on_corrupt, stats=stats)
        if os.path.exists(self.record_path):
            log = self._adopting_record(result, log, verify)
        for record in log:
            self.counters.wal_records_replayed += 1
            if record.sequence <= result.snapshot_id:
                # the checkpoint (or the state record) is at least as new as
                # this record — normal when the crash happened between a
                # checkpoint and the next append, or when recovering twice
                result.skipped.append(record.sequence)
                self.counters.batches_skipped += 1
                continue
            result.engine.on_batch(record.batch)
            result.snapshot_id = record.sequence
            result.replayed.append(record.sequence)
            self.counters.batches_replayed += 1

        # corrupt records were quarantined by the reader; surface them the
        # same way ingestion-time rejects are surfaced
        for note in stats.notes:
            if ", skipped" in note:  # CRC mismatch or undecodable payload
                result.deadletters.put(note, "wal-corrupt", position=-1)
                self.counters.quarantined += 1
        self.counters.wal_torn_tails += stats.torn_tails
        self.counters.wal_corrupt_records += stats.corrupt_records
        self.counters.recoveries += 1

        logger.info(
            "recovered %s: checkpoint@%d + %d replayed WAL records -> "
            "snapshot %d (skipped %d, torn %d, quarantined %d)",
            self.directory,
            info.snapshot_id,
            len(result.replayed),
            result.snapshot_id,
            len(result.skipped),
            stats.torn_tails,
            stats.corrupt_records,
        )
        return result

    def _adopting_record(
        self, result: RecoveryResult, log: Iterator[WalRecord], verify: bool
    ) -> Iterator[WalRecord]:
        """``log``, record for record — but before the first record of the
        state record's WAL span comes out, the span has been read ahead,
        the topology fast-forwarded over it (``DynamicGraph.apply_net``, the
        call every engine makes before classification) and the record's
        state adopted, so the caller skips the span as covered.  A record
        that fails any check is ignored, the reason kept, and the span comes
        out to be replayed."""
        base, engine = result.checkpoint, result.engine
        graph = engine.graph
        span: List[WalRecord] = []
        try:
            record, states, parents = load_state_record(self.record_path, engine, base)
            first, last = base.snapshot_id + 1, record.snapshot_id
            for wal in log:
                if wal.sequence < first:
                    yield wal
                    continue
                span.append(wal)
                if wal.sequence >= last:
                    break
            sequences = [wal.sequence for wal in span]
            if sequences != list(range(first, last + 1)):
                raise CheckpointError(
                    f"WAL holds {sequences} of its span {first}..{last}"
                )
            for wal in span:
                graph.apply_net(wal.batch)
            if graph.num_edges != record.num_edges:
                raise CheckpointError(
                    f"{graph.num_edges} edges after its WAL span, "
                    f"recorded {record.num_edges}"
                )
            install_state(engine, states, parents, verify, "state record")
            result.record, result.snapshot_id = record, last
        except CheckpointError as exc:
            result.record_rejected = str(exc)
            logger.warning("ignoring state record of %s: %s", self.directory, exc)
            # the graph may be part-way through the span: start over
            result.engine, _ = restore_checkpoint(
                self.checkpoint_path, algorithm=self.algorithm, verify=False
            )
        yield from span
        yield from log
