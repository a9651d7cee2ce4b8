"""Write-ahead log for sealed update batches.

Every batch is appended to the log *before* it is handed to an engine, so a
crash mid-batch loses at most work that can be re-derived: recovery restores
the last checkpoint and replays the WAL tail (see
:mod:`repro.resilience.recovery`).

On-disk layout — a directory of fixed-name segments::

    wal-00000001.seg
    wal-00000002.seg
    ...

Each segment starts with an 8-byte magic (``CISWAL1\\n``).  A record is::

    <u32 payload length> <u32 CRC32(payload)> <payload>

and the payload is::

    <u64 sequence> <u32 update count> count * (<u8 kind> <u64 u> <u64 v> <f64 w>)

``sequence`` is the snapshot id the batch produces, so replay can be aligned
with a checkpoint taken at any snapshot.  All integers are little-endian.

Failure semantics on replay:

* a record whose payload is cut short by end-of-file (a *torn tail*, the
  normal signature of a crash mid-append) terminates replay of that segment
  silently — the record never committed;
* a record whose CRC does not match is *corrupt*.  Framing is intact (the
  length prefix was readable), so the reader can skip it and continue; the
  caller chooses whether that is fatal (``on_corrupt="raise"``) or routed to
  a dead-letter path (``"quarantine"``);
* a length prefix that is implausible (bigger than the record size cap)
  means framing itself is lost — the rest of the segment is treated as torn.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional

from repro.errors import WalCorruptionError, WalError
from repro.graph.batch import EdgeUpdate, UpdateBatch, UpdateKind

_MAGIC = b"CISWAL1\n"
_LEN_CRC = struct.Struct("<II")
_PAYLOAD_HEAD = struct.Struct("<QI")
_UPDATE = struct.Struct("<BQQd")

#: hard cap on one record's payload, used to detect destroyed framing
MAX_RECORD_BYTES = 64 * 1024 * 1024

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def _segment_index(name: str) -> Optional[int]:
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def list_segments(directory: str) -> List[str]:
    """Segment file paths in append order."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    indexed = [(i, n) for n in names if (i := _segment_index(n)) is not None]
    return [os.path.join(directory, n) for _, n in sorted(indexed)]


def repair_segment_tail(path: str) -> int:
    """Truncate ``path`` at the first torn record; returns bytes removed.

    A crash mid-append leaves a prefix of the final record on disk.  If a
    writer later appended *after* those torn bytes, replay would misframe at
    the tear and every subsequent (fsynced, committed) record would be
    unreadable — so :class:`WriteAheadLog` repairs the tail segment before
    reusing it for appends.  Only broken *framing* is truncated (torn length
    prefix, implausible length, short payload): a record whose framing is
    intact but whose CRC or payload is bad stays in place, because replay can
    skip it under the quarantine policy and records after it are still
    readable.

    A file shorter than the segment magic (crash during segment creation) is
    reset to a valid empty segment.
    """
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        magic = handle.read(len(_MAGIC))
        if len(magic) < len(_MAGIC):
            # crash while the segment header itself was being written
            handle.seek(0)
            handle.truncate(0)
            handle.write(_MAGIC)
            handle.flush()
            os.fsync(handle.fileno())
            return size
        if magic != _MAGIC:
            raise WalError(f"{path}: bad segment magic {magic!r}")
        good_end = handle.tell()
        while True:
            head = handle.read(_LEN_CRC.size)
            if not head:
                break  # clean end of segment
            if len(head) < _LEN_CRC.size:
                break  # torn length prefix
            length, _ = _LEN_CRC.unpack(head)
            if length > MAX_RECORD_BYTES:
                break  # framing destroyed
            payload = handle.read(length)
            if len(payload) < length:
                break  # torn payload
            good_end = handle.tell()
        if good_end < size:
            handle.truncate(good_end)
            handle.flush()
            os.fsync(handle.fileno())
            return size - good_end
    return 0


def encode_payload(sequence: int, batch: UpdateBatch) -> bytes:
    """Serialise one batch into a WAL payload."""
    parts = [_PAYLOAD_HEAD.pack(sequence, len(batch))]
    for upd in batch:
        parts.append(
            _UPDATE.pack(1 if upd.is_addition else 0, upd.u, upd.v, upd.weight)
        )
    return b"".join(parts)


def decode_payload(payload: bytes) -> "WalRecord":
    """Parse a WAL payload back into a sequence number and batch."""
    if len(payload) < _PAYLOAD_HEAD.size:
        raise WalError("payload shorter than its header")
    sequence, count = _PAYLOAD_HEAD.unpack_from(payload, 0)
    expected = _PAYLOAD_HEAD.size + count * _UPDATE.size
    if len(payload) != expected:
        raise WalError(
            f"payload length {len(payload)} != {expected} for {count} updates"
        )
    batch = UpdateBatch()
    offset = _PAYLOAD_HEAD.size
    for _ in range(count):
        kind, u, v, w = _UPDATE.unpack_from(payload, offset)
        offset += _UPDATE.size
        batch.append(
            EdgeUpdate(UpdateKind.ADD if kind else UpdateKind.DELETE, u, v, w)
        )
    return WalRecord(sequence=sequence, batch=batch)


@dataclass
class WalRecord:
    """One replayed record: the batch and the snapshot id it produces."""

    sequence: int
    batch: UpdateBatch
    segment: str = ""
    offset: int = 0


@dataclass
class WalStats:
    """Outcome of scanning a WAL directory."""

    segments: int = 0
    records: int = 0
    updates: int = 0
    torn_tails: int = 0
    corrupt_records: int = 0
    last_sequence: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.torn_tails == 0 and self.corrupt_records == 0


class WriteAheadLog:
    """Append-only, checksummed, segment-rotated log of sealed batches.

    ``segment_max_bytes`` bounds one segment's size; appends that would
    overflow it open the next segment.  ``sync`` fsyncs after every append
    (durability over throughput — the production default); tests may disable
    it.  ``write_hook`` is a fault-injection point: it is called with the
    encoded record bytes and may return a truncated prefix to actually write
    (simulating a torn write) or raise to simulate a crash
    (:mod:`repro.resilience.faults`).

    Opening a directory that already has segments reuses the last one for
    appends — after repairing its tail (:func:`repair_segment_tail`), so a
    post-crash resume never writes new records behind torn bytes that would
    make them unreadable on the next replay.
    """

    def __init__(
        self,
        directory: str,
        segment_max_bytes: int = 4 * 1024 * 1024,
        sync: bool = True,
        write_hook: Optional[Callable[[bytes], Optional[bytes]]] = None,
    ) -> None:
        if segment_max_bytes <= len(_MAGIC):
            raise WalError("segment_max_bytes too small for the segment magic")
        self.directory = directory
        self.segment_max_bytes = segment_max_bytes
        self.sync = sync
        self.write_hook = write_hook
        os.makedirs(directory, exist_ok=True)
        self._handle = None
        self._segment_path: Optional[str] = None
        self._records_appended = 0
        existing = list_segments(directory)
        self._next_segment = (
            (_segment_index(os.path.basename(existing[-1])) or 0) + 1
            if existing
            else 1
        )
        self._open_path = existing[-1] if existing else None
        #: bytes of torn tail truncated from the reused segment on open
        self.tail_bytes_truncated = (
            repair_segment_tail(self._open_path) if self._open_path else 0
        )

    # ------------------------------------------------------------------
    @property
    def records_appended(self) -> int:
        """Records appended through *this* handle (not the whole log)."""
        return self._records_appended

    def _open_segment(self, fresh: bool) -> None:
        if self._handle is not None:
            self._handle.close()
        if fresh or self._open_path is None:
            path = os.path.join(self.directory, _segment_name(self._next_segment))
            self._next_segment += 1
            handle = open(path, "ab")
            if handle.tell() == 0:
                handle.write(_MAGIC)
                handle.flush()
        else:
            path = self._open_path
            handle = open(path, "ab")
        self._handle = handle
        self._segment_path = path
        self._open_path = path

    def append(self, batch: UpdateBatch, sequence: int) -> int:
        """Durably append one sealed batch; returns its byte offset.

        The record is on disk (and fsynced, unless ``sync=False``) when this
        returns — only then may the batch be applied to the engine.
        """
        payload = encode_payload(sequence, batch)
        record = _LEN_CRC.pack(len(payload), zlib.crc32(payload)) + payload
        if self._handle is None:
            self._open_segment(fresh=self._open_path is None)
        assert self._handle is not None
        if self._handle.tell() + len(record) > self.segment_max_bytes and (
            self._handle.tell() > len(_MAGIC)
        ):
            self._open_segment(fresh=True)
        offset = self._handle.tell()
        to_write = record
        if self.write_hook is not None:
            shortened = self.write_hook(record)
            if shortened is not None:
                to_write = shortened
        self._handle.write(to_write)
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())
        if len(to_write) != len(record):
            raise WalError(
                f"torn write injected: {len(to_write)}/{len(record)} bytes"
            )
        self._records_appended += 1
        return offset

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay(
    directory: str,
    on_corrupt: str = "raise",
    stats: Optional[WalStats] = None,
) -> Iterator[WalRecord]:
    """Yield every committed record of a WAL directory in append order.

    ``on_corrupt`` is ``"raise"`` (default: :class:`WalCorruptionError` on a
    CRC mismatch) or ``"quarantine"`` (skip the record, count it in
    ``stats.corrupt_records``, keep replaying).  Torn tails are always
    tolerated silently (counted when ``stats`` is supplied) — they are the
    expected signature of a crash mid-append.
    """
    if on_corrupt not in ("raise", "quarantine"):
        raise ValueError(f"unknown on_corrupt policy {on_corrupt!r}")
    segments = list_segments(directory)
    if stats is not None:
        stats.segments = len(segments)
    for path in segments:
        with open(path, "rb") as handle:
            magic = handle.read(len(_MAGIC))
            if len(magic) < len(_MAGIC):
                # crash during segment creation: the header never committed
                if stats is not None:
                    stats.torn_tails += 1
                    stats.notes.append(f"{path}@0: torn segment magic")
                continue
            if magic != _MAGIC:
                raise WalError(f"{path}: bad segment magic {magic!r}")
            while True:
                offset = handle.tell()
                head = handle.read(_LEN_CRC.size)
                if not head:
                    break  # clean end of segment
                if len(head) < _LEN_CRC.size:
                    if stats is not None:
                        stats.torn_tails += 1
                        stats.notes.append(f"{path}@{offset}: torn length prefix")
                    break
                length, crc = _LEN_CRC.unpack(head)
                if length > MAX_RECORD_BYTES:
                    # framing destroyed — everything after this is unreadable
                    if stats is not None:
                        stats.torn_tails += 1
                        stats.notes.append(
                            f"{path}@{offset}: implausible record length {length}"
                        )
                    break
                payload = handle.read(length)
                if len(payload) < length:
                    if stats is not None:
                        stats.torn_tails += 1
                        stats.notes.append(
                            f"{path}@{offset}: torn payload "
                            f"({len(payload)}/{length} bytes)"
                        )
                    break
                if zlib.crc32(payload) != crc:
                    if on_corrupt == "raise":
                        raise WalCorruptionError(
                            f"{path}@{offset}: CRC mismatch on {length}-byte record"
                        )
                    if stats is not None:
                        stats.corrupt_records += 1
                        stats.notes.append(f"{path}@{offset}: CRC mismatch, skipped")
                    continue
                try:
                    record = decode_payload(payload)
                except WalError as exc:
                    # CRC passed but the payload is structurally invalid
                    # (e.g. all-zero bytes frame as length=0/crc=0 and
                    # crc32(b"") == 0) — same policy as a CRC mismatch
                    if on_corrupt == "raise":
                        raise WalCorruptionError(
                            f"{path}@{offset}: undecodable record: {exc}"
                        ) from exc
                    if stats is not None:
                        stats.corrupt_records += 1
                        stats.notes.append(
                            f"{path}@{offset}: undecodable payload, skipped"
                        )
                    continue
                record.segment = path
                record.offset = offset
                if stats is not None:
                    stats.records += 1
                    stats.updates += len(record.batch)
                    stats.last_sequence = max(stats.last_sequence, record.sequence)
                yield record


def verify(directory: str) -> WalStats:
    """Scan a WAL directory and report integrity statistics.

    Never raises on damaged records — corruption and torn tails are counted
    in the returned :class:`WalStats` (the CLI's ``wal-verify`` wraps
    this).
    """
    stats = WalStats()
    for _ in replay(directory, on_corrupt="quarantine", stats=stats):
        pass
    return stats
