"""Write-ahead log: encoding, rotation, torn tails, corruption handling."""

import os

import pytest

from repro.errors import WalCorruptionError, WalError
from repro.graph.batch import UpdateBatch, add, delete
from repro.resilience import faults
from repro.resilience.wal import (
    WalStats,
    WriteAheadLog,
    decode_payload,
    encode_payload,
    list_segments,
    replay,
    verify,
)


def make_batch(seed: int) -> UpdateBatch:
    return UpdateBatch(
        [
            add(seed, seed + 1, float(seed) + 0.5),
            add(seed + 1, seed + 2, 2.0),
            delete(seed, seed + 1, float(seed) + 0.5),
        ]
    )


def fill(wal: WriteAheadLog, count: int, start_seq: int = 1) -> None:
    for i in range(count):
        wal.append(make_batch(i), start_seq + i)


class TestEncoding:
    def test_payload_roundtrip(self):
        batch = make_batch(3)
        record = decode_payload(encode_payload(42, batch))
        assert record.sequence == 42
        assert [(u.kind, u.edge, u.weight) for u in record.batch] == [
            (u.kind, u.edge, u.weight) for u in batch
        ]

    def test_empty_batch_roundtrip(self):
        record = decode_payload(encode_payload(7, UpdateBatch()))
        assert record.sequence == 7
        assert len(record.batch) == 0

    def test_truncated_payload_rejected(self):
        payload = encode_payload(1, make_batch(0))
        with pytest.raises(WalError, match="length"):
            decode_payload(payload[:-3])


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        directory = str(tmp_path / "wal")
        with WriteAheadLog(directory, sync=False) as wal:
            fill(wal, 5)
        records = list(replay(directory))
        assert [r.sequence for r in records] == [1, 2, 3, 4, 5]
        assert all(len(r.batch) == 3 for r in records)

    def test_empty_directory_replays_nothing(self, tmp_path):
        directory = str(tmp_path / "empty")
        os.makedirs(directory)
        assert list(replay(directory)) == []
        stats = verify(directory)
        assert stats.records == 0 and stats.clean

    def test_missing_directory_replays_nothing(self, tmp_path):
        assert list(replay(str(tmp_path / "nope"))) == []

    def test_reopen_appends_to_existing_log(self, tmp_path):
        directory = str(tmp_path / "wal")
        with WriteAheadLog(directory, sync=False) as wal:
            fill(wal, 2)
        with WriteAheadLog(directory, sync=False) as wal:
            fill(wal, 2, start_seq=3)
        assert [r.sequence for r in replay(directory)] == [1, 2, 3, 4]

    def test_segment_rotation(self, tmp_path):
        directory = str(tmp_path / "wal")
        # each record is ~90 bytes; a 256-byte cap forces several segments
        with WriteAheadLog(directory, segment_max_bytes=256, sync=False) as wal:
            fill(wal, 8)
        assert len(list_segments(directory)) > 1
        assert [r.sequence for r in replay(directory)] == list(range(1, 9))

    def test_verify_stats(self, tmp_path):
        directory = str(tmp_path / "wal")
        with WriteAheadLog(directory, sync=False) as wal:
            fill(wal, 4)
        stats = verify(directory)
        assert stats.records == 4
        assert stats.updates == 12
        assert stats.last_sequence == 4
        assert stats.clean


class TestDamage:
    def build(self, tmp_path, count=5) -> str:
        directory = str(tmp_path / "wal")
        with WriteAheadLog(directory, sync=False) as wal:
            fill(wal, count)
        return directory

    def test_torn_tail_dropped_silently(self, tmp_path):
        directory = self.build(tmp_path)
        faults.truncate_segment(directory, drop_bytes=10)
        stats = WalStats()
        records = list(replay(directory, stats=stats))
        assert [r.sequence for r in records] == [1, 2, 3, 4]
        assert stats.torn_tails == 1

    def test_torn_length_prefix_dropped(self, tmp_path):
        directory = self.build(tmp_path, count=2)
        segment = list_segments(directory)[-1]
        size = os.path.getsize(segment)
        # leave only 3 bytes of the final record's 8-byte header
        records = list(replay(directory))
        last_offset = records[-1].offset
        faults.truncate_segment(directory, drop_bytes=size - last_offset - 3)
        stats = WalStats()
        assert [r.sequence for r in replay(directory, stats=stats)] == [1]
        assert stats.torn_tails == 1

    def test_corrupt_record_raises_by_default(self, tmp_path):
        directory = self.build(tmp_path)
        faults.corrupt_record_byte(directory, record_index=2)
        with pytest.raises(WalCorruptionError, match="CRC mismatch"):
            list(replay(directory))

    def test_corrupt_record_quarantined_and_replay_continues(self, tmp_path):
        directory = self.build(tmp_path)
        faults.corrupt_record_byte(directory, record_index=2)
        stats = WalStats()
        records = list(replay(directory, on_corrupt="quarantine", stats=stats))
        assert [r.sequence for r in records] == [1, 2, 4, 5]
        assert stats.corrupt_records == 1
        assert not verify(directory).clean

    def test_bad_magic_rejected(self, tmp_path):
        directory = self.build(tmp_path, count=1)
        segment = list_segments(directory)[0]
        with open(segment, "r+b") as handle:
            handle.write(b"GARBAGE!")
        with pytest.raises(WalError, match="magic"):
            list(replay(directory))


class TestReopenRepair:
    """Reopening for appends must repair the tail first (review regression:
    appending behind torn bytes made all post-resume records unreadable)."""

    def test_reopen_after_torn_crash_preserves_new_appends(self, tmp_path):
        directory = str(tmp_path / "wal")
        hook = faults.CrashPoint(after_records=2, tear=True)
        wal = WriteAheadLog(directory, sync=False, write_hook=hook)
        with pytest.raises(WalError, match="torn write"):
            fill(wal, 5)
        wal.close()

        with WriteAheadLog(directory, sync=False) as wal:
            assert wal.tail_bytes_truncated > 0
            fill(wal, 3, start_seq=3)
        stats = WalStats()
        records = list(replay(directory, stats=stats))
        assert [r.sequence for r in records] == [1, 2, 3, 4, 5]
        assert stats.clean  # the tear was repaired away, not just skipped

    def test_reopen_after_truncated_tail(self, tmp_path):
        directory = str(tmp_path / "wal")
        with WriteAheadLog(directory, sync=False) as wal:
            fill(wal, 4)
        faults.truncate_segment(directory, drop_bytes=5)
        with WriteAheadLog(directory, sync=False) as wal:
            assert wal.tail_bytes_truncated > 0
            fill(wal, 2, start_seq=4)
        assert [r.sequence for r in replay(directory)] == [1, 2, 3, 4, 5]
        assert verify(directory).clean

    def test_reopen_of_clean_log_truncates_nothing(self, tmp_path):
        directory = str(tmp_path / "wal")
        with WriteAheadLog(directory, sync=False) as wal:
            fill(wal, 3)
        size = os.path.getsize(list_segments(directory)[-1])
        with WriteAheadLog(directory, sync=False) as wal:
            assert wal.tail_bytes_truncated == 0
        assert os.path.getsize(list_segments(directory)[-1]) == size

    def test_reopen_keeps_crc_corrupt_record_for_quarantine(self, tmp_path):
        """Framing-intact corruption is the quarantine policy's job — the
        tail repair must not destroy committed records behind it."""
        directory = str(tmp_path / "wal")
        with WriteAheadLog(directory, sync=False) as wal:
            fill(wal, 4)
        faults.corrupt_record_byte(directory, record_index=1)
        with WriteAheadLog(directory, sync=False) as wal:
            assert wal.tail_bytes_truncated == 0
            fill(wal, 1, start_seq=5)
        stats = WalStats()
        records = list(replay(directory, on_corrupt="quarantine", stats=stats))
        assert [r.sequence for r in records] == [1, 3, 4, 5]
        assert stats.corrupt_records == 1

    def test_reopen_segment_with_torn_magic(self, tmp_path):
        """A crash during segment creation leaves a short header; reopen
        resets it to a valid empty segment and appends work."""
        directory = str(tmp_path / "wal")
        os.makedirs(directory)
        stub = os.path.join(directory, "wal-00000001.seg")
        with open(stub, "wb") as handle:
            handle.write(b"CIS")  # first bytes of the magic, then crash
        assert verify(directory).torn_tails == 1  # and verify never raises
        with WriteAheadLog(directory, sync=False) as wal:
            fill(wal, 2)
        assert [r.sequence for r in replay(directory)] == [1, 2]


class TestUndecodablePayload:
    """CRC-valid but structurally invalid records follow the on_corrupt
    policy (review regression: they raised even under quarantine)."""

    def zero_filled(self, tmp_path) -> str:
        directory = str(tmp_path / "wal")
        with WriteAheadLog(directory, sync=False) as wal:
            fill(wal, 2)
        # 8 zero bytes frame as a length-0/CRC-0 record and crc32(b"") == 0,
        # so the CRC check passes while decode_payload must reject it
        with open(list_segments(directory)[-1], "ab") as handle:
            handle.write(b"\x00" * 8)
        return directory

    def test_quarantine_skips_and_counts(self, tmp_path):
        directory = self.zero_filled(tmp_path)
        stats = WalStats()
        records = list(replay(directory, on_corrupt="quarantine", stats=stats))
        assert [r.sequence for r in records] == [1, 2]
        assert stats.corrupt_records == 1

    def test_verify_never_raises(self, tmp_path):
        directory = self.zero_filled(tmp_path)
        stats = verify(directory)
        assert stats.records == 2
        assert not stats.clean

    def test_raise_policy_raises_typed(self, tmp_path):
        from repro.errors import WalCorruptionError

        directory = self.zero_filled(tmp_path)
        with pytest.raises(WalCorruptionError, match="undecodable"):
            list(replay(directory, on_corrupt="raise"))


class TestWriteHook:
    def test_clean_crash_leaves_clean_tail(self, tmp_path):
        directory = str(tmp_path / "wal")
        hook = faults.CrashPoint(after_records=2)
        wal = WriteAheadLog(directory, sync=False, write_hook=hook)
        with pytest.raises(faults.SimulatedCrash):
            fill(wal, 5)
        wal.close()
        stats = verify(directory)
        assert stats.records == 2
        assert stats.clean

    def test_torn_crash_leaves_torn_tail(self, tmp_path):
        directory = str(tmp_path / "wal")
        hook = faults.CrashPoint(after_records=2, tear=True)
        wal = WriteAheadLog(directory, sync=False, write_hook=hook)
        with pytest.raises(WalError, match="torn write"):
            fill(wal, 5)
        wal.close()
        stats = verify(directory)
        assert stats.records == 2
        assert stats.torn_tails == 1
