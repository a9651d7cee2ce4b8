"""The shared BENCH_*.json schema-drift checker.

``repro.bench.schema`` is the single implementation behind all three
bench tools' ``--check`` contract (snapshot, serving, traffic); the
tool-level behavior is exercised in their own suites, so this one pins
the module API directly — including that ``tools/bench_snapshot.py``,
which once owned the checker, calls the shared one and keeps no copy.
"""

import json
import os
import sys

import pytest

from repro.bench.schema import (
    check_baseline,
    key_paths,
    schema_drift,
    write_baseline,
)

pytestmark = pytest.mark.traffic


class TestKeyPaths:
    def test_lists_are_indexed_by_position(self):
        document = {"a": [{"x": 1}, {"y": 2}], "b": {"c": 3}}
        assert set(key_paths(document)) == {
            "a", "a[0].x", "a[1].y", "b", "b.c"
        }

    def test_scalars_contribute_no_paths(self):
        assert key_paths(42) == []
        assert key_paths("leaf") == []


class TestSchemaDrift:
    def test_value_changes_are_not_drift(self):
        base = {"metric": 1.0, "series": [{"v": 1}]}
        fresh = {"metric": 99.0, "series": [{"v": -5}]}
        assert schema_drift(base, fresh) == []

    def test_both_directions_reported(self):
        drift = schema_drift({"kept": 1, "gone": 2}, {"kept": 1, "new": 3})
        assert any("gone" in line and "missing" in line for line in drift)
        assert any("new" in line for line in drift)

    def test_list_length_change_is_drift(self):
        assert schema_drift({"s": [{"v": 1}]}, {"s": [{"v": 1}, {"v": 2}]})


class TestBaselineRoundTrip:
    def test_write_then_check_ok(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_x.json")
        document = {"schema_version": 1, "values": {"a": 1.5}}
        write_baseline(document, path)
        assert json.load(open(path)) == document
        assert check_baseline(
            dict(document, values={"a": 99.0}), path, "BENCH_x", "regen"
        ) == 0
        assert "schema matches" in capsys.readouterr().out

    def test_check_fails_on_drift_with_regenerate_hint(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "BENCH_x.json")
        write_baseline({"a": 1}, path)
        code = check_baseline({"b": 2}, path, "BENCH_x",
                              "python tools/regen.py")
        err = capsys.readouterr().err
        assert code == 1
        assert "schema drift" in err
        assert "python tools/regen.py" in err

    def test_check_fails_without_baseline(self, tmp_path, capsys):
        code = check_baseline({"a": 1}, str(tmp_path / "missing.json"),
                              "BENCH_x", "regen")
        assert code == 1
        assert "no baseline" in capsys.readouterr().err

    def test_written_file_is_sorted_and_newline_terminated(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        write_baseline({"z": 1, "a": 2}, path)
        text = open(path).read()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"z"')


def test_snapshot_tool_uses_the_shared_checker():
    """tools/bench_snapshot.py once owned the checker; it now calls the
    shared implementation and re-exports nothing of it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "tools"))
    try:
        import bench_snapshot
    finally:
        sys.path.pop(0)
    assert bench_snapshot.check_baseline is check_baseline
    assert bench_snapshot.write_baseline is write_baseline
    assert not hasattr(bench_snapshot, "key_paths")
    assert not hasattr(bench_snapshot, "schema_drift")
