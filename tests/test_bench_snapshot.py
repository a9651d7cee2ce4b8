"""Smoke check for tools/bench_snapshot.py and BENCH_observability.json.

Runs the fixed workload and asserts the committed baseline's schema still
matches — the guard against silently renaming/dropping metrics that every
future PR's perf trajectory depends on.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import bench_snapshot  # noqa: E402

from repro.bench.schema import key_paths, schema_drift  # noqa: E402

pytestmark = pytest.mark.telemetry

BASELINE = os.path.join(ROOT, "BENCH_observability.json")


class TestKeyPaths:
    def test_key_paths_cover_nested_dicts_and_lists(self):
        document = {"a": {"b": 1}, "c": [{"d": 2}, {"e": 3}]}
        paths = set(key_paths(document))
        assert {"a", "a.b", "c", "c[0].d", "c[1].e"} <= paths

    def test_schema_drift_reports_both_directions(self):
        base = {"kept": 1, "removed": 2}
        fresh = {"kept": 1, "added": 3}
        drift = schema_drift(base, fresh)
        assert any("removed" in line for line in drift)
        assert any("added" in line for line in drift)

    def test_identical_documents_have_no_drift(self):
        document = {"a": {"b": [1, 2]}}
        assert schema_drift(document, document) == []


class TestCommittedBaseline:
    def test_baseline_exists_and_is_versioned(self):
        assert os.path.exists(BASELINE), (
            "BENCH_observability.json missing — run "
            "PYTHONPATH=src python tools/bench_snapshot.py"
        )
        with open(BASELINE) as handle:
            document = json.load(handle)
        assert document["schema_version"] == bench_snapshot.SNAPSHOT_SCHEMA_VERSION
        assert document["workload"]["dataset"] == "OR"
        assert document["telemetry"]["metrics"]

    def test_baseline_documents_the_tracing_overhead(self):
        with open(BASELINE) as handle:
            tracing = json.load(handle)["tracing"]
        assert set(tracing) == {
            "batches", "repeats",
            "tracing_off_best_s", "tracing_on_best_s", "on_over_off_ratio",
        }
        assert tracing["tracing_off_best_s"] > 0
        assert tracing["tracing_on_best_s"] > 0
        assert tracing["on_over_off_ratio"] > 0

    def test_check_mode_passes_against_committed_baseline(self, capsys):
        """The <60s smoke check: a fresh run's schema matches the baseline."""
        assert bench_snapshot.main(["--check", "--output", BASELINE]) == 0
        assert "schema matches" in capsys.readouterr().out

    def test_check_mode_fails_on_drift(self, tmp_path, capsys):
        mutated = os.path.join(tmp_path, "drifted.json")
        with open(BASELINE) as handle:
            document = json.load(handle)
        document["telemetry"]["metrics"]["engine_renamed_total"] = {
            "type": "counter", "series": [],
        }
        with open(mutated, "w") as handle:
            json.dump(document, handle)
        assert bench_snapshot.main(["--check", "--output", mutated]) == 1
        assert "schema drift" in capsys.readouterr().err

    def test_check_mode_requires_baseline(self, tmp_path):
        missing = os.path.join(tmp_path, "nope.json")
        assert bench_snapshot.main(["--check", "--output", missing]) == 1

    def test_regenerate_round_trips(self, tmp_path):
        output = os.path.join(tmp_path, "fresh.json")
        assert bench_snapshot.main(["--output", output]) == 0
        assert bench_snapshot.main(["--check", "--output", output]) == 0
