"""Tests for the command-line interface and the validator."""

import os

import pytest

from repro.cli import build_parser, main
from repro.validate import validate_engines


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("CISGRAPH_SCALE", "tiny")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_experiment_choices(self):
        for argv in (
            ["experiment", "fig9"],
            ["experiment", "fig5a", "--algorithm", "nonsense"],
            ["experiment", "fig2", "--dataset", "XX"],
            ["report", "--algorithm", "nonsense"],
            ["validate", "--algorithm", "nonsense"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2, argv


class TestInfo:
    def test_prints_inventory(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "PPSP" in out
        assert "orkut-mini" in out
        assert "pipelines" in out


class TestQuery:
    def test_auto_query(self, capsys):
        assert main(["query", "--batches", "1"]) == 0
        out = capsys.readouterr().out
        assert "initial answer" in out
        assert "batch 1" in out

    def test_explicit_pair_and_engine(self, capsys):
        code = main(
            [
                "query",
                "--engine",
                "cs",
                "--source",
                "0",
                "--destination",
                "5",
                "--batches",
                "1",
            ]
        )
        assert code == 0
        assert "cs on orkut-mini" in capsys.readouterr().out

    def test_accelerator_engine(self, capsys):
        assert main(["query", "--engine", "cisgraph", "--batches", "1"]) == 0
        assert "response_cycles" in capsys.readouterr().out


class TestExperiments:
    def test_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "MIN(T, v.state)" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        assert "uk2002-mini" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["experiment", "fig2", "--pairs", "1"]) == 0
        assert "useless updates" in capsys.readouterr().out

    def test_fig5a(self, capsys):
        assert main(["experiment", "fig5a", "--pairs", "1"]) == 0
        assert "normalised" in capsys.readouterr().out
        assert main(["experiment", "fig5a", "--algorithm", "all", "--pairs", "1"]) == 0
        assert "| OR | reach |" in capsys.readouterr().out

    def test_fig5b(self, capsys):
        assert main(["experiment", "fig5b", "--pairs", "1"]) == 0
        assert "add/del" in capsys.readouterr().out

    def test_table4_single_algorithm(self, capsys):
        assert main(
            ["experiment", "table4", "--pairs", "1", "--algorithm", "reach"]
        ) == 0
        out = capsys.readouterr().out
        assert "cisgraph-o" in out


class TestReport:
    def test_stdout(self, capsys):
        run = ["--pairs", "1", "--algorithm", "ppsp", "--seed", "0", "--batches", "1"]
        code = main(["report"] + run)
        assert code == 0
        out = capsys.readouterr().out
        assert "# CISGraph reproduction report" in out
        assert "Table IV" in out
        # one definition per artifact: `experiment` prints the report's section
        sections = out.split("\n\n### ")
        for name, title in (("fig2", "Figure 2 "), ("fig5a", "Figure 5(a) ")):
            assert main(["experiment", name] + run) == 0
            (section,) = [s for s in sections if s.startswith(title)]
            assert capsys.readouterr().out == f"### {section}\n"

    def test_file_output(self, tmp_path, capsys):
        path = str(tmp_path / "report.md")
        code = main(
            ["report", "--pairs", "1", "--algorithm", "reach", "--output", path]
        )
        assert code == 0
        with open(path) as handle:
            assert "Figure 5(b)" in handle.read()


class TestGenstream:
    def test_text_output(self, tmp_path, capsys):
        path = str(tmp_path / "stream.txt")
        assert main(["genstream", path, "--batches", "1"]) == 0
        assert os.path.exists(path)
        from repro.graph.stream_io import load_stream_text

        replay = load_stream_text(path)
        assert replay.num_batches == 1

    def test_npz_output(self, tmp_path):
        path = str(tmp_path / "stream.npz")
        assert main(["genstream", path, "--batches", "2"]) == 0
        from repro.graph.stream_io import load_stream_npz

        assert load_stream_npz(path).num_batches == 2


class TestRecoverAndWalVerify:
    def build_state(self, tmp_path, checkpoint_every=100):
        from repro.algorithms import get_algorithm
        from repro.query import PairwiseQuery
        from repro.resilience.pipeline import ResilientPipeline
        from tests.conftest import random_batch, random_graph

        graph = random_graph(40, 200, seed=3)
        directory = str(tmp_path / "state")
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), get_algorithm("ppsp"), PairwiseQuery(0, 20),
            checkpoint_every=checkpoint_every, wal_sync=False,
        )
        for i in range(3):
            pipeline.run_batch(random_batch(graph, 5, 3, seed=10 + i))
        pipeline.wal.close()
        return directory

    def test_recover_reports_position(self, tmp_path, capsys):
        directory = self.build_state(tmp_path)
        assert main(["recover", directory, "--guard"]) == 0
        out = capsys.readouterr().out
        assert "recovered: snapshot=3" in out
        assert "3 replayed" in out
        assert "state record: none" in out
        assert "clean" in out

    def test_recover_reports_state_record(self, tmp_path, capsys):
        directory = self.build_state(tmp_path, checkpoint_every=2)
        assert main(["recover", directory, "--guard"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint: v2 ppsp snapshot=0" in out
        assert "state record: v3 snapshot=2 base=0" in out
        assert "1 replayed, 2 skipped" in out
        assert "recovered: snapshot=3" in out

        with open(os.path.join(directory, "state.npz"), "r+b") as handle:
            handle.truncate(40)
        assert main(["recover", directory, "--guard"]) == 0
        out = capsys.readouterr().out
        assert "state record: rejected (" in out
        assert "3 replayed, 0 skipped" in out
        assert "recovered: snapshot=3" in out

    def test_recover_missing_directory_fails(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "void")]) == 1
        assert "recovery failed" in capsys.readouterr().err

    def test_wal_verify_clean(self, tmp_path, capsys):
        directory = self.build_state(tmp_path)
        assert main(["wal-verify", os.path.join(directory, "wal")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_wal_verify_missing_directory_fails(self, tmp_path, capsys):
        assert main(["wal-verify", str(tmp_path / "missing")]) == 1
        assert "is not a directory" in capsys.readouterr().err

    def test_wal_verify_damage(self, tmp_path, capsys):
        from repro.resilience.faults import corrupt_record_byte

        directory = self.build_state(tmp_path)
        wal_dir = os.path.join(directory, "wal")
        corrupt_record_byte(wal_dir, record_index=1)
        assert main(["wal-verify", wal_dir]) == 1
        captured = capsys.readouterr()
        assert "corrupt records: 1" in captured.out
        assert "DAMAGED" in captured.err

    def test_recover_quarantines_corrupt_record(self, tmp_path, capsys):
        from repro.resilience.faults import corrupt_record_byte

        directory = self.build_state(tmp_path)
        corrupt_record_byte(os.path.join(directory, "wal"), record_index=1)
        assert main(["recover", directory, "--guard"]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined" in out
        assert "2 replayed" in out


class TestValidate:
    def test_validator_passes(self):
        report = validate_engines(
            num_vertices=40, num_edges=200, num_batches=1, seed=3,
            algorithms=["ppsp"],
        )
        assert report.ok
        assert report.checks == 7  # seven engines, one batch

    def test_cli_validate(self, capsys):
        code = main(
            [
                "validate",
                "--vertices",
                "40",
                "--edges",
                "200",
                "--batches",
                "1",
                "--algorithm",
                "reach",
            ]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_validator_detects_corruption(self, monkeypatch):
        """Failure injection: a corrupted engine must be caught."""
        from repro.core import engine as engine_module

        original = engine_module.CISGraphEngine._do_batch

        def corrupted(self, batch):
            result = original(self, batch)
            result.answer = -123.0
            return result

        monkeypatch.setattr(engine_module.CISGraphEngine, "_do_batch", corrupted)
        report = validate_engines(
            num_vertices=40, num_edges=200, num_batches=1, seed=3,
            algorithms=["ppsp"],
        )
        assert not report.ok
        assert any("cisgraph-o" in line for line in report.lines)


@pytest.mark.telemetry
class TestTelemetryCLI:
    def test_query_with_telemetry_exports_run(self, tmp_path, capsys):
        out_dir = str(tmp_path / "tel")
        assert main(["query", "--batches", "1", "--telemetry", out_dir]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        for name in ("events.jsonl", "metrics.json", "metrics.prom"):
            assert os.path.exists(os.path.join(out_dir, name)), name

    def test_query_without_telemetry_writes_nothing(self, tmp_path, capsys):
        assert main(["query", "--batches", "1"]) == 0
        assert "telemetry:" not in capsys.readouterr().out

    def test_query_telemetry_reconciles_with_opcounts(self, tmp_path, capsys):
        """Acceptance criterion: exported engine counters match the printed
        per-batch relaxation totals."""
        import json

        out_dir = str(tmp_path / "tel")
        assert main(["query", "--batches", "2", "--telemetry", out_dir]) == 0
        printed = capsys.readouterr().out
        expected = sum(
            int(part.split("=")[1])
            for line in printed.splitlines()
            for part in line.split()
            if part.startswith("relaxations=")
        )
        with open(os.path.join(out_dir, "metrics.json")) as handle:
            document = json.load(handle)
        ops = document["metrics"]["engine_ops_total"]["series"]
        recorded = sum(
            series["value"]
            for series in ops
            if ["op", "relaxations"] in series["labels"]
            and ["phase", "init"] not in series["labels"]
        )
        assert recorded == expected

    def test_experiment_with_telemetry(self, tmp_path, capsys):
        out_dir = str(tmp_path / "tel")
        assert main(
            ["experiment", "fig5a", "--batches", "1", "--telemetry", out_dir]
        ) == 0
        assert os.path.exists(os.path.join(out_dir, "events.jsonl"))

    def test_telemetry_summarize(self, tmp_path, capsys):
        out_dir = str(tmp_path / "tel")
        assert main(["query", "--batches", "1", "--telemetry", out_dir]) == 0
        capsys.readouterr()
        assert main(["telemetry", "summarize", out_dir]) == 0
        out = capsys.readouterr().out
        assert "engine.batch" in out
        assert "engine_ops_total" in out

    def test_telemetry_dump_with_limit(self, tmp_path, capsys):
        out_dir = str(tmp_path / "tel")
        assert main(["query", "--batches", "1", "--telemetry", out_dir]) == 0
        capsys.readouterr()
        assert main(["telemetry", "dump", out_dir, "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "more events" in out

    def test_telemetry_export_prom_and_json(self, tmp_path, capsys):
        out_dir = str(tmp_path / "tel")
        assert main(["query", "--batches", "1", "--telemetry", out_dir]) == 0
        capsys.readouterr()
        assert main(["telemetry", "export", out_dir, "--format", "prom"]) == 0
        assert "# TYPE engine_ops_total counter" in capsys.readouterr().out
        assert main(["telemetry", "export", out_dir, "--format", "json"]) == 0
        assert '"schema_version"' in capsys.readouterr().out

    def test_telemetry_on_missing_path_fails(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["telemetry", "dump", missing]) == 1
        assert main(["telemetry", "export", missing]) == 1
        assert main(["telemetry", "summarize", missing]) == 0  # reports "none found"
        assert "no telemetry found" in capsys.readouterr().out
