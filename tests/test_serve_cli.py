"""CLI tests for ``repro serve`` and the serve additions to ``repro info``."""

import os

import pytest

from repro.cli import main

pytestmark = pytest.mark.serve

#: a complete scripted session: two standing queries, a commit with adds
#: and a delete, cached reads, stats, explicit close
SCRIPT = """\
# demo serving session
register 0 5
register 1 7
add 2 3 1.5
add 0 2 1.0
commit
delete 2 3 1.5
commit
query 0 5
query 0 5
stats
close
"""


class TestServeCommand:
    def test_scripted_session_from_file(self, tmp_path, capsys):
        script = tmp_path / "serve.txt"
        script.write_text(SCRIPT)
        code = main([
            "serve", "--script", str(script), "--dataset", "OR",
            "--shards", "2", "--queue-bound", "16",
            "--state-dir", str(tmp_path / "state"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving" in out
        assert "register: session=s0001" in out
        assert "register: session=s0002" in out
        assert out.count("commit: ") == 2
        assert "close: closed=True" in out
        assert "11 commands, 0 protocol errors" in out
        # the state directory holds the WAL + checkpoint of the session
        assert os.path.isdir(tmp_path / "state")

    def test_protocol_errors_are_reported_not_fatal(self, tmp_path, capsys):
        script = tmp_path / "serve.txt"
        script.write_text(
            "register 0 5\n"
            "register 0 5\n"   # duplicate -> protocol error, run continues
            "query 0 5\n"
            "close\n"
        )
        code = main(["serve", "--script", str(script),
                     "--state-dir", str(tmp_path / "state")])
        out = capsys.readouterr().out
        assert code == 0
        assert "register: ERROR DuplicateQueryError" in out
        assert "query: answer=" in out
        assert "1 protocol errors" in out

    def test_unknown_command_aborts_with_script_error(self, tmp_path):
        from repro.serve.protocol import ScriptError

        script = tmp_path / "serve.txt"
        script.write_text("frobnicate 1 2\n")
        with pytest.raises(ScriptError):
            main(["serve", "--script", str(script),
                  "--state-dir", str(tmp_path / "state")])

    def test_telemetry_flag_exports_serve_metrics(self, tmp_path, capsys):
        script = tmp_path / "serve.txt"
        script.write_text(SCRIPT)
        telemetry_dir = tmp_path / "tel"
        code = main([
            "serve", "--script", str(script),
            "--state-dir", str(tmp_path / "state"),
            "--telemetry", str(telemetry_dir),
        ])
        assert code == 0
        capsys.readouterr()
        assert (telemetry_dir / "metrics.json").exists()
        assert (telemetry_dir / "events.jsonl").exists()
        prom = (telemetry_dir / "metrics.prom").read_text()
        assert "serve_queue_depth" in prom
        assert "serve_sessions" in prom
        assert "serve_cache_hit_rate" in prom
        assert "serve_answer_seconds" in prom

    def test_explicit_anchor_and_policy_flags(self, tmp_path, capsys):
        script = tmp_path / "serve.txt"
        script.write_text("stats\nclose\n")
        code = main([
            "serve", "--script", str(script),
            "--state-dir", str(tmp_path / "state"),
            "--anchor-source", "0", "--anchor-destination", "9",
            "--policy", "delay", "--dedupe",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "policy delay" in out
        assert "anchor Q(0 -> 9)" in out


class TestInfoInventory:
    def test_info_lists_the_serving_layer(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Serving (repro serve, docs/serving.md):" in out
        assert "register, deregister, add, delete, commit" in out
        assert "pending -> warming -> live -> degraded -> closed" in out
        assert "reject (fail fast), delay (park until deadline)" in out

    def test_info_lists_every_script_verb(self, capsys):
        """Each ``_cmd_*`` handler of the script runner is a verb ``info``
        names."""
        from repro.serve.protocol import ScriptRunner

        assert main(["info"]) == 0
        line = next(
            row for row in capsys.readouterr().out.splitlines()
            if "script commands:" in row
        )
        listed = line.split(":", 1)[1].replace(",", " ").split()
        handlers = [
            name[len("_cmd_"):] for name in dir(ScriptRunner)
            if name.startswith("_cmd_")
        ]
        assert sorted(listed) == sorted(handlers)
        assert {"explain", "control"} <= set(listed)
