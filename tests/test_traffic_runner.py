"""Run bundles, the reproduce contract, and the bench CLI.

Covers the runner half of the traffic subsystem: every run leaves a
complete isolated bundle (manifest + streamed metrics + summary), the
``reproduce`` entry point replays the manifest and matches the summary
within the stated tolerance (and *fails* when the bundle was tampered
with — a reproduce check that cannot fail verifies nothing), the
flash-crowd static-vs-adaptive comparison separates (the controller's
proof of value), and the 10k-session acceptance run from the issue
completes end to end.  Includes the ``BENCH_traffic.json`` value pin.
"""

import functools
import json
import os

import pytest

from repro.bench.runner import (
    EXACT_KEYS,
    RELATIVE_KEYS,
    RUN_SCHEMA_VERSION,
    RunConfig,
    reproduce_run,
    run_traffic,
)
from repro.bench.traffic import builtin_profile
from repro.cli import main as cli_main

pytestmark = [pytest.mark.traffic, pytest.mark.serve]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small_config(**overrides):
    profile = builtin_profile(
        overrides.pop("profile", "steady")
    ).scaled(
        sessions=overrides.pop("sessions", 200),
        seed=overrides.pop("seed", 11),
    )
    return RunConfig(profile=profile, **overrides)


class TestRunBundle:
    def test_bundle_is_complete(self, tmp_path):
        report = run_traffic(
            small_config(), results_root=str(tmp_path), run_id="r1"
        )
        run_dir = os.path.join(str(tmp_path), "r1")
        assert report.run_dir == run_dir
        for name in ("manifest.json", "metrics.jsonl", "summary.json"):
            assert os.path.exists(os.path.join(run_dir, name)), name
        assert os.path.isdir(os.path.join(run_dir, "state"))

        with open(os.path.join(run_dir, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["run_id"] == "r1"
        assert manifest["config"]["profile"]["sessions"] == 200
        assert manifest["tolerance"]["exact"] == list(EXACT_KEYS)
        assert manifest["tolerance"]["relative"] == list(RELATIVE_KEYS)
        assert "git_rev" in manifest

        with open(os.path.join(run_dir, "metrics.jsonl")) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert len(records) == report.summary["events"]["batch"]
        assert records[-1]["epoch"] == len(records)
        assert all("wall_latency_s" in r for r in records)

    def test_summary_content(self, tmp_path):
        report = run_traffic(
            small_config(), results_root=str(tmp_path), run_id="r2"
        )
        summary = report.summary
        assert summary["events"]["register"] == 200
        assert summary["sessions"]["distinct"] > 0
        assert summary["admission"]["admitted"] > 0
        assert summary["throughput"]["updates_per_sec"] > 0
        assert summary["answers"]["digest"]
        # steady traffic at 20/s against a 24/s bucket: no shedding,
        # so the default SLO holds
        assert summary["slo"]["met"], summary["slo"]["violations"]
        assert report.slo_met

    def test_run_id_defaults_to_profile_and_seed(self, tmp_path):
        report = run_traffic(small_config(), results_root=str(tmp_path))
        assert report.run_id.startswith("steady-s11-")

    def test_config_round_trips_through_manifest(self):
        config = small_config(adaptive=True, num_shards=3)
        assert RunConfig.from_dict(
            json.loads(json.dumps(config.as_dict()))
        ) == config


class TestReproduce:
    def test_reproduce_matches(self, tmp_path):
        report = run_traffic(
            small_config(), results_root=str(tmp_path), run_id="r3"
        )
        outcome = reproduce_run(
            report.run_dir, scratch_dir=str(tmp_path / "scratch")
        )
        assert outcome["ok"], outcome["failures"]
        assert outcome["checked"] == len(EXACT_KEYS) + len(RELATIVE_KEYS)
        assert outcome["run_id"] == "r3"

    def test_reproduce_detects_tampering(self, tmp_path):
        report = run_traffic(
            small_config(), results_root=str(tmp_path), run_id="r4"
        )
        summary_path = os.path.join(report.run_dir, "summary.json")
        with open(summary_path) as handle:
            summary = json.load(handle)
        summary["admission"]["rejected"] += 5
        summary["events"]["digest"] = "0" * 64
        with open(summary_path, "w") as handle:
            json.dump(summary, handle)
        outcome = reproduce_run(report.run_dir)
        assert not outcome["ok"]
        joined = "\n".join(outcome["failures"])
        assert "admission.rejected" in joined
        assert "events.digest" in joined

    def test_reproduce_flags_throughput_cliff(self, tmp_path):
        report = run_traffic(
            small_config(), results_root=str(tmp_path), run_id="r5"
        )
        summary_path = os.path.join(report.run_dir, "summary.json")
        with open(summary_path) as handle:
            summary = json.load(handle)
        # a 1000x slowdown is outside any honest wall-clock tolerance
        summary["throughput"]["updates_per_sec"] /= 1000.0
        with open(summary_path, "w") as handle:
            json.dump(summary, handle)
        outcome = reproduce_run(report.run_dir)
        assert any(
            "updates_per_sec" in failure for failure in outcome["failures"]
        )

    @pytest.mark.parametrize("version", [1, None])
    def test_reproduce_refuses_another_schema_version(self, tmp_path, version):
        report = run_traffic(
            small_config(), results_root=str(tmp_path), run_id="r6"
        )
        manifest_path = os.path.join(report.run_dir, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        if version is None:
            del manifest["schema_version"]
        else:
            manifest["schema_version"] = version
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        outcome = reproduce_run(
            report.run_dir, scratch_dir=str(tmp_path / "scratch")
        )
        assert not outcome["ok"]
        assert outcome["checked"] == 0
        assert not (tmp_path / "scratch").exists()  # nothing was replayed
        (failure,) = outcome["failures"]
        assert repr(version) in failure
        assert str(RUN_SCHEMA_VERSION) in failure


class TestStaticVersusAdaptive:
    def test_flash_crowd_separates_controller_value(self, tmp_path):
        profile = builtin_profile("flash-crowd")
        static = run_traffic(
            RunConfig(profile=profile),
            results_root=str(tmp_path), run_id="static",
        )
        adaptive = run_traffic(
            RunConfig(profile=profile, adaptive=True),
            results_root=str(tmp_path), run_id="adaptive",
        )
        # identical traffic: same event stream, same final answers
        assert (
            static.summary["events"]["digest"]
            == adaptive.summary["events"]["digest"]
        )
        assert (
            static.summary["answers"]["digest"]
            == adaptive.summary["answers"]["digest"]
        )
        # the static bucket drowns in the 6x burst; the controller
        # raises admission mid-burst and keeps the shed rate bounded
        assert not static.summary["slo"]["met"]
        assert static.summary["slo"]["shed_rate"] > 0.25
        assert adaptive.summary["slo"]["met"], (
            adaptive.summary["slo"]["violations"]
        )
        assert (
            adaptive.summary["slo"]["shed_rate"]
            < static.summary["slo"]["shed_rate"] / 2
        )
        assert adaptive.summary["adaptive"]["decisions"] > 0


class TestAcceptanceScale:
    def test_ten_thousand_session_run_reproduces(self, tmp_path):
        profile = builtin_profile("steady").scaled(sessions=10_000, seed=1)
        report = run_traffic(
            RunConfig(profile=profile),
            results_root=str(tmp_path), run_id="accept-10k",
        )
        assert report.summary["events"]["register"] == 10_000
        # Zipf skew + dedupe: 10k arrivals collapse onto the bounded
        # standing-query pool — that is what makes this scale tractable
        assert (
            report.summary["sessions"]["distinct"]
            <= profile.distinct_pairs
        )
        outcome = reproduce_run(report.run_dir)
        assert outcome["ok"], outcome["failures"]


class TestBenchCli:
    def test_traffic_and_reproduce_commands(self, tmp_path, capsys):
        code = cli_main([
            "bench", "traffic", "--profile", "steady",
            "--sessions", "150", "--seed", "3",
            "--results", str(tmp_path), "--run-id", "cli-run",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "cli-run" in out and "slo: met" in out
        code = cli_main(["bench", "reproduce",
                         str(tmp_path / "cli-run")])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out

    def test_violating_run_exits_nonzero_unless_ungraded(
        self, tmp_path, capsys
    ):
        args = [
            "bench", "traffic", "--profile", "flash-crowd",
            "--results", str(tmp_path), "--run-id", "cli-flash",
        ]
        assert cli_main(args) == 1
        capsys.readouterr()
        assert cli_main(args[:2] + ["--no-grade"] + args[2:]) == 0

    def test_profiles_listing(self, capsys):
        assert cli_main(["bench", "profiles"]) == 0
        out = capsys.readouterr().out
        for name in ("steady", "diurnal", "flash-crowd"):
            assert name in out

    def test_unknown_profile_is_a_usage_error(self, tmp_path, capsys):
        code = cli_main([
            "bench", "traffic", "--profile", "nope",
            "--results", str(tmp_path),
        ])
        assert code == 2
        assert "unknown traffic profile" in capsys.readouterr().err


@pytest.mark.traffic
def test_traffic_pin_values_reproduce(tmp_path):
    """``BENCH_traffic.json`` pins every exact key of the seed-0
    flash-crowd summaries, static and adaptive: the virtual clock must
    reproduce each value."""
    with open(os.path.join(ROOT, "BENCH_traffic.json")) as handle:
        pinned = json.load(handle)
    assert set(pinned) == {"profile", "seed", "static", "adaptive"}
    profile = builtin_profile(pinned["profile"]).scaled(seed=pinned["seed"])
    for mode in ("static", "adaptive"):
        summary = run_traffic(
            RunConfig(profile=profile, adaptive=mode == "adaptive"),
            results_root=str(tmp_path),
            run_id=mode,
        ).summary
        fresh = {
            key: functools.reduce(dict.__getitem__, key.split("."), summary)
            for key in EXACT_KEYS
        }
        assert fresh == pinned[mode], mode
