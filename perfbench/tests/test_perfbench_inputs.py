"""Input pinning, digest stability, the oracle, BENCHMARK.json agreement."""

import json
import os
import subprocess
import sys

from perfbench import ROOT, drive, layers, oracle, run
from perfbench.workloads import WORKLOADS, generate

_DIGEST = (
    "import sys; sys.path[:0] = [{root!r}, {src!r}];"
    "from perfbench.workloads import WORKLOADS, generate;"
    "print(generate(WORKLOADS[{name!r}].quick(), 0).digest)"
)


def _digest_in_subprocess(name: str, hashseed: str) -> str:
    code = _DIGEST.format(root=ROOT, src=os.path.join(ROOT, "src"), name=name)
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    done = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=120, check=True)
    return done.stdout.strip()


def test_digest_is_stable_across_processes_and_pinned():
    with open(run.PINS_PATH) as handle:
        pins = json.load(handle)["quick"]
    for name in ("core-filter", "serve-readmix"):
        first = _digest_in_subprocess(name, "0")
        second = _digest_in_subprocess(name, "4242")
        assert first == second == pins[name]


def test_seed_varies_stream_and_reads_together():
    spec = WORKLOADS["serve-readmix"].quick()
    zero, one = generate(spec, 0), generate(spec, 1)
    assert zero.digest != one.digest
    assert zero.reads != one.reads
    assert [list(b) for b in zero.batches] != [list(b) for b in one.batches]
    again = generate(spec, 1)
    assert again.digest == one.digest


def test_standing_sources_are_balanced_over_the_shards():
    inputs = generate(WORKLOADS["serve-write"].quick(), 0)
    sources = sorted({source for source, _ in inputs.standing})
    assert len(inputs.standing) == 16 and len(sources) == 8
    assert sum(source % 2 for source in sources) == 4
    assert inputs.anchor.source not in sources


def test_drift_from_the_pin_refuses_to_report():
    inputs = generate(WORKLOADS["core-repair"].quick(), 0)
    assert run.check_pin(inputs, quick=True) is None
    inputs.digest = "0" * 64
    assert "differs from the pinned" in run.check_pin(inputs, quick=True)
    inputs.seed = 5
    assert run.check_pin(inputs, quick=True) is None


def test_oracle_mismatch_counts_as_a_failed_operation():
    inputs = generate(WORKLOADS["core-filter"].quick(), 3)
    expected = oracle.expected_core(inputs)
    good = drive.replay_core(inputs, expected)
    assert good.failed == 0 and good.attempted == 5 * 2 * 8
    wrong = [value + 1.0 for value in expected]
    bad = drive.replay_core(inputs, wrong)
    assert bad.failed == len(inputs.engines)
    assert "cold start says" in bad.failures[0]
    assert list(oracle.check_answers({(1, 2): 3.0}, {(1, 2): 4.0, (5, 6): 0.0}))


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert len(bench["per_layer"]) <= 128
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        spec.name: spec.why for spec in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])
    # the bare documented command is the committed run: same length, and a
    # replay count that depends on nothing else
    from perfbench.__main__ import _parser

    assert _parser().parse_args(["run"]).seconds == bench["run_seconds"]
    counts = {name: run.replay_count(spec, bench["run_seconds"])
              for name, spec in WORKLOADS.items()}
    assert counts == {"core-repair": 5, "core-filter": 8,
                      "serve-write": 8, "serve-readmix": 8}
    assert run.replay_count(WORKLOADS["core-repair"], 0.5) == run.MIN_REPS
