"""``--quick`` through the real command, and ``compare`` on result files."""

import json
import os
import subprocess
import sys

import pytest

from perfbench import ROOT, compare, layers, run, stats
from perfbench.workloads import WORKLOADS


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args], cwd=ROOT, text=True,
        capture_output=True, timeout=170,
    )


@pytest.fixture
def orphans():
    """Processes a finished command left running become children of this one."""
    if not sys.platform.startswith("linux"):
        pytest.skip("needs prctl and /proc")
    import ctypes

    prctl = ctypes.CDLL(None).prctl
    prctl.restype = ctypes.c_int
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    assert prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER

    def left_behind():
        found = []
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    parent = handle.read().rsplit(")", 1)[1].split()[1]
                with open(f"/proc/{pid}/cmdline") as handle:
                    command = handle.read().replace("\0", " ")
            except OSError:
                continue
            if int(parent) == os.getpid():
                found.append((int(pid), command))
        return found

    yield left_behind
    prctl(36, 0, 0, 0, 0)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_runs_green_through_the_oracle(workload, tmp_path, orphans):
    for trace, names in (("0", run.END_TO_END), ("1", layers.UNITS)):
        done = _cli("run", "--workload", workload, "--quick", "--seed", "0",
                    "--seconds", "1", "--trace", trace, "--out", str(tmp_path))
        assert done.returncode == 0, done.stdout + done.stderr
        assert orphans() == []  # every process it started has ended
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert {k: v["unit"] for k, v in last["metrics"].items()} == names
        assert "ops_attempted" in done.stdout and "ops_failed" in done.stdout
    results = sorted(p for p in os.listdir(tmp_path) if p.endswith(".json"))
    assert len(results) == 2
    with open(tmp_path / results[0]) as handle:
        document = json.load(handle)
    assert document["claim"] is None and document["trace"] is False
    assert {"nproc", "python", "numpy", "git_rev", "state_fs",
            "loadavg_start"} <= set(document["environment"])
    assert not [p for p in os.listdir(tmp_path) if p.startswith("state-")]
    # the file holds what the bounded latency is made of: each call as a
    # share of one cold start of its own replay, per-call medians, the tail
    detail = document["detail"]
    starts = {"core-repair": 8, "core-filter": 10}.get(workload, 1)
    shares = [[ms / 1e3 * starts / setup for ms in column]
              for column, setup in zip(document["latencies_ms"], detail["setups"])]
    tail = stats.percentile(stats.per_call_median(shares), detail["tail_permille"])
    assert document["metrics"]["op_p90_vs_setup"] == pytest.approx(
        tail * 100.0, rel=2e-2)  # latencies_ms is rounded to 0.1 us


def test_unknown_workload_exits_nonzero_without_a_result():
    done = _cli("run", "--workload", "nope")
    assert done.returncode != 0
    assert "{" not in done.stdout


@pytest.mark.parametrize("workload, target, fail_from", [
    ("serve-write", "repro.serve.harness.ServeHarness.submit", 3),
    ("core-repair", "repro.core.engine.CISGraphEngine.on_batch", 1),
])
def test_a_call_that_raises_is_reported_not_a_traceback(
        workload, target, fail_from, tmp_path, monkeypatch, capsys):
    import importlib

    module, owner, method = target.rsplit(".", 2)
    cls = getattr(importlib.import_module(module), owner)
    real = getattr(cls, method)
    calls = []

    def flaky(self, batch):
        calls.append(batch)
        if len(calls) >= fail_from:
            raise RuntimeError("injected")
        return real(self, batch)

    monkeypatch.setattr(cls, method, flaky)
    for trace in (False, True):
        del calls[:]
        code = run.run_workload(WORKLOADS[workload], 0, 6.0, trace, True,
                                str(tmp_path))
        out = capsys.readouterr().out
        last = json.loads(out.strip().splitlines()[-1])
        assert code == 1 and last["correct"] is False
        assert last["failed"] >= 1 and last["metrics"] == {}
        assert "ops_failed" in out and "injected" in out


def _result(directory, index, workload="core-repair", seed=0, **metrics):
    base = {"setup_s": 1.0, "op_p90_vs_setup": 10.0, "peak_rss_mb": 50.0}
    base.update(metrics)
    document = {
        "workload": workload, "seed": seed, "quick": False, "trace": False,
        "failed": 0, "attempted": 10, "metrics": base,
        "detail": {"op_p90_ms": 9.0, "op_p50_ms": 2.0,
                   "ops_per_s": 100.0 + 90.0 * index},
        "input_digest": "i", "answers_digest": "a", "opcounts_digest": "o",
        "counts": {"useless": 5},
    }
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"r{index}.json"), "w") as handle:
        json.dump(document, handle)
    return document


def test_compare_same_differs_unresolved(tmp_path, capsys):
    a, b, c, d = (str(tmp_path / name) for name in "abcd")
    for index in range(5):
        _result(a, index, op_p90_vs_setup=10.0 + 0.1 * index)
        _result(b, index, op_p90_vs_setup=10.1 + 0.1 * index)
        _result(c, index, op_p90_vs_setup=14.0 + 0.1 * index)  # 40% slower
        _result(d, index, op_p90_vs_setup=10.0 + 4.0 * index)  # spread > bound

    def verdicts():
        rows = capsys.readouterr().out.splitlines()
        return {row.split()[1]: row.split()[-1] for row in rows
                if row.startswith("core-repair")}

    assert compare.main(a, b) == 0
    words = verdicts()
    # the demoted numbers are listed and, however they spread, not judged
    for name in run.UNBOUNDED:
        assert words.pop(name) == "bound)"
    assert set(words.values()) == {"same"}
    assert compare.main(a, c) == 1
    assert verdicts()["op_p90_vs_setup"] == "differs"
    assert compare.main(a, d) == 0
    assert verdicts()["op_p90_vs_setup"] == "unresolved"


def test_compare_fails_on_an_exact_field_mismatch(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    _result(a, 0)
    document = _result(b, 0)
    document["counts"] = {"useless": 6}
    with open(os.path.join(b, "r0.json"), "w") as handle:
        json.dump(document, handle)
    assert compare.main(a, b) == 1
    assert "EXACT MISMATCH" in capsys.readouterr().out
