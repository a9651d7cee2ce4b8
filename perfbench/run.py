"""One workload, one process: generate, replay, check, report.

``python -m perfbench run --workload W`` lands here (re-executed with
``PYTHONHASHSEED=0``).  The end-to-end pass replays the stream on fresh
state a fixed number of times and reports medians; the traced pass
(``--trace 1``) is its own invocation so end-to-end runs never pay for it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from typing import Dict, List, Optional

from perfbench import ROOT, drive, layers, oracle, stats
from perfbench.workloads import WORKLOADS, Inputs, WorkloadSpec, generate

MIN_REPS = 3

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
DEFAULT_OUT = os.path.join(ROOT, "perfbench", ".work")

#: end-to-end metric -> unit (BENCHMARK.json repeats these with bounds)
END_TO_END = {
    "setup_s": "s",
    "op_p90_vs_setup": "%",
    "peak_rss_mb": "MB",
}
#: Printed and stored (under ``detail``) by every end-to-end run, compared
#: without a verdict: name -> (unit, better).  Demoted from end-to-end because
#: none holds an allowed bound on every workload (README, noise rules 3, 5, 6).
UNBOUNDED = {
    "op_p90_ms": ("ms", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
}


def state_fs(path: str) -> str:
    """Filesystem type holding ``path`` (longest matching mount point)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _, mount, fstype = line.split()[:3]
                if path.startswith(mount.rstrip("/") + "/") or path == mount:
                    if len(mount) > len(best):
                        best, kind = mount, fstype
    except OSError:
        pass
    return kind


def git_rev() -> Optional[str]:
    """The checkout's commit, read from ``.git`` so that no process is started.

    None outside a git repository (the driver's checkouts) and for a packed ref.
    """
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as handle:
                head = handle.read().strip()
        return head[:7]
    except OSError:
        return None


def environment(out: str) -> Dict[str, object]:
    """The block every result file carries."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "state_fs": state_fs(out),
        "wal_sync": drive.WAL_SYNC,
        "loadavg_start": list(os.getloadavg()),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }


def check_pin(inputs: Inputs, quick: bool) -> Optional[str]:
    """With ``--seed 0`` the inputs must be the committed ones."""
    if inputs.seed != 0:
        return None
    with open(PINS_PATH) as handle:
        pins = json.load(handle)
    want = pins["quick" if quick else "full"].get(inputs.spec.name)
    if want != inputs.digest:
        return (
            f"input_digest {inputs.digest} differs from the pinned {want}: "
            "a generator change is a benchmark change, made in its own PR"
        )
    return None


def replay_count(spec: WorkloadSpec, seconds: float) -> int:
    """Replays in a run: a function of the workload and ``--seconds`` alone.

    Never of how fast the program under test ran, so two commits compared at
    the same ``--seconds`` are reduced over the same number of replays.
    """
    return max(MIN_REPS, round(seconds / spec.replay_s))


def end_to_end(inputs: Inputs, reps: int, state_dir: str) -> Dict[str, object]:
    """Replay ``reps`` times, check, and reduce to the end-to-end metrics."""
    spec = inputs.spec
    expected = oracle.expected(inputs)
    replays = [drive.replay(inputs, expected, state_dir) for _ in range(reps)]
    result = drive.verdict(replays)
    if result["failed"]:
        # A call that raised has no latency and a wrong answer has no speed:
        # a run with a failed operation reports the failures, no timings.
        return {**result, "metrics": {}, "detail": {"reps": reps}}

    columns = [
        replay.read_s if spec.measured == "read" else replay.batch_s
        for replay in replays
    ]
    latencies = stats.per_call_median(columns)
    tail = stats.reported_tail(len(latencies))
    setups = [replay.setup_s for replay in replays]
    # each call as a share of one cold start of its own replay: the set-up
    # time per engine (a serve replay sets up one harness)
    starts = max(1, len(inputs.engines))
    shares = [
        [seconds * starts / setup for seconds in column]
        for column, setup in zip(columns, setups)
    ]
    p90 = stats.percentile(latencies, tail)
    share = stats.per_call_median(shares)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p90_vs_setup": stats.percentile(share, tail) * 100.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    total = sum(latencies)
    return {
        **result,
        "metrics": metrics,
        "detail": {
            "measured": spec.measured,
            "reps": reps,
            "setups": setups,
            "samples": len(latencies),
            "samples_beyond_tail": stats.samples_beyond(tail, len(latencies)),
            "tail_permille": tail,
            # the UNBOUNDED numbers; ops_per_s is plain operations / summed
            # call time, nothing capped
            "op_p90_ms": p90 * 1e3,
            "op_p50_ms": stats.percentile(latencies, 500) * 1e3,
            "op_p50_vs_setup": stats.percentile(share, 500) * 100.0,
            "ops_per_s": stats.throughput(inputs.measured_ops, columns),
            "op_p95_ms": stats.percentile(latencies, 950) * 1e3,
            "op_p99_ms": stats.percentile(latencies, 990) * 1e3,
            "op_max_ms": max(latencies) * 1e3,
            "ops": inputs.measured_ops,
            "measured_s": total,
            "time_beyond_tail_share":
                sum(x - p90 for x in latencies if x > p90) / total,
            "replay_walls_s": [replay.wall_s for replay in replays],
        },
        # every replay's per-operation times in stream order, for re-analysis
        # (with ``setups``, the shares of a cold start follow)
        "latencies_ms": [
            [round(latency * 1e3, 4) for latency in column] for column in columns
        ],
    }


def run_workload(spec: WorkloadSpec, seed: int, seconds: float, trace: bool,
                 quick: bool, out: str) -> int:
    """Run one workload in this process; returns the exit code."""
    started = time.perf_counter()
    os.makedirs(out, exist_ok=True)
    env = environment(out)
    state_dir = os.path.join(out, f"state-{os.getpid()}")
    if quick:
        spec = spec.quick()
    inputs = generate(spec, seed)
    print(f"workload {spec.name} seed {seed} "
          f"({'quick' if quick else 'full'}, trace {int(trace)})")
    print(f"  gen_s            {inputs.gen_s:.4f} s")
    print(f"  state_fs         {env['state_fs']}")
    print(f"  wal_sync         {env['wal_sync']}")
    print(f"  input_digest     {inputs.digest}")
    drift = check_pin(inputs, quick)
    if drift:
        print(f"perfbench: {drift}", file=sys.stderr)
        return 2
    try:
        if trace:
            result = layers.traced(inputs, state_dir, out)
        else:
            result = end_to_end(inputs, replay_count(spec, seconds), state_dir)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)

    units = layers.UNITS if trace else END_TO_END
    for name, value in result["metrics"].items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    detail = dict(result["detail"])
    if not trace:
        for name, (unit, _) in UNBOUNDED.items():
            if name in detail:
                print(f"  {name:<34} {detail.pop(name):.6g} {unit}  (no bound)")
    for name, value in detail.items():
        print(f"  . {name:<32} {value}")
    print(f"  answers_digest   {result['answers_digest']}")
    print(f"  opcounts_digest  {result['opcounts_digest']}")
    print(f"  ops_attempted    {result['attempted']} count")
    print(f"  ops_failed       {result['failed']} count")
    for what in result["failures"]:
        print(f"  FAILED: {what}")
    env["wall_s"] = time.perf_counter() - started
    document = {
        "workload": spec.name,
        "seed": seed,
        "quick": quick,
        "trace": trace,
        "claim": None,
        "input_digest": inputs.digest,
        "gen_s": inputs.gen_s,
        "environment": env,
        **result,
    }
    write_result(out, document)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


def write_result(out: str, document: Dict[str, object]) -> str:
    """Write the run's result file under a name no earlier run took."""
    stem = (f"{document['workload']}-seed{document['seed']}"
            f"-trace{int(document['trace'])}")
    index = 0
    while True:
        path = os.path.join(out, f"{stem}-{index}.json")
        try:
            handle = open(path, "x")
        except FileExistsError:
            index += 1
            continue
        with handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return path


def resolve_workloads(name: Optional[str]) -> List[WorkloadSpec]:
    if name is None:
        return list(WORKLOADS.values())
    if name not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {name!r}; "
                 f"pick one of {', '.join(WORKLOADS)}")
    return [WORKLOADS[name]]
