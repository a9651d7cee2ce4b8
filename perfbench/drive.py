"""Closed-loop drivers: one client, one driver thread, public API only.

A *replay* sets the program up on fresh state, feeds it the workload's
stream one call at a time, and times each call on its own
(``perf_counter`` immediately around the call; digests, counters and the
oracle run between calls, outside every timed window).
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.algorithms.registry import get_algorithm
from repro.core.engine import CISGraphEngine
from repro.metrics import OpCounts
from repro.serve import ServeHarness, SessionState

from perfbench import oracle
from perfbench.workloads import NUM_SHARDS, Inputs

#: serve-readmix re-solves the reads of every Nth commit cold
READ_CHECK_EVERY = 10
#: The flush policy of every run, stated in each result file.  State
#: directories sit inside the checkout, on whatever disk holds it; on the
#: sandbox's shared ext4 one fsync is 1.1 ms p50 / 3.4 ms p90 / 9 ms max of
#: other tenants' I/O inside a 5 ms commit and says nothing about deployment
#: hardware, so the WAL does not fsync per append.  ``os.fsync`` itself is
#: untouched: ``save_checkpoint`` (which has no such option) flushes for real.
WAL_SYNC = False
_CLASSES = (
    "valuable_additions", "nondelayed_deletions", "delayed_deletions", "useless",
)


@dataclass
class Replay:
    """What one replay measured and observed."""

    setup_s: float = 0.0
    #: per-call seconds and the updates each batch call carried
    batch_s: List[float] = field(default_factory=list)
    batch_ops: List[int] = field(default_factory=list)
    read_s: List[float] = field(default_factory=list)
    #: True where the read was served without a solve
    read_hit: List[bool] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: exact counts: classification classes, OpCounts totals, cache stats
    counts: Dict[str, int] = field(default_factory=dict)
    #: classification classes per algorithm
    classes_by_algorithm: Dict[str, Dict[str, int]] = field(default_factory=dict)
    answers_digest: str = ""
    opcounts_digest: str = ""
    wall_s: float = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def verdict(replays: List[Replay]) -> Dict[str, object]:
    """Attempts and failures of a run; replays must agree exactly."""
    failed = sum(replay.failed for replay in replays)
    failures = [what for replay in replays for what in replay.failures]
    first = replays[0]
    for index, replay in enumerate(replays[1:], start=2):
        for name in ("answers_digest", "opcounts_digest", "counts"):
            if getattr(replay, name) != getattr(first, name):
                failed += 1
                failures.append(f"replay {index}: {name} differs from replay 1")
    return {
        "attempted": sum(replay.attempted for replay in replays),
        "failed": failed,
        "failures": failures[:20],
        "answers_digest": first.answers_digest,
        "opcounts_digest": first.opcounts_digest,
        "counts": first.counts,
    }


class _Tally:
    """Per-replay answer / OpCounts digests and exact class counts."""

    def __init__(self) -> None:
        self.answers = hashlib.sha256()
        self.response = OpCounts()
        self.post = OpCounts()
        self.classes: Dict[str, Dict[str, int]] = {}

    def batch(self, algorithm: str, answers, result) -> None:
        self.answers.update(repr(answers).encode())
        self.response += result.response_ops
        self.post += result.post_ops
        classes = self.classes.setdefault(algorithm, dict.fromkeys(_CLASSES, 0))
        for name in _CLASSES:
            classes[name] += int(result.stats.get(name, 0))

    def finish(self, replay: Replay) -> None:
        replay.answers_digest = self.answers.hexdigest()
        totals = (self.response.as_dict(), self.post.as_dict())
        replay.opcounts_digest = hashlib.sha256(repr(totals).encode()).hexdigest()
        replay.classes_by_algorithm = self.classes
        for name in _CLASSES:
            replay.counts[name] = sum(c[name] for c in self.classes.values())
        for name, value in (self.response + self.post).as_dict().items():
            replay.counts[f"ops.{name}"] = value


def replay(inputs: Inputs, expected, state_dir: str, telemetry=None) -> Replay:
    """One replay of the workload's stream on fresh state.

    GC stays on during the replay; the collection here, outside every timed
    window, makes collections fall on the same calls in every replay.
    """
    gc.collect()
    if inputs.spec.kind == "core":
        return replay_core(inputs, expected, telemetry)
    return replay_serve(inputs, expected, state_dir, telemetry)


# ----------------------------------------------------------------------
# core workloads: CISGraphEngine, one engine after another
# ----------------------------------------------------------------------
def replay_core(inputs: Inputs, expected: List[float], telemetry=None) -> Replay:
    """Set up and run every engine in turn over the stream.

    ``expected`` holds the oracle's answer per engine on the final graph.
    """
    replay = Replay()
    tally = _Tally()
    started = time.perf_counter()
    for (name, query), want in zip(inputs.engines, expected):
        t0 = time.perf_counter()
        graph = inputs.initial.copy()
        engine = CISGraphEngine(graph, get_algorithm(name), query)
        engine.telemetry = telemetry
        engine.initialize()
        replay.setup_s += time.perf_counter() - t0
        for batch in inputs.batches:
            replay.attempted += 1
            try:
                t0 = time.perf_counter()
                result = engine.on_batch(batch)
                t1 = time.perf_counter()
            except Exception as exc:  # noqa: BLE001 - count it, keep going
                replay.fail(f"on_batch {name} {query}: {exc!r}")
                continue
            replay.batch_s.append(t1 - t0)
            replay.batch_ops.append(len(batch))
            tally.batch(name, result.answer, result)
        if engine.answer != want:
            replay.fail(
                f"oracle: {name} {query} answered {engine.answer!r}, "
                f"cold start says {want!r}"
            )
    tally.finish(replay)
    replay.wall_s = time.perf_counter() - started
    return replay


# ----------------------------------------------------------------------
# serve workloads: one ServeHarness, thread backend
# ----------------------------------------------------------------------
def open_harness(inputs: Inputs, state_dir: str, replay: Replay, telemetry=None):
    """``ServeHarness.open`` + the standing registrations, timed as set-up."""
    shutil.rmtree(state_dir, ignore_errors=True)
    algorithm = get_algorithm(inputs.spec.algorithms[0])
    t0 = time.perf_counter()
    harness = ServeHarness.open(
        state_dir, inputs.initial.copy(), algorithm, inputs.anchor,
        num_shards=NUM_SHARDS, backend="thread", telemetry=telemetry,
        wal_sync=WAL_SYNC,
    )
    sessions = []
    for source, destination in inputs.standing:
        replay.attempted += 1
        try:
            sessions.append(harness.register(source, destination))
        except Exception as exc:  # noqa: BLE001 - a shed registration fails
            replay.fail(f"register {source}->{destination}: {exc!r}")
    harness.wait_all_live(timeout=120.0)
    replay.setup_s += time.perf_counter() - t0
    for session in sessions:
        if session.state is not SessionState.LIVE:
            replay.fail(f"session {session.query} is {session.state.name}")
    return harness


def replay_serve(
    inputs: Inputs, expected: Dict, state_dir: str, telemetry=None
) -> Replay:
    """Open a harness on fresh state and drive ``submit`` / ``read``.

    ``expected`` maps the anchor and every standing pair to the oracle's
    answer on the final graph.
    """
    replay = Replay()
    tally = _Tally()
    started = time.perf_counter()
    harness = open_harness(inputs, state_dir, replay, telemetry)
    try:
        _drive_serve(inputs, harness, expected, replay, tally)
    finally:
        harness.close(final_checkpoint=False)
        shutil.rmtree(state_dir, ignore_errors=True)
    tally.finish(replay)
    replay.wall_s = time.perf_counter() - started
    return replay


def _drive_serve(inputs, harness, expected, replay, tally) -> None:
    algorithm = harness.engine.algorithm
    stats = harness.cache.stats
    result = None
    for index, batch in enumerate(inputs.batches):
        replay.attempted += 1
        try:
            t0 = time.perf_counter()
            result = harness.submit(batch)
            t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - shed or crashed commit
            replay.fail(f"submit {index}: {exc!r}")
            continue
        replay.batch_s.append(t1 - t0)
        replay.batch_ops.append(len(batch))
        tally.batch(
            algorithm.name, (result.answer, sorted(result.answers.items())), result
        )
        if result.degraded or result.failed_shards:
            replay.fail(f"submit {index}: degraded {result.degraded} "
                        f"failed shards {result.failed_shards}")
        window_reads = inputs.reads[index] if inputs.reads else ()
        values = []
        for source, destination in window_reads:
            replay.attempted += 1
            hits_before = stats.hits
            try:
                t0 = time.perf_counter()
                read = harness.read(source, destination)
                t1 = time.perf_counter()
            except Exception as exc:  # noqa: BLE001
                replay.fail(f"read {source}->{destination}: {exc!r}")
                continue
            replay.read_s.append(t1 - t0)
            replay.read_hit.append(stats.hits > hits_before)
            values.append(read.value)
            if read.degraded:
                replay.fail(f"read {source}->{destination} was degraded")
        tally.answers.update(repr(values).encode())
        if len(values) == len(window_reads) and values and (
            (index + 1) % READ_CHECK_EVERY == 0
        ):
            for what in oracle.check_reads(
                harness.engine.graph, algorithm, window_reads, values
            ):
                replay.fail(f"commit {index}: {what}")
    if result is not None:
        got = dict(result.answers)
        got[(inputs.anchor.source, inputs.anchor.destination)] = result.answer
        for what in oracle.check_answers(got, expected):
            replay.fail(what)
    replay.counts.update(
        {
            "cache.lookups": stats.lookups,
            "cache.hits": stats.hits,
            "cache.solves": stats.misses,
            "cache.dropped_families": stats.invalidated_families,
            "cache.dropped_entries": stats.invalidated_entries,
        }
    )
    replay.counts["checkpoint.bytes"] = os.path.getsize(
        harness.pipeline.checkpoint_path
    )
