"""SLO-graded experiment runs: isolated bundles that can be replayed.

:func:`run_traffic` plays a :class:`~repro.bench.traffic.TrafficProfile`
against a live :class:`~repro.serve.ServeHarness` and leaves a complete,
self-describing bundle under ``results/<run_id>/``:

* ``manifest.json`` — the full :class:`RunConfig` (profile, seeds, serve
  knobs, SLO policy), the git revision, and the **tolerance spec**: which
  summary keys a replay must match exactly and which only within a
  stated relative factor;
* ``metrics.jsonl`` — one record per committed epoch, streamed while the
  run is in flight (a crash mid-run still leaves the prefix);
* ``summary.json`` — event totals, admission tallies, throughput and
  latency scalars, the :class:`~repro.serve.control.SLOVerdict`, and
  determinism digests over the event stream and the final answers.

:func:`reproduce_run` is the other half of the contract: it reads a
bundle's manifest, replays the run from scratch (fresh state directory,
same seeds) and checks the fresh summary against the committed one.
Everything the virtual clock controls — arrivals, popularity draws,
update batches, token-bucket admission, shedding — must match *exactly*;
wall-clock scalars (throughput, latency) only need to land within the
manifest's relative tolerance.  That split is deliberate: the profiles
shed via the virtual-clock token bucket, never via thread-timing queue
races, precisely so the exact half of the contract is checkable.

``repro bench traffic`` / ``repro bench reproduce`` are the CLI fronts;
``BENCH_traffic.json`` pins the :data:`EXACT_KEYS` of the seed-0
flash-crowd run, static and adaptive.  See ``docs/traffic.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bench.traffic import TrafficProfile, TrafficWorkload, make_traffic_workload
from repro.errors import AdmissionError
from repro.query import PairwiseQuery
from repro.resilience.chaos import ManualClock
from repro.serve.control import SLOPolicy, SLOVerdict

__all__ = [
    "RunConfig",
    "TrafficRunReport",
    "run_traffic",
    "reproduce_run",
]

#: bump when the bundle layout itself changes shape
#: (2: ``config`` lost the result-cache bound, now a constant of the cache)
RUN_SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.jsonl"
SUMMARY_NAME = "summary.json"

#: summary keys a replay must reproduce bit-for-bit — everything the
#: virtual clock controls
EXACT_KEYS = (
    "events.register",
    "events.read",
    "events.batch",
    "events.digest",
    "answers.digest",
    "admission.admitted",
    "admission.rejected",
    "admission.shed_rate",
    "reads.total",
    "reads.degraded",
    "reads.stale_max",
    "sessions.distinct",
    "slo.shed_rate",
    "slo.staleness_max",
    "adaptive.decisions",
)

#: wall-clock scalars: a replay must land within this multiplicative
#: factor (either direction) of the committed value
RELATIVE_TOLERANCE = 20.0
RELATIVE_KEYS = (
    "throughput.updates_per_sec",
    "throughput.events_per_sec",
    "latency.answer_p99_s",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything one traffic run depends on (and nothing it doesn't).

    Serialised whole into ``manifest.json`` — :func:`reproduce_run`
    rebuilds the run from this object alone.  The admission defaults are
    tuned against the ``flash-crowd`` profile: the bucket clears the
    20/s baseline comfortably, the 6x burst overwhelms it, so a static
    deployment violates the shed-rate SLO and an adaptive one does not —
    the comparison ``BENCH_traffic.json`` pins.
    """

    profile: TrafficProfile
    algorithm: str = "ppsp"
    adaptive: bool = False
    #: shard executor ("thread" / "process") — recorded in the manifest
    #: so a result bundle says which backend produced it
    backend: str = "thread"
    num_shards: int = 2
    queue_bound: int = 64
    registration_rate: float = 24.0
    registration_burst: float = 32.0
    num_vertices: int = 120
    num_edges: int = 720
    slo_answer_p99: float = 5.0
    slo_staleness_bound: int = 4
    slo_shed_rate: float = 0.25

    def slo(self) -> SLOPolicy:
        policy = SLOPolicy(
            answer_p99=self.slo_answer_p99,
            staleness_bound=self.slo_staleness_bound,
            shed_rate=self.slo_shed_rate,
        )
        policy.validate()
        return policy

    def as_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["profile"] = self.profile.as_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunConfig":
        payload = dict(data)
        payload["profile"] = TrafficProfile(**payload["profile"])
        return cls(**payload)


@dataclass
class TrafficRunReport:
    """What :func:`run_traffic` hands back (the bundle is on disk)."""

    run_id: str
    run_dir: str
    config: RunConfig
    summary: Dict[str, object]

    @property
    def slo_met(self) -> bool:
        return bool(self.summary["slo"]["met"])


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _answers_digest(harness, pairs) -> str:
    """Exact final answers over the standing-query pool, hashed.

    Read through :meth:`ServeHarness.read` (cache-backed recompute on the
    canonical committed graph), so the digest is independent of shard
    thread interleaving and of which sessions happened to be admitted.
    """
    digest = hashlib.sha256()
    for source, destination in pairs:
        value = harness.read(source, destination).value
        digest.update(f"{source}->{destination}={value!r};".encode())
    return digest.hexdigest()


def _drive(
    config: RunConfig,
    workload: TrafficWorkload,
    state_dir: str,
    metrics_path: Optional[str] = None,
) -> Dict[str, object]:
    """Play the workload's event stream against a live harness.

    The harness runs entirely on a :class:`ManualClock` advanced to each
    event's timestamp, so token-bucket refill — and therefore every
    admit/shed decision — is a pure function of the seeded stream.
    Returns the summary document (without the run/config envelope).
    """
    from repro.algorithms import get_algorithm
    from repro.serve import ServeHarness

    anchor = PairwiseQuery(0, 13)
    clock = ManualClock()
    harness = ServeHarness.open(
        state_dir,
        workload.graph.copy(),
        get_algorithm(config.algorithm),
        anchor,
        num_shards=config.num_shards,
        queue_bound=config.queue_bound,
        registration_rate=config.registration_rate,
        registration_burst=config.registration_burst,
        dedupe=True,
        clock=clock,
        checkpoint_every=8,
        backend=config.backend,
    )
    if config.adaptive:
        harness.attach_controller(config.slo())

    register_admitted = 0
    register_rejected = 0
    reads_total = 0
    reads_degraded = 0
    stale_max = 0
    admitted_pairs = set()
    latencies: List[float] = []
    started_wall = time.perf_counter()
    metrics = open(metrics_path, "w") if metrics_path else None
    try:
        for event in workload.events:
            if event.time > clock.now:
                clock.advance(event.time - clock.now)
            if event.kind == "register":
                try:
                    harness.register(event.source, event.destination)
                    register_admitted += 1
                    admitted_pairs.add((event.source, event.destination))
                except AdmissionError:
                    register_rejected += 1
            elif event.kind == "read":
                outcome = harness.read(event.source, event.destination)
                reads_total += 1
                reads_degraded += int(outcome.degraded)
                stale_max = max(stale_max, outcome.stale_epochs)
            else:  # batch
                batch_started = time.perf_counter()
                result = harness.submit(workload.batches[event.batch_index])
                latency = time.perf_counter() - batch_started
                latencies.append(latency)
                if metrics is not None:
                    record = {
                        "epoch": result.epoch,
                        "virtual_time": clock.now,
                        "wall_latency_s": latency,
                        "registrations_admitted": register_admitted,
                        "registrations_rejected": register_rejected,
                        "reads": reads_total,
                        "rejections": harness.admission.tally()[0],
                        "cache_hit_rate": harness.cache.stats.as_dict()[
                            "hit_rate"
                        ],
                        "controller_decisions": (
                            len(harness.controller.audit)
                            if harness.controller is not None else 0
                        ),
                    }
                    metrics.write(json.dumps(record, sort_keys=True) + "\n")
                    metrics.flush()
        wall_elapsed = time.perf_counter() - started_wall
        harness.wait_all_live()

        rejected, admitted = harness.admission.tally()
        attempts = rejected + admitted
        shed_rate = rejected / attempts if attempts else 0.0
        verdict = SLOVerdict.grade(
            config.slo(), latencies, stale_max, shed_rate
        )
        counts = workload.counts()
        decisions = (
            [d.as_dict() for d in harness.controller.audit]
            if harness.controller is not None else []
        )
        num_updates = workload.num_updates
        busy = sum(latencies)
        summary = {
            "events": {
                "register": counts["register"],
                "read": counts["read"],
                "batch": counts["batch"],
                "digest": workload.event_digest(),
                "horizon_virtual_s": workload.horizon,
            },
            "admission": {
                "admitted": admitted,
                "rejected": rejected,
                "shed_rate": shed_rate,
                "registrations_admitted": register_admitted,
                "registrations_rejected": register_rejected,
            },
            "sessions": {
                "distinct": len(admitted_pairs),
                "by_state": harness.sessions.by_state(),
            },
            "reads": {
                "total": reads_total,
                "degraded": reads_degraded,
                "stale_max": stale_max,
            },
            "throughput": {
                "updates_total": num_updates,
                "updates_per_sec": (
                    num_updates / busy if busy > 0 else 0.0
                ),
                "events_per_sec": (
                    len(workload.events) / wall_elapsed
                    if wall_elapsed > 0 else 0.0
                ),
                "wall_elapsed_s": wall_elapsed,
            },
            "latency": {
                "answer_p99_s": verdict.answer_p99,
                "batches_timed": len(latencies),
            },
            "slo": verdict.as_dict(),
            "adaptive": {
                "enabled": config.adaptive,
                "decisions": len(decisions),
                "audit": decisions,
            },
            "answers": {"digest": _answers_digest(harness, workload.pairs)},
        }
    finally:
        if metrics is not None:
            metrics.close()
        harness.close()
    return summary


def run_traffic(
    config: RunConfig,
    results_root: str = "results",
    run_id: Optional[str] = None,
) -> TrafficRunReport:
    """Execute one traffic run, isolated under ``results/<run_id>/``.

    The bundle is complete when this returns: manifest, streamed
    per-epoch metrics, summary, and the harness's WAL/checkpoint state
    directory (``state/``) for post-mortems.  ``run_id`` defaults to
    ``<profile>[-adaptive]-s<seed>-<nonce>``.
    """
    config.profile.validate()
    if run_id is None:
        mode = "-adaptive" if config.adaptive else ""
        run_id = (
            f"{config.profile.name}{mode}-s{config.profile.seed}"
            f"-{uuid.uuid4().hex[:8]}"
        )
    run_dir = os.path.join(results_root, run_id)
    os.makedirs(run_dir, exist_ok=True)

    manifest = {
        "schema_version": RUN_SCHEMA_VERSION,
        "run_id": run_id,
        "created_unix": time.time(),
        "git_rev": _git_revision(),
        "config": config.as_dict(),
        "tolerance": {
            "exact": list(EXACT_KEYS),
            "relative_factor": RELATIVE_TOLERANCE,
            "relative": list(RELATIVE_KEYS),
        },
    }
    with open(os.path.join(run_dir, MANIFEST_NAME), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")

    workload = make_traffic_workload(
        config.profile,
        num_vertices=config.num_vertices,
        num_edges=config.num_edges,
        reserved={0},
    )
    summary = _drive(
        config,
        workload,
        state_dir=os.path.join(run_dir, "state"),
        metrics_path=os.path.join(run_dir, METRICS_NAME),
    )
    summary = {
        "schema_version": RUN_SCHEMA_VERSION,
        "run_id": run_id,
        "profile": config.profile.name,
        "adaptive": config.adaptive,
        "backend": config.backend,
        **summary,
    }
    with open(os.path.join(run_dir, SUMMARY_NAME), "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return TrafficRunReport(
        run_id=run_id, run_dir=run_dir, config=config, summary=summary
    )


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------
def _lookup(document: Dict[str, object], dotted: str):
    node: object = document
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    return node


def _within_factor(a: float, b: float, factor: float) -> bool:
    if a == b:
        return True
    if a <= 0 or b <= 0:
        return False
    ratio = a / b if a > b else b / a
    return ratio <= factor


def reproduce_run(
    run_dir: str, scratch_dir: Optional[str] = None
) -> Dict[str, object]:
    """Replay a bundle's manifest and check the summary still holds.

    Re-executes the run from the committed :class:`RunConfig` (fresh
    state directory — ``scratch_dir`` or a temp dir), then compares the
    fresh summary against the bundle's per the manifest's tolerance
    spec.  Returns a report::

        {"ok": bool, "checked": int, "failures": [str, ...],
         "run_id": str}

    ``ok`` is False when any exact key differs, any relative key lands
    outside the stated factor, or either summary is missing a key the
    manifest names — and, with nothing replayed, when the manifest's
    ``schema_version`` is missing or is not :data:`RUN_SCHEMA_VERSION`.
    """
    import tempfile

    with open(os.path.join(run_dir, MANIFEST_NAME)) as handle:
        manifest = json.load(handle)
    version = manifest.get("schema_version")
    if version != RUN_SCHEMA_VERSION:
        return {
            "ok": False,
            "checked": 0,
            "failures": [
                f"run bundle schema_version {version!r} is not the "
                f"supported {RUN_SCHEMA_VERSION}"
            ],
            "run_id": manifest.get("run_id"),
        }
    with open(os.path.join(run_dir, SUMMARY_NAME)) as handle:
        committed = json.load(handle)
    config = RunConfig.from_dict(manifest["config"])

    scratch = scratch_dir or tempfile.mkdtemp(prefix="traffic-reproduce-")
    workload = make_traffic_workload(
        config.profile,
        num_vertices=config.num_vertices,
        num_edges=config.num_edges,
        reserved={0},
    )
    fresh = _drive(
        config, workload, state_dir=os.path.join(scratch, "state")
    )

    tolerance = manifest["tolerance"]
    failures: List[str] = []
    checked = 0
    for key in tolerance["exact"]:
        checked += 1
        try:
            was, now = _lookup(committed, key), _lookup(fresh, key)
        except KeyError:
            failures.append(f"missing key: {key}")
            continue
        if was != now:
            failures.append(f"exact mismatch at {key}: {was!r} -> {now!r}")
    factor = float(tolerance["relative_factor"])
    for key in tolerance["relative"]:
        checked += 1
        try:
            was, now = _lookup(committed, key), _lookup(fresh, key)
        except KeyError:
            failures.append(f"missing key: {key}")
            continue
        if not _within_factor(float(was), float(now), factor):
            failures.append(
                f"{key} outside x{factor:g} tolerance: {was!r} -> {now!r}"
            )
    return {
        "ok": not failures,
        "checked": checked,
        "failures": failures,
        "run_id": manifest["run_id"],
    }
