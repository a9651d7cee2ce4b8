"""The four workloads: what each runs, and how its inputs come from a seed.

Inputs follow the paper's Section IV-A protocol through the program's own
generators (``repro.bench.datasets``): half the edges loaded, additions
from the held-out half, deletions from loaded edges, query pairs from
``pick_query_pairs``.  ``--seed`` varies the stream, the query pairs and the
read sequence together.  The program under test receives only the
generated inputs, never the seed.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.bench.datasets import (
    dataset_by_abbreviation,
    make_workload,
    pick_query_pairs,
)
from repro.graph.batch import UpdateBatch
from repro.graph.dynamic import DynamicGraph
from repro.query import PairwiseQuery

Pair = Tuple[int, int]

#: shards of the serve workloads; standing sources are balanced over them
NUM_SHARDS = 2
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: sizes are from prototype runs on the 2-core sandbox."""

    name: str
    why: str
    kind: str  # "core": CISGraphEngine in turn; "serve": one ServeHarness
    dataset: str
    scale: str
    batches: int
    additions: int
    deletions: int
    #: core: every algorithm runs every pair, one engine after another
    algorithms: Tuple[str, ...] = ("ppsp",)
    pairs: int = 1
    #: serve: standing sources x destinations, plus reads after each commit
    sources: int = 0
    destinations: int = 0
    reads_per_batch: int = 0
    #: the operation the end-to-end metrics time: "batch" or "read"
    measured: str = "batch"
    #: divide the stand-in's vertex and edge counts by this
    shrink: int = 1
    #: the part of ``--seconds`` one replay gets, about what it takes on the
    #: 2-core reference box with set-up and checks; ``--seconds / replay_s``
    #: is the replay count
    replay_s: float = 2.5

    def quick(self) -> "WorkloadSpec":
        """The smoke-test size: tiny graph, 8 batches, same shape."""
        return replace(
            self, scale="tiny", batches=8,
            additions=max(4, self.additions // 4),
            deletions=max(4, self.deletions // 4),
        )


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="core-repair",
            why="Paper's 50/50 add/delete mix over 8 query pairs: 92% of updates "
                "classify useless, yet repair + propagate take 43% of the time. "
                "Rare subtree repairs swing plain ops/s ~30% by seed: "
                "stream.ops_per_s.",
            kind="core", dataset="OR", scale="medium",
            batches=150, additions=80, deletions=80, pairs=8, replay_s=4.0,
        ),
        WorkloadSpec(
            name="core-filter",
            why="Addition-heavy stream over all five semirings: almost no "
                "repair, so ingest (net_effects, apply_update) and "
                "classify_batch carry the batch; bypasses core-repair's "
                "repair path.",
            kind="core", dataset="LJ", scale="small",
            batches=50, additions=475, deletions=25, pairs=2,
            algorithms=("ppsp", "ppwp", "ppnp", "reach", "viterbi"),
        ),
        WorkloadSpec(
            name="serve-write",
            why="Whole write path, no reads: admission, WAL (wal_sync=False), "
                "fan-out, anchor + shard groups, barrier, answer fan-out, a "
                "checkpoint every 4th commit (the default); the result cache "
                "stays empty.",
            kind="serve", dataset="OR", scale="small", shrink=2,
            batches=100, additions=50, deletions=50,
            sources=8, destinations=2,
        ),
        WorkloadSpec(
            name="serve-readmix",
            why="Reads beside writes: Zipf reads over 32 pairs after each "
                "commit; each commit drops the cached families, so misses "
                "re-solve state the shards already hold; bypasses the "
                "write-side costs.",
            kind="serve", dataset="OR", scale="small", shrink=2,
            batches=20, additions=64, deletions=64,
            sources=8, destinations=2, reads_per_batch=16, measured="read",
        ),
    )
}


@dataclass
class Inputs:
    """Everything one workload run feeds the program, plus its digest."""

    spec: WorkloadSpec
    seed: int
    initial: DynamicGraph
    batches: List[UpdateBatch]
    #: core: (algorithm, query) engines in running order
    engines: List[Tuple[str, PairwiseQuery]] = field(default_factory=list)
    #: serve: checkpoint anchor, standing queries, per-commit read windows
    anchor: PairwiseQuery = None
    standing: List[Pair] = field(default_factory=list)
    reads: List[List[Pair]] = field(default_factory=list)
    gen_s: float = 0.0
    digest: str = ""

    @property
    def measured_ops(self) -> int:
        """Operations the measured calls of one replay carry: updates, or
        reads where ``read`` is the measured call."""
        if self.spec.measured == "read":
            return sum(len(window) for window in self.reads)
        updates = sum(len(batch) for batch in self.batches)
        return updates * max(1, len(self.engines))


def _balanced_sources(
    graph: DynamicGraph, spec: WorkloadSpec
) -> List[PairwiseQuery]:
    """Query pairs with distinct sources: ``spec.sources`` spread evenly
    over the shards (``source % NUM_SHARDS``), then two spares (the anchor
    and a source no standing query owns)."""
    per_shard = spec.sources // NUM_SHARDS
    owned: List[PairwiseQuery] = []
    spares: List[PairwiseQuery] = []
    seen = set()
    attempt = 0
    while len(owned) < spec.sources or len(spares) < 2:
        # a fresh picker seed per attempt; each attempt is deterministic
        for pair in pick_query_pairs(
            graph, count=spec.sources + 4, seed=7919 * attempt
        ):
            if pair.source in seen:
                continue
            shard = pair.source % NUM_SHARDS
            if sum(p.source % NUM_SHARDS == shard for p in owned) < per_shard:
                owned.append(pair)
            elif len(spares) < 2:
                spares.append(pair)
            else:
                continue
            seen.add(pair.source)
        attempt += 1
    return owned + spares


def _serve_queries(inputs: Inputs, rng: random.Random) -> None:
    spec = inputs.spec
    picked = _balanced_sources(inputs.initial, spec)
    owned, (anchor, unowned) = picked[: spec.sources], picked[spec.sources:]
    inputs.anchor = anchor
    targets = [pair.destination for pair in picked]
    for index, pair in enumerate(owned):
        # the pair's own (reachable) destination, then the neighbours'
        wanted = dict.fromkeys(
            d for d in targets[index:] + targets[:index] if d != pair.source
        )
        inputs.standing.extend(
            (pair.source, d) for d in list(wanted)[: spec.destinations]
        )
    if not spec.reads_per_batch:
        return
    # 8 destinations on each of 3 owned sources and 1 unowned one; ranks
    # interleave the sources, so every seed gives each source the same share
    # of the Zipf mass and only the destinations and the draws vary
    sources = [pair.source for pair in owned[:3]] + [unowned.source]
    vertices = range(inputs.initial.num_vertices)
    reads = {s: rng.sample([v for v in vertices if v != s], 8) for s in sources}
    pool = [
        (sources[rank % 4], reads[sources[rank % 4]][rank // 4])
        for rank in range(32)
    ]
    weights = [1.0 / ((rank + 1) ** ZIPF_EXPONENT) for rank in range(32)]
    inputs.reads = [
        rng.choices(pool, weights, k=spec.reads_per_batch)
        for _ in range(spec.batches)
    ]


def _digest(inputs: Inputs) -> str:
    """sha256 over everything the program is fed."""
    sha = hashlib.sha256()

    def feed(value) -> None:
        sha.update(repr(value).encode())
        sha.update(b"\n")

    feed(inputs.initial.num_vertices)
    feed(sorted(inputs.initial.edges()))
    for batch in inputs.batches:
        feed([(u.kind.value, u.u, u.v, u.weight) for u in batch])
    feed([(name, q.source, q.destination) for name, q in inputs.engines])
    if inputs.anchor is not None:
        feed((inputs.anchor.source, inputs.anchor.destination))
    feed(inputs.standing)
    feed(inputs.reads)
    return sha.hexdigest()


def generate(spec: WorkloadSpec, seed: int) -> Inputs:
    """Build the workload's inputs from ``seed`` (same seed, same inputs)."""
    started = time.perf_counter()
    dataset = dataset_by_abbreviation(spec.dataset, spec.scale)
    dataset = replace(
        dataset,
        num_vertices=dataset.num_vertices // spec.shrink,
        num_edges=dataset.num_edges // spec.shrink,
    )
    stream = make_workload(
        dataset,
        num_batches=spec.batches,
        additions_per_batch=spec.additions,
        deletions_per_batch=spec.deletions,
        seed=seed,
    )
    inputs = Inputs(
        spec=spec,
        seed=seed,
        initial=stream.initial,
        batches=[stream.replay.batch(i) for i in range(spec.batches)],
    )
    if spec.kind == "core":
        pairs = pick_query_pairs(stream.initial, count=spec.pairs, seed=0)
        inputs.engines = [
            (algorithm, pair) for algorithm in spec.algorithms for pair in pairs
        ]
    else:
        # a str seed hashes through sha512: independent of PYTHONHASHSEED
        _serve_queries(inputs, random.Random(f"perfbench:{spec.name}:{seed}"))
    inputs.digest = _digest(inputs)
    inputs.gen_s = time.perf_counter() - started
    return inputs
