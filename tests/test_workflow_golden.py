"""Cross-commit bit-identity pin for the contribution-aware workflow.

``tests/data/workflow_golden.json`` was written by :func:`build_golden`
at commit ``7cd8e6b`` — before the classify loop, the batch body and the
shard epoch body were each collapsed to one implementation — and is
compared here value for value: answers, ``OpCounts``, stats and
activation-wave sizes, per batch, for every algorithm under both key-path
rules, on the single-query engine, the multi-query engine and a sharded
serve harness (one pin for both backends).  Its ``baselines`` entries
were added at commit ``fe13e11``, before the incremental kernels were
rewritten: the same stream through the plain incremental engine (both
deletion policies), SGraph, the coalescing engine and SGraph's hub
index, per algorithm; its ``pnp`` entry (PnP fed each batch additions-first,
so its prune hook runs) before the sequential baselines shared one update
step, and its ``sgraph/additions-first`` entry (SGraph fed the same way, so
its landmark prune runs) before the result cache kept families across
commits.  A hot-path change that keeps this file green did not change
what the engines compute or how much work they count for it.

Regenerate (only when an answer or a counter is *meant* to change)::

    PYTHONPATH=src:. python tests/test_workflow_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import astuple, fields

import pytest

from repro.algorithms.registry import get_algorithm, list_algorithms
from repro.baselines import (
    CoalescingEngine,
    HubIndex,
    PlainIncrementalEngine,
    PnPEngine,
    SGraphEngine,
)
from repro.core.classification import KeyPathRule
from repro.core.engine import CISGraphEngine
from repro.core.multiquery import MultiQueryEngine
from repro.graph.batch import UpdateBatch
from repro.hw import AcceleratorConfig, CISGraphAccelerator, SpmConfig
from repro.metrics import OpCounts
from repro.query import PairwiseQuery
from repro.serve import ServeHarness
from tests.conftest import random_batch, random_graph

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "workflow_golden.json"
)

VERTICES, EDGES, GRAPH_SEED = 150, 900, 19
NUM_BATCHES = 25
SINGLE = PairwiseQuery(3, 77)
#: four queries over three sources, on both shards of the serve harness
QUERIES = [
    PairwiseQuery(3, 77),
    PairwiseQuery(3, 120),
    PairwiseQuery(12, 40),
    PairwiseQuery(29, 95),
]
OP_FIELDS = [f.name for f in fields(OpCounts)]
CASES = [
    (name, rule) for name in list_algorithms() for rule in KeyPathRule
]
#: the baseline engines, which reach ``IncrementalState`` by other routes
#: than the workflow: per-update repair under both deletion policies,
#: prune hooks plus ``flush_suppressed``, and the coalesced multi-root repair
BASELINES = {
    "incremental/supplier": lambda graph, alg: PlainIncrementalEngine(
        graph, alg, SINGLE, record_updates=True
    ),
    "incremental/reachable": lambda graph, alg: PlainIncrementalEngine(
        graph, alg, SINGLE, record_updates=True, deletion_policy="reachable"
    ),
    "sgraph": lambda graph, alg: SGraphEngine(graph, alg, SINGLE),
    # fed each batch additions-first (see ``_additions_first``)
    "pnp": lambda graph, alg: PnPEngine(graph, alg, SINGLE),
    "sgraph/additions-first": lambda graph, alg: SGraphEngine(
        graph, alg, SINGLE
    ),
    "coalescing": lambda graph, alg: CoalescingEngine(graph, alg, SINGLE),
}
#: accelerator machines: ``(config, traced)``
ACCEL_CONFIGS = {
    "default": (AcceleratorConfig(), False),
    "small": (
        AcceleratorConfig(
            pipelines=2, propagate_units=3,
            spm=SpmConfig(size_bytes=2048, ways=4),
        ),
        True,
    ),
}
ACCEL_CASES = [
    (name, rule, config) for name, rule in CASES for config in ACCEL_CONFIGS
]
#: the engines plus SGraph's hub index on its own
BASELINE_NAMES = (*BASELINES, "hubs")
BASELINE_CASES = [
    (name, baseline) for name in list_algorithms() for baseline in BASELINE_NAMES
]


def _stream():
    """The seeded graph and its 25 mixed batches (re-weights included)."""
    graph = random_graph(VERTICES, EDGES, seed=GRAPH_SEED)
    reference = graph.copy()
    batches = []
    for index in range(NUM_BATCHES):
        # alternate addition- and deletion-heavy batches
        adds, dels = (16, 8) if index % 2 == 0 else (8, 16)
        batch = random_batch(reference, adds, dels, seed=1900 + index)
        reference.apply_batch(batch)
        batches.append(batch)
    return graph, batches


def _additions_first(graph, batches) -> list:
    """``batches`` with each batch's new-edge additions moved, in order, in
    front of its re-weights and deletions (same net topology): in the
    stream as generated a re-weight leads every batch, so a prune hook,
    which only runs before a batch's first repair, would never be asked."""
    reference = graph.copy()
    reordered = []
    for batch in batches:
        fresh = [
            upd for upd in batch
            if upd.is_addition and not reference.has_edge(upd.u, upd.v)
        ]
        rest = [upd for upd in batch if upd not in fresh]
        reordered.append(UpdateBatch(fresh + rest))
        reference.apply_batch(batch)
    return reordered


def _ops(ops: OpCounts) -> list:
    """``as_dict()`` values in :data:`OP_FIELDS` order (compact on disk)."""
    counted = ops.as_dict()
    assert list(counted) == OP_FIELDS
    return list(counted.values())


def _pairs(answers) -> list:
    return [[q.source, q.destination, answers[q]] for q in QUERIES]


def run_single(graph, batches, algorithm, rule) -> list:
    engine = CISGraphEngine(graph.copy(), algorithm, SINGLE, rule=rule)
    engine.initialize()
    rows = []
    for batch in batches:
        result = engine.on_batch(batch)
        rows.append({
            "answer": result.answer,
            "response_answer": engine.last_response_answer,
            "response_ops": _ops(result.response_ops),
            "post_ops": _ops(result.post_ops),
            "stats": dict(result.stats),
            "activated": [
                len(engine.last_activated_add),
                len(engine.last_activated_del),
                len(engine.last_activated_del_response),
            ],
        })
    return rows


def run_multi(graph, batches, algorithm, rule) -> list:
    engine = MultiQueryEngine(graph.copy(), algorithm, QUERIES, rule=rule)
    engine.initialize()
    rows = []
    for batch in batches:
        result = engine.on_batch(batch)
        rows.append({
            "answers": _pairs(result.answers),
            "response_ops": _ops(result.response_ops),
            "post_ops": _ops(result.post_ops),
            "stats": dict(result.stats),
        })
    return rows


def run_serve(graph, batches, algorithm, rule, directory, backend) -> list:
    rows = []
    with ServeHarness.open(
        directory, graph.copy(), algorithm, SINGLE,
        num_shards=2, rule=rule, backend=backend,
    ) as harness:
        for query in QUERIES:
            harness.register(query.source, query.destination)
        assert harness.wait_all_live(timeout=30.0)
        for batch in batches:
            result = harness.submit(batch)
            assert not result.degraded and not result.failed_shards
            rows.append({
                "epoch": result.epoch,
                "answer": result.answer,
                "answers": _pairs({
                    q: result.answers[(q.source, q.destination)]
                    for q in QUERIES
                }),
                "response_ops": _ops(result.response_ops),
                "post_ops": _ops(result.post_ops),
                "stats": dict(result.stats),
            })
    return rows


def run_baseline(graph, batches, algorithm, baseline) -> list:
    if baseline == "hubs":
        return run_hubs(graph, batches, algorithm)
    if baseline in ("pnp", "sgraph/additions-first"):
        batches = _additions_first(graph, batches)
    engine = BASELINES[baseline](graph.copy(), algorithm)
    engine.initialize()
    rows = []
    for batch in batches:
        result = engine.on_batch(batch)
        rows.append({
            "answer": result.answer,
            "response_ops": _ops(result.response_ops),
            "post_ops": _ops(result.post_ops),
            "stats": dict(result.stats),
        })
    return rows


def run_hubs(graph, batches, algorithm) -> list:
    """SGraph's hub index on its own: every hub is an ``IncrementalState``
    fed every update, so per-batch upkeep and each hub's view of the
    destination are pinned."""
    index = HubIndex(graph.copy(), algorithm)
    return [
        {
            "ops": _ops(index.process_batch(number, batch)),
            "states": [
                index.hub_state(hub, SINGLE.destination) for hub in index.hubs
            ],
        }
        for number, batch in enumerate(batches, start=1)
    ]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def run_accelerator(graph, batches, algorithm, rule, config) -> list:
    machine, traced = ACCEL_CONFIGS[config]
    accel = CISGraphAccelerator(
        graph.copy(), algorithm, SINGLE, config=machine, rule=rule,
        trace=traced,
    )
    accel.initialize()
    rows = []
    for batch in batches:
        result = accel.on_batch(batch)
        hw = accel.last_stats
        rows.append({
            "answer": result.answer,
            "stats": dict(result.stats),
            "response_ops": _ops(result.response_ops),
            "memory": [
                list(astuple(part)) for part in (
                    hw.spm, hw.dram, hw.state_prefetch, hw.neighbor_prefetch,
                )
            ],
            "trace": (
                _digest([astuple(record) for record in accel.tracer])
                if traced else None
            ),
            "state": _digest((accel.states, accel.parents)),
        })
    return rows


def build_golden(directory: str) -> dict:
    """Everything the fixture pins, computed by the code under test."""
    graph, batches = _stream()
    baselines = {
        name: {
            baseline: run_baseline(graph, batches, get_algorithm(name), baseline)
            for baseline in BASELINE_NAMES
        }
        for name in list_algorithms()
    }
    cases = {}
    for name, rule in CASES:
        algorithm = get_algorithm(name)
        cases[f"{name}/{rule.value}"] = {
            "single": run_single(graph, batches, algorithm, rule),
            "multi": run_multi(graph, batches, algorithm, rule),
            "serve/thread": run_serve(
                graph, batches, algorithm, rule,
                os.path.join(directory, f"{name}-{rule.value}"), "thread",
            ),
        }
    accelerator = {
        f"{name}/{rule.value}": {
            config: run_accelerator(
                graph, batches, get_algorithm(name), rule, config
            )
            for config in ACCEL_CONFIGS
        }
        for name, rule in CASES
    }
    return {
        "op_fields": OP_FIELDS, "cases": cases, "baselines": baselines,
        "accelerator": accelerator,
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(GOLDEN_PATH) as handle:
        data = json.load(handle)
    assert data["op_fields"] == OP_FIELDS
    return data


@pytest.fixture(scope="module")
def golden(pinned) -> dict:
    return pinned["cases"]


@pytest.fixture(scope="module")
def stream():
    return _stream()


def _assert_rows(got: list, want: list, what: str) -> None:
    assert len(got) == len(want) == NUM_BATCHES
    for index, (have, pinned) in enumerate(zip(got, want)):
        assert have == pinned, f"{what}: batch {index} drifted from the pin"


@pytest.mark.parametrize("name,rule", CASES)
def test_single_engine_matches_the_pin(golden, stream, name, rule):
    rows = run_single(*stream, get_algorithm(name), rule)
    _assert_rows(rows, golden[f"{name}/{rule.value}"]["single"], "single")


@pytest.mark.parametrize("name,rule", CASES)
def test_multi_engine_matches_the_pin(golden, stream, name, rule):
    rows = run_multi(*stream, get_algorithm(name), rule)
    _assert_rows(rows, golden[f"{name}/{rule.value}"]["multi"], "multi")


@pytest.mark.serve
@pytest.mark.parametrize("name,rule", CASES)
def test_thread_harness_matches_the_pin(golden, stream, tmp_path, name, rule):
    rows = run_serve(
        *stream, get_algorithm(name), rule, str(tmp_path / "state"), "thread"
    )
    _assert_rows(
        rows, golden[f"{name}/{rule.value}"]["serve/thread"], "serve/thread"
    )


@pytest.mark.serve
@pytest.mark.procserve
@pytest.mark.parametrize("name,rule", CASES)
def test_process_harness_matches_the_pin(golden, stream, tmp_path, name, rule):
    """A process child inherits the canonical graph, adjacency order and
    all, so it breaks equal-state ties as a thread shard does: the
    ``serve/thread`` rows pin answers, ``OpCounts`` and stats for both."""
    rows = run_serve(
        *stream, get_algorithm(name), rule, str(tmp_path / "state"), "process"
    )
    _assert_rows(
        rows, golden[f"{name}/{rule.value}"]["serve/thread"], "serve/process"
    )


@pytest.mark.parametrize("name,baseline", BASELINE_CASES)
def test_baseline_matches_the_pin(pinned, stream, name, baseline):
    rows = run_baseline(*stream, get_algorithm(name), baseline)
    _assert_rows(rows, pinned["baselines"][name][baseline], baseline)


@pytest.mark.parametrize("name,rule,config", ACCEL_CASES)
def test_accelerator_matches_the_pin(pinned, stream, name, rule, config):
    rows = run_accelerator(*stream, get_algorithm(name), rule, config)
    _assert_rows(
        rows, pinned["accelerator"][f"{name}/{rule.value}"][config],
        f"accelerator/{config}",
    )


@pytest.mark.parametrize("name,rule", CASES)
def test_accelerator_reports_the_single_query_fields(stream, name, rule):
    """The accelerator fills the report it inherits from CISGraph-O."""
    graph, batches = stream
    accel = CISGraphAccelerator(
        graph.copy(), get_algorithm(name), SINGLE, rule=rule
    )
    accel.initialize()
    for batch in batches:
        result = accel.on_batch(batch)
        assert accel.last_response_answer == result.stats["response_answer"]
        assert accel.last_classified.summary().items() <= result.stats.items()


def test_the_accelerator_pin_exercises_repair_and_writebacks(pinned):
    """Every case repairs, and the small machine writes lines back."""
    for case, runs in pinned["accelerator"].items():
        for config, rows in runs.items():
            assert sum(row["stats"]["repairs"] for row in rows), (case, config)
        assert sum(row["memory"][0][2] for row in runs["small"]), case


def test_the_pnp_pin_exercises_the_prune_hook(pinned):
    """PnP's generic rule is asked on every algorithm."""
    checks = OP_FIELDS.index("bound_checks")
    for name, runs in pinned["baselines"].items():
        assert sum(row["response_ops"][checks] for row in runs["pnp"]), name


def test_the_sgraph_pin_exercises_the_landmark_prune(pinned):
    """SGraph's landmark bound is asked on PPSP once additions lead."""
    checks = OP_FIELDS.index("bound_checks")
    rows = pinned["baselines"]["ppsp"]["sgraph/additions-first"]
    assert sum(row["response_ops"][checks] for row in rows) > 0


def test_the_stream_exercises_every_class(golden):
    """The pin is only worth its bytes if every branch of the workflow
    runs under it: all four classes, under both rules, plus post work."""
    for case, runs in golden.items():
        totals = {}
        for row in runs["single"] + runs["multi"]:
            for key, value in row["stats"].items():
                totals[key] = totals.get(key, 0) + value
        for key in ("valuable_additions", "nondelayed_deletions",
                    "delayed_deletions", "useless"):
            assert totals[key] > 0, f"{case}: no {key} in the pinned stream"
        post = OP_FIELDS.index("updates_processed")
        assert any(row["post_ops"][post] for row in runs["single"]), case


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        payload = build_golden(scratch)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    text = json.dumps(payload, separators=(",", ":"))
    with open(GOLDEN_PATH, "w") as handle:
        # one line per pinned batch row keeps a deliberate re-pin diffable
        handle.write(text.replace("},{", "},\n{") + "\n")
    print(f"wrote {GOLDEN_PATH}")
