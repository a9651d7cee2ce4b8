"""Experiment runners regenerating the paper's tables and figures.

Each ``run_*`` function reproduces one artifact of Section IV (see the
per-experiment index in DESIGN.md) and returns plain dictionaries/lists so
the benchmark scripts can print them and the tests can assert on shapes.

Software engines are timed with the analytic CPU model
(:mod:`repro.hw.cpu_model`); the accelerator reports simulated cycles at
1 GHz.  All engines replay the identical update stream per workload, and
the runners cross-check that every engine returned the same answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.registry import get_algorithm
from repro.baselines.coalescing import CoalescingEngine
from repro.baselines.coldstart import ColdStartEngine
from repro.baselines.hubs import HubIndex
from repro.baselines.incremental import PlainIncrementalEngine
from repro.baselines.sgraph import PnPEngine, SGraphEngine
from repro.bench.datasets import StreamingWorkload
from repro.core.engine import CISGraphEngine
from repro.engine import PairwiseEngine
from repro.hw.accelerator import CISGraphAccelerator
from repro.hw.config import AcceleratorConfig
from repro.hw.cpu_model import CpuCostModel, MemoryProfile
from repro.metrics import OpCounts
from repro.query import PairwiseQuery


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, the paper's aggregation for speedups (Table IV)."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    return math.exp(sum(math.log(v) for v in filtered) / len(filtered))


@dataclass
class EngineRunResult:
    """One engine processing one query over the whole stream."""

    engine: str
    response_ns: float
    total_ns: float
    answers: List[float] = field(default_factory=list)
    ops: OpCounts = field(default_factory=OpCounts)
    extra: Dict[str, float] = field(default_factory=dict)
    response_ns_per_batch: List[float] = field(default_factory=list)


def _profile(workload: StreamingWorkload) -> MemoryProfile:
    return MemoryProfile(
        num_vertices=workload.spec.num_vertices,
        num_edges=workload.spec.num_edges,
    )


def run_software_engine(
    workload: StreamingWorkload,
    algorithm_name: str,
    query: PairwiseQuery,
    engine_factory: Callable[..., PairwiseEngine],
    cost_model: Optional[CpuCostModel] = None,
    **engine_kwargs,
) -> EngineRunResult:
    """Replay the workload's stream through one software engine."""
    cost_model = cost_model or CpuCostModel()
    algorithm = get_algorithm(algorithm_name)
    engine = engine_factory(
        workload.replay.initial_graph, algorithm, query, **engine_kwargs
    )
    engine.initialize()
    profile = _profile(workload)
    response_ns = 0.0
    total_ns = 0.0
    answers: List[float] = []
    per_batch: List[float] = []
    ops = OpCounts()
    for step in workload.replay.batches():
        result = engine.on_batch(step.batch)
        per_batch.append(cost_model.time_ns(result.response_ops, profile))
        response_ns += per_batch[-1]
        total_ns += cost_model.time_ns(result.total_ops, profile)
        answers.append(result.answer)
        ops += result.total_ops
    return EngineRunResult(
        engine=engine.name,
        response_ns=response_ns,
        total_ns=total_ns,
        answers=answers,
        ops=ops,
        response_ns_per_batch=per_batch,
    )


def run_accelerator(
    workload: StreamingWorkload,
    algorithm_name: str,
    query: PairwiseQuery,
    config: Optional[AcceleratorConfig] = None,
) -> EngineRunResult:
    """Replay the workload's stream through the accelerator simulator."""
    config = config or AcceleratorConfig()
    algorithm = get_algorithm(algorithm_name)
    engine = CISGraphAccelerator(
        workload.replay.initial_graph, algorithm, query, config=config
    )
    engine.initialize()
    response_ns = 0.0
    total_ns = 0.0
    answers: List[float] = []
    per_batch: List[float] = []
    ops = OpCounts()
    hit_rate = 0.0
    for step in workload.replay.batches():
        result = engine.on_batch(step.batch)
        per_batch.append(config.cycles_to_ns(int(result.stats["response_cycles"])))
        response_ns += per_batch[-1]
        total_ns += config.cycles_to_ns(int(result.stats["total_cycles"]))
        answers.append(result.answer)
        ops += result.response_ops
        hit_rate += float(result.stats["spm_hit_rate"])
    batches = float(len(per_batch))
    return EngineRunResult(
        engine=engine.name,
        response_ns=response_ns,
        total_ns=total_ns,
        answers=answers,
        ops=ops,
        extra={"spm_hit_rate": hit_rate / max(batches, 1.0), "batches": batches},
        response_ns_per_batch=per_batch,
    )


# ----------------------------------------------------------------------
# Table IV: speedups over Cold-Start
# ----------------------------------------------------------------------
@dataclass
class SpeedupCell:
    """Per (algorithm, dataset) geometric-mean speedups over CS.

    ``spread`` records the per-query (min, max) speedup per engine — the
    variance SGraph's bound quality makes interesting.
    """

    algorithm: str
    dataset: str
    speedups: Dict[str, float]  # engine -> GMean speedup over CS
    spread: Dict[str, Tuple[float, float]] = field(default_factory=dict)


def run_speedup_experiment(
    workload: StreamingWorkload,
    algorithm_name: str,
    queries: Sequence[PairwiseQuery],
    engines: Sequence[str] = ("sgraph", "cisgraph-o", "cisgraph"),
    cost_model: Optional[CpuCostModel] = None,
    accel_config: Optional[AcceleratorConfig] = None,
    check_agreement: bool = True,
) -> SpeedupCell:
    """GMean speedup over CS for one (dataset, algorithm) cell of Table IV."""
    cost_model = cost_model or CpuCostModel()
    algorithm = get_algorithm(algorithm_name)
    shared_hub = (
        HubIndex(workload.replay.initial_graph, algorithm)
        if "sgraph" in engines
        else None
    )

    per_engine: Dict[str, List[float]] = {name: [] for name in engines}
    for query in queries:
        cs = run_software_engine(
            workload, algorithm_name, query, ColdStartEngine, cost_model
        )
        runs: Dict[str, EngineRunResult] = {}
        if "incremental" in engines:
            runs["incremental"] = run_software_engine(
                workload, algorithm_name, query, PlainIncrementalEngine, cost_model
            )
        if "coalescing" in engines:
            runs["coalescing"] = run_software_engine(
                workload, algorithm_name, query, CoalescingEngine, cost_model
            )
        if "sgraph" in engines:
            runs["sgraph"] = run_software_engine(
                workload,
                algorithm_name,
                query,
                SGraphEngine,
                cost_model,
                hub_index=shared_hub,
            )
        if "pnp" in engines:
            runs["pnp"] = run_software_engine(
                workload, algorithm_name, query, PnPEngine, cost_model
            )
        if "cisgraph-o" in engines:
            runs["cisgraph-o"] = run_software_engine(
                workload, algorithm_name, query, CISGraphEngine, cost_model
            )
        if "cisgraph" in engines:
            runs["cisgraph"] = run_accelerator(
                workload, algorithm_name, query, accel_config
            )
        if check_agreement:
            for name, run in runs.items():
                if run.answers != cs.answers:
                    raise AssertionError(
                        f"{name} disagrees with CS on {query}: "
                        f"{run.answers} vs {cs.answers}"
                    )
        for name, run in runs.items():
            per_engine[name].append(cs.response_ns / max(run.response_ns, 1e-9))

    return SpeedupCell(
        algorithm=algorithm_name,
        dataset=workload.spec.abbreviation,
        speedups={name: geometric_mean(vals) for name, vals in per_engine.items()},
        spread={
            name: (min(vals), max(vals))
            for name, vals in per_engine.items()
            if vals
        },
    )


def table4_gmean_rows(cells: Sequence[SpeedupCell]) -> List[Dict[str, object]]:
    """Aggregate cells into the printed Table IV layout: one row per
    (algorithm, engine), one column per dataset, then their GMean."""
    # the first cell of an (algorithm, dataset) pair wins
    speedups = {(c.algorithm, c.dataset): c.speedups for c in reversed(cells)}
    nan = float("nan")
    datasets = sorted({c.dataset for c in cells})
    rows: List[Dict[str, object]] = []
    for algorithm in sorted({c.algorithm for c in cells}):
        for engine in sorted({name for cell in cells for name in cell.speedups}):
            values = {
                dataset: speedups.get((algorithm, dataset), {}).get(engine, nan)
                for dataset in datasets
            }
            measured = [v for v in values.values() if v == v]  # not NaN
            rows.append({"algorithm": algorithm, "engine": engine, **values,
                         "gmean": geometric_mean(measured)})
    return rows


# ----------------------------------------------------------------------
# Response-time timeline (supplementary to Table IV)
# ----------------------------------------------------------------------
@dataclass
class ResponseTimeline:
    """Per-batch response times of several engines over one stream."""

    dataset: str
    algorithm: str
    query: PairwiseQuery
    per_engine_ns: Dict[str, List[float]] = field(default_factory=dict)

    def speedup_series(self, engine: str, baseline: str = "cs") -> List[float]:
        base = self.per_engine_ns[baseline]
        other = self.per_engine_ns[engine]
        return [b / max(o, 1e-9) for b, o in zip(base, other)]


def run_response_timeline(
    workload: StreamingWorkload,
    algorithm_name: str,
    query: PairwiseQuery,
    engines: Sequence[str] = ("cs", "cisgraph-o", "cisgraph"),
    cost_model: Optional[CpuCostModel] = None,
) -> ResponseTimeline:
    """Per-batch response times — how steady is each engine over a stream?

    The paper reports stream-aggregate speedups; the timeline exposes the
    variance behind them (e.g. a batch whose deletions hit the key path
    costs CISGraph a repair, while CS pays the same full solve every time).
    """
    software = {"cs": ColdStartEngine, "incremental": PlainIncrementalEngine,
                "coalescing": CoalescingEngine, "cisgraph-o": CISGraphEngine}
    for name in engines:
        if name not in software and name != "cisgraph":
            raise KeyError(f"unknown engine {name!r} for the timeline")
    timeline = ResponseTimeline(workload.spec.abbreviation, algorithm_name, query)
    for name in engines:
        run = (
            run_accelerator(workload, algorithm_name, query)
            if name == "cisgraph"
            else run_software_engine(
                workload, algorithm_name, query, software[name], cost_model
            )
        )
        timeline.per_engine_ns[name] = run.response_ns_per_batch
    return timeline


# ----------------------------------------------------------------------
# Figure 2: motivation breakdown
# ----------------------------------------------------------------------
@dataclass
class MotivationResult:
    """Averages of the Figure 2 bars for one dataset/algorithm.

    Two uselessness notions are reported (see DESIGN.md):

    * ``useless_update_fraction`` — ground truth: the update's processing
      never moved the *destination*'s state (the query-level waste);
    * ``state_useless_fraction`` — identification level: the update changed
      *no* vertex state at all, which is what the triangle-inequality
      classifier detects (the paper's 85% on Orkut).
    """

    dataset: str
    algorithm: str
    useless_update_fraction: float
    state_useless_fraction: float
    redundant_computation_fraction: float
    wasteful_time_fraction: float
    useless_addition_fraction: float
    useless_deletion_fraction: float
    deletion_ops_per_update: float
    addition_ops_per_update: float


def run_fig2(
    workload: StreamingWorkload,
    algorithm_name: str,
    queries: Sequence[PairwiseQuery],
    cost_model: Optional[CpuCostModel] = None,
    deletion_policy: str = "supplier",
) -> MotivationResult:
    """Breakdown of useless updates / redundant work in plain incremental.

    Replays the stream through the contribution-independent engine with
    per-update attribution: an update is *useless* when its processing wave
    never moved the destination's state; the computations and simulated time
    spent on those updates are the redundant/wasteful fractions.

    ``deletion_policy`` selects the prior-work deletion model:
    ``"supplier"`` (KickStarter-like, fast, default) or ``"reachable"``
    (GraphFly-like conservative reset — orders of magnitude more tagging
    work, demonstrating the paper's "deletions waste more" observation;
    use small streams with it).
    """
    cost_model = cost_model or CpuCostModel()
    algorithm = get_algorithm(algorithm_name)
    profile = _profile(workload)

    useless = total = 0
    state_useless = 0
    useless_ops = total_ops = 0
    useless_ns = total_ns = 0.0
    useless_add = total_add = 0
    useless_del = total_del = 0
    add_ops = del_ops = 0

    for query in queries:
        engine = PlainIncrementalEngine(
            workload.replay.initial_graph,
            algorithm,
            query,
            record_updates=True,
            deletion_policy=deletion_policy,
        )
        engine.initialize()
        for step in workload.replay.batches():
            engine.on_batch(step.batch)
            for record in engine.last_records:
                work = record.ops.total_compute()
                time_ns = cost_model.time_ns(record.ops, profile)
                total += 1
                total_ops += work
                total_ns += time_ns
                if not record.changed_any_state:
                    state_useless += 1
                if record.update.is_addition:
                    total_add += 1
                    add_ops += work
                else:
                    total_del += 1
                    del_ops += work
                if not record.contributed:
                    useless += 1
                    useless_ops += work
                    useless_ns += time_ns
                    if record.update.is_addition:
                        useless_add += 1
                    else:
                        useless_del += 1

    return MotivationResult(
        dataset=workload.spec.abbreviation,
        algorithm=algorithm_name,
        useless_update_fraction=useless / max(total, 1),
        state_useless_fraction=state_useless / max(total, 1),
        redundant_computation_fraction=useless_ops / max(total_ops, 1),
        wasteful_time_fraction=useless_ns / max(total_ns, 1e-9),
        useless_addition_fraction=useless_add / max(total_add, 1),
        useless_deletion_fraction=useless_del / max(total_del, 1),
        deletion_ops_per_update=del_ops / max(total_del, 1),
        addition_ops_per_update=add_ops / max(total_add, 1),
    )


# ----------------------------------------------------------------------
# Figure 5a: computation reduction
# ----------------------------------------------------------------------
@dataclass
class ComputationResult:
    """Computations (relaxations) of CISGraph normalised to CS."""

    dataset: str
    algorithm: str
    cs_computations: int
    cisgraph_computations: int

    @property
    def normalized(self) -> float:
        return self.cisgraph_computations / max(self.cs_computations, 1)


def run_fig5a(
    workload: StreamingWorkload,
    algorithm_name: str,
    queries: Sequence[PairwiseQuery],
) -> ComputationResult:
    """Count ``(+)`` applications in CS vs the CISGraph workflow (Fig 5a)."""
    cs_total = 0
    cis_total = 0
    for query in queries:
        cs = run_software_engine(
            workload, algorithm_name, query, ColdStartEngine
        )
        cis = run_software_engine(
            workload, algorithm_name, query, CISGraphEngine
        )
        cs_total += cs.ops.relaxations
        # classification checks are the workflow's replacement for blind
        # propagation; count them as computations for a fair comparison.
        cis_total += cis.ops.relaxations + cis.ops.classification_checks
    return ComputationResult(
        dataset=workload.spec.abbreviation,
        algorithm=algorithm_name,
        cs_computations=cs_total,
        cisgraph_computations=cis_total,
    )


# ----------------------------------------------------------------------
# Figure 5b: activations, additions vs deletions
# ----------------------------------------------------------------------
@dataclass
class ActivationResult:
    """Activated vertices for additions vs deletions (Fig 5b).

    ``deletion_activations`` counts every vertex a deletion repair touched;
    ``deletion_activations_response`` counts only those touched *before the
    response* (non-delayed repairs) — the deferral that lets CISGraph
    answer early.
    """

    dataset: str
    algorithm: str
    addition_activations: int
    deletion_activations: int
    deletion_activations_response: int

    @property
    def additions_over_deletions(self) -> float:
        return self.addition_activations / max(self.deletion_activations, 1)


def run_fig5b(
    workload: StreamingWorkload,
    algorithm_name: str,
    queries: Sequence[PairwiseQuery],
) -> ActivationResult:
    """Activated vertex counts in the CISGraph workflow, split by kind.

    Both deletion counts are reported: all repair activations, and the
    subset incurred *before the response* (non-delayed repairs) — that
    deferral is why CISGraph "activates fewer vertices for edge deletions
    than edge additions before the response".
    """
    algorithm = get_algorithm(algorithm_name)
    adds = dels = dels_response = 0
    for query in queries:
        engine = CISGraphEngine(workload.replay.initial_graph, algorithm, query)
        engine.initialize()
        for step in workload.replay.batches():
            engine.on_batch(step.batch)
            adds += len(engine.last_activated_add)
            dels += len(engine.last_activated_del)
            dels_response += len(engine.last_activated_del_response)
    return ActivationResult(
        dataset=workload.spec.abbreviation,
        algorithm=algorithm_name,
        addition_activations=adds,
        deletion_activations=dels,
        deletion_activations_response=dels_response,
    )
