"""Ablation studies over the design choices DESIGN.md calls out.

These go beyond the paper's printed evaluation: they quantify the effect of
the accelerator's pipeline count, SPM capacity, the preemptive scheduling
policy, SGraph's hub count, and the batch size — the knobs the paper's
design sections argue about qualitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.registry import get_algorithm
from repro.baselines.coldstart import ColdStartEngine
from repro.baselines.sgraph import SGraphEngine
from repro.bench.datasets import StreamingWorkload, make_workload, pick_query_pairs
from repro.bench.experiments import (
    EngineRunResult,
    geometric_mean,
    run_accelerator,
    run_software_engine,
)
from repro.core.engine import CISGraphEngine
from repro.hw.config import AcceleratorConfig, SpmConfig
from repro.hw.cpu_model import CpuCostModel
from repro.query import PairwiseQuery


@dataclass
class AblationPoint:
    """One configuration point of a sweep."""

    label: str
    response_ns: float
    total_ns: float
    extra: Dict[str, float]


def _accelerator_sweep(
    workload: StreamingWorkload,
    algorithm_name: str,
    queries: Sequence[PairwiseQuery],
    configs: Sequence[Tuple[str, Optional[AcceleratorConfig]]],
) -> List[AblationPoint]:
    """One point per labelled configuration: accelerator response and
    drain time summed over the queries, and the mean SPM hit rate."""
    points = []
    for label, config in configs:
        response = total = hit = 0.0
        for query in queries:
            run = run_accelerator(workload, algorithm_name, query, config)
            response += run.response_ns
            total += run.total_ns
            hit += run.extra["spm_hit_rate"]
        points.append(
            AblationPoint(
                label=label,
                response_ns=response,
                total_ns=total,
                extra={"spm_hit_rate": hit / max(len(queries), 1)},
            )
        )
    return points


def sweep_pipelines(
    workload: StreamingWorkload,
    algorithm_name: str,
    queries: Sequence[PairwiseQuery],
    pipeline_counts: Sequence[int] = (1, 2, 4, 8),
) -> List[AblationPoint]:
    """Accelerator response time vs pipeline/propagation-unit count (A1)."""
    return _accelerator_sweep(workload, algorithm_name, queries, [
        (f"{count}p", AcceleratorConfig(pipelines=count, propagate_units=count))
        for count in pipeline_counts
    ])


def sweep_spm_size(
    workload: StreamingWorkload,
    algorithm_name: str,
    queries: Sequence[PairwiseQuery],
    sizes_kb: Sequence[int] = (64, 512, 4096, 32768),
) -> List[AblationPoint]:
    """Accelerator response time and SPM hit rate vs scratchpad size (A2).

    Sizes are in KiB: at reproduction scale the whole working set already
    fits in a few MiB, so the interesting knee sits below 1 MiB.
    """
    return _accelerator_sweep(workload, algorithm_name, queries, [
        (f"{size}KB", AcceleratorConfig(spm=SpmConfig(size_bytes=size * 1024)))
        for size in sizes_kb
    ])


def scheduling_policy_comparison(
    workload: StreamingWorkload,
    algorithm_name: str,
    queries: Sequence[PairwiseQuery],
    config: Optional[AcceleratorConfig] = None,
) -> List[AblationPoint]:
    """Preemptive scheduling vs drain-everything-first (A3).

    With CISGraph's priority buffer the answer is ready at
    ``response_cycles``; a FIFO design without delayed-update deferral
    cannot answer until the whole buffer drains (``total_cycles``).  The
    comparison therefore falls out of one simulation per query.
    """
    (run,) = _accelerator_sweep(workload, algorithm_name, queries, [("", config)])
    return [
        AblationPoint("priority", run.response_ns, total_ns=run.response_ns, extra={}),
        AblationPoint("fifo-drain", run.total_ns, total_ns=run.total_ns, extra={}),
    ]


def sweep_hub_count(
    workload: StreamingWorkload,
    algorithm_name: str,
    queries: Sequence[PairwiseQuery],
    hub_counts: Sequence[int] = (4, 16, 64),
    cost_model: Optional[CpuCostModel] = None,
) -> List[AblationPoint]:
    """SGraph response time vs number of hub vertices (A4).

    More hubs mean tighter bounds but proportionally more maintenance;
    the paper's "inaccurate agent selection" randomness shows up as the
    sweep's non-monotonic response times.
    """
    cost_model = cost_model or CpuCostModel()
    points = []
    for count in hub_counts:
        response = total = 0.0
        for query in queries:
            run = run_software_engine(
                workload,
                algorithm_name,
                query,
                SGraphEngine,
                cost_model,
                num_hubs=count,
            )
            response += run.response_ns
            total += run.total_ns
        points.append(
            AblationPoint(
                label=f"{count}hubs", response_ns=response, total_ns=total, extra={}
            )
        )
    return points


def sweep_dram_channels(
    workload: StreamingWorkload,
    algorithm_name: str,
    queries: Sequence[PairwiseQuery],
    channel_counts: Sequence[int] = (1, 2, 4, 8),
) -> List[AblationPoint]:
    """Accelerator response time vs DRAM channel count (A8).

    Table I provisions 8 channels; graph propagation is famously
    bandwidth-hungry, so halving channels should cost visibly once the SPM
    misses.
    """
    from repro.hw.config import DramConfig

    return _accelerator_sweep(workload, algorithm_name, queries, [
        (f"{channels}ch", AcceleratorConfig(dram=DramConfig(channels=channels)))
        for channels in channel_counts
    ])


def keypath_rule_comparison(
    workload: StreamingWorkload,
    algorithm_name: str,
    queries: Sequence[PairwiseQuery],
) -> List[AblationPoint]:
    """Algorithm 1's key-path test vs the precise edge test (A7).

    The paper marks a supplying deletion non-delayed when its *tail* lies
    on the global key path; the precise rule requires the deleted edge to
    be a dependence edge of the path.  The paper rule schedules more
    deletions before the answer (safe but eager); the precise rule defers
    more.  Both are exact — the comparison quantifies the response-time
    difference.
    """
    from repro.algorithms.registry import get_algorithm
    from repro.core.classification import KeyPathRule
    from repro.hw.accelerator import CISGraphAccelerator

    points = []
    config = AcceleratorConfig()
    for rule in (KeyPathRule.PRECISE, KeyPathRule.PAPER):
        response = total = 0.0
        urgent = 0
        for query in queries:
            engine = CISGraphAccelerator(
                workload.replay.initial_graph,
                get_algorithm(algorithm_name),
                query,
                config=config,
                rule=rule,
            )
            engine.initialize()
            for step in workload.replay.batches():
                result = engine.on_batch(step.batch)
                response += config.cycles_to_ns(int(result.stats["response_cycles"]))
                total += config.cycles_to_ns(int(result.stats["total_cycles"]))
                urgent += int(result.stats["nondelayed_deletions"])
        points.append(
            AblationPoint(
                label=rule.value,
                response_ns=response,
                total_ns=total,
                extra={"nondelayed_deletions": float(urgent)},
            )
        )
    return points


def sweep_batch_size(
    spec,
    algorithm_name: str,
    batch_sizes: Sequence[int] = (200, 500, 1000),
    num_queries: int = 3,
    seed: int = 0,
    cost_model: Optional[CpuCostModel] = None,
) -> List[AblationPoint]:
    """CISGraph-O speedup over CS vs batch size (A5).

    Larger batches amortize CS's recompute over more updates, shrinking the
    incremental advantage — the crossover the streaming literature predicts.
    """
    cost_model = cost_model or CpuCostModel()
    points = []
    for size in batch_sizes:
        workload = make_workload(
            spec,
            num_batches=1,
            additions_per_batch=size,
            deletions_per_batch=size,
            seed=seed,
        )
        queries = pick_query_pairs(workload.initial, count=num_queries, seed=seed)
        speedups = []
        for query in queries:
            cs = run_software_engine(
                workload, algorithm_name, query, ColdStartEngine, cost_model
            )
            cis = run_software_engine(
                workload, algorithm_name, query, CISGraphEngine, cost_model
            )
            speedups.append(cs.response_ns / max(cis.response_ns, 1e-9))
        points.append(
            AblationPoint(
                label=f"batch={size}+{size}",
                response_ns=0.0,
                total_ns=0.0,
                extra={"speedup_over_cs": geometric_mean(speedups)},
            )
        )
    return points
