"""Experiment harness: the paper's tables/figures plus traffic simulation.

Besides the artifact regeneration helpers, this package hosts the
production-traffic benchmark subsystem (:mod:`repro.bench.traffic` for
seeded open-loop load generation, :mod:`repro.bench.runner` for isolated
SLO-graded run bundles).
"""

from repro.bench.datasets import (
    DatasetSpec,
    StreamingWorkload,
    build_edges,
    current_scale,
    dataset_by_abbreviation,
    dataset_specs,
    make_workload,
    pick_query_pairs,
    table3_rows,
)
from repro.bench.experiments import (
    ActivationResult,
    ComputationResult,
    EngineRunResult,
    MotivationResult,
    SpeedupCell,
    geometric_mean,
    run_accelerator,
    run_fig2,
    run_fig5a,
    run_fig5b,
    run_software_engine,
    run_speedup_experiment,
    table4_gmean_rows,
)
from repro.bench.analysis import StreamDiagnostics, diagnose_stream, histogram, summarize
from repro.bench.charts import grouped_bars, horizontal_bars
from repro.bench.reporting import render_report
from repro.bench.runner import (
    RunConfig,
    TrafficRunReport,
    reproduce_run,
    run_traffic,
)
from repro.bench.traffic import (
    TRAFFIC_PROFILES,
    TrafficEvent,
    TrafficProfile,
    TrafficWorkload,
    builtin_profile,
    generate_arrivals,
    make_traffic_workload,
)
from repro.bench.tables import (
    format_dict_table,
    format_fraction,
    format_speedup,
    format_table,
)

__all__ = [
    "DatasetSpec",
    "StreamingWorkload",
    "build_edges",
    "current_scale",
    "dataset_by_abbreviation",
    "dataset_specs",
    "make_workload",
    "pick_query_pairs",
    "table3_rows",
    "ActivationResult",
    "ComputationResult",
    "EngineRunResult",
    "MotivationResult",
    "SpeedupCell",
    "geometric_mean",
    "run_accelerator",
    "run_fig2",
    "run_fig5a",
    "run_fig5b",
    "run_software_engine",
    "run_speedup_experiment",
    "table4_gmean_rows",
    "format_dict_table",
    "format_fraction",
    "format_speedup",
    "format_table",
    "StreamDiagnostics",
    "diagnose_stream",
    "histogram",
    "summarize",
    "grouped_bars",
    "horizontal_bars",
    "render_report",
    "RunConfig",
    "TrafficRunReport",
    "reproduce_run",
    "run_traffic",
    "TRAFFIC_PROFILES",
    "TrafficEvent",
    "TrafficProfile",
    "TrafficWorkload",
    "builtin_profile",
    "generate_arrivals",
    "make_traffic_workload",
]
