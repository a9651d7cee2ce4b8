"""Figure 2: breakdown of graph updates, redundant computations and
wasteful processing time under contribution-independent processing.

The ``fig2`` artifact of :mod:`repro.bench.reporting` (its paper values
come from :mod:`repro.bench.paper`): on Orkut most updates are useless and
cause most of the computations and processing time; deletions waste more
than additions because of the extra tagging traversal.

The reproduction reports two uselessness notions (DESIGN.md): the
identification-level fraction (updates changing no state — what the
paper's classifier detects) and the query-level ground truth (updates
that never moved the destination, which bounds it from above).
The deletion-overhead observation is demonstrated separately by comparing
KickStarter-style dependence tagging against the GraphFly-style
conservative reset on a deletion-only stream.
"""

from repro.algorithms import get_algorithm
from repro.baselines.incremental import PlainIncrementalEngine
from repro.bench.charts import horizontal_bars
from repro.bench.tables import format_dict_table
from repro.graph.batch import UpdateBatch
from repro.metrics import OpCounts


def test_fig2(reproduce, emit):
    for result in reproduce("fig2"):
        emit(
            horizontal_bars(
                [
                    ("useless (identification)", result.state_useless_fraction),
                    ("useless (query truth)", result.useless_update_fraction),
                    ("redundant computations", result.redundant_computation_fraction),
                    ("wasteful time", result.wasteful_time_fraction),
                ],
                width=50,
                max_value=1.0,
                value_format="{:.0%}",
                title=f"Figure 2 as bars ({result.dataset}, {result.algorithm})",
            )
        )


def test_fig2_deletion_tagging_overhead(benchmark, emit, workloads, query_pairs):
    """Deletions cost more under prior-work tagging (Figure 2, right)."""
    workload = workloads["OR"]
    query = query_pairs["OR"][0]
    # a small deletion-only stream keeps the conservative policy tractable
    deletions = UpdateBatch(list(workload.replay.batch(0).deletions)[:50])

    def measure(policy: str) -> OpCounts:
        engine = PlainIncrementalEngine(
            workload.replay.initial_graph,
            get_algorithm("ppsp"),
            query,
            deletion_policy=policy,
        )
        engine.initialize()
        return engine.on_batch(deletions).response_ops

    def run_both():
        return measure("supplier"), measure("reachable")

    supplier, reachable = benchmark.pedantic(run_both, rounds=1, iterations=1)
    ratio = reachable.total_compute() / max(supplier.total_compute(), 1)
    rows = [
        {
            "deletion handling": "KickStarter-like (dependence tagging)",
            "compute_ops": supplier.total_compute(),
            "tag_ops": supplier.tag_ops,
        },
        {
            "deletion handling": "GraphFly-like (conservative reset)",
            "compute_ops": reachable.total_compute(),
            "tag_ops": reachable.tag_ops,
        },
    ]
    emit(
        format_dict_table(
            rows,
            columns=["deletion handling", "compute_ops", "tag_ops"],
            title=(
                "Figure 2 (deletions) - prior-work deletion overhead on "
                f"{len(deletions)} deletions (conservative/trimmed = {ratio:.0f}x)"
            ),
        )
    )
    assert reachable.total_compute() >= supplier.total_compute()
