"""Table IV: execution speedup of SGraph, CISGraph-O and CISGraph over the
Cold-Start baseline, per algorithm and dataset with geometric means.

The ``table4`` artifact of :mod:`repro.bench.reporting`, with the paper's
GMeans from :mod:`repro.bench.paper`.  Paper shapes that must hold:
CISGraph-O consistently beats CS; SGraph is erratic (occasionally losing
to CS because of hub-bound maintenance); the CISGraph accelerator adds a
further integer factor over CISGraph-O.
"""

from repro.bench.tables import format_dict_table, format_speedup


def test_table4(reproduce, emit):
    """The orderings of ``repro.bench.paper.check_ordering_shapes`` hold."""
    cells = reproduce("table4")
    # SGraph's per-query spread is the paper's "randomness"
    spread_rows = [
        {
            "algorithm": c.algorithm,
            "dataset": c.dataset,
            "sgraph_min": c.spread["sgraph"][0],
            "sgraph_max": c.spread["sgraph"][1],
        }
        for c in cells
        if "sgraph" in c.spread
    ]
    if spread_rows:
        emit(
            format_dict_table(
                spread_rows,
                columns=["algorithm", "dataset", "sgraph_min", "sgraph_max"],
                formatters={
                    "sgraph_min": format_speedup,
                    "sgraph_max": format_speedup,
                },
                title="Table IV (supplement) - SGraph per-query speedup spread",
            )
        )
