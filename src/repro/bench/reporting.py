"""Markdown rendering of experiment results.

Turns the harness's result objects into the paper-vs-measured markdown
used in EXPERIMENTS.md, so reports can be regenerated mechanically after
code changes (``python -m repro report --output results/report.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.experiments import (
    ActivationResult,
    ComputationResult,
    MotivationResult,
    SpeedupCell,
    geometric_mean,
    table4_gmean_rows,
)
from repro.bench.paper import (
    FIG2_USELESS_UPDATES,
    FIG5A_NORMALIZED_MEAN,
    FIG5B_ADD_OVER_DEL,
    paper_gmean,
)


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "| " + " | ".join(headers) + " |"
    rule = "|" + "|".join("---" for _ in headers) + "|"
    body = "\n".join("| " + " | ".join(str(c) for c in row) + " |" for row in rows)
    return "\n".join([head, rule, body]) if rows else "\n".join([head, rule])


def _speedup(value: float) -> str:
    if value != value:
        return "—"
    return f"{value:.2f}x" if value < 100 else f"{value:.0f}x"


def render_table4_markdown(cells: Sequence[SpeedupCell]) -> str:
    """Measured-vs-paper Table IV as markdown."""
    rows = []
    for row in table4_gmean_rows(cells):
        published = paper_gmean(str(row["algorithm"]), str(row["engine"]))
        rows.append(
            [
                row["algorithm"],
                row["engine"],
                _speedup(float(row["gmean"])),
                _speedup(published) if published is not None else "—",
            ]
        )
    return "### Table IV — GMean speedup over Cold-Start\n\n" + _md_table(
        ["algorithm", "engine", "measured", "paper"], rows
    )


def render_fig2_markdown(result: MotivationResult) -> str:
    """Measured-vs-paper Figure 2 fractions as markdown."""
    rows = [
        [
            "useless updates (identification)",
            f"{result.state_useless_fraction:.0%}",
            f"{FIG2_USELESS_UPDATES:.0%}",
        ],
        [
            "useless updates (query truth)",
            f"{result.useless_update_fraction:.0%}",
            "≥ 85%",
        ],
        [
            "redundant computations",
            f"{result.redundant_computation_fraction:.0%}",
            "87%",
        ],
        ["wasteful time", f"{result.wasteful_time_fraction:.0%}", ">84%"],
    ]
    return (
        f"### Figure 2 — motivation ({result.dataset}, {result.algorithm})\n\n"
        + _md_table(["metric", "measured", "paper"], rows)
    )


def render_fig5a_markdown(results: Sequence[ComputationResult]) -> str:
    """Figure 5(a) computation-reduction table as markdown."""
    rows = [
        [r.algorithm, r.cs_computations, r.cisgraph_computations, f"{r.normalized:.4f}"]
        for r in results
    ]
    mean = geometric_mean([r.normalized for r in results]) if results else 0.0
    return (
        f"### Figure 5(a) — computations normalised to CS "
        f"(measured GMean {mean:.4f}, paper {FIG5A_NORMALIZED_MEAN})\n\n"
        + _md_table(["algorithm", "cs", "cisgraph", "normalised"], rows)
    )


def render_fig5b_markdown(results: Sequence[ActivationResult]) -> str:
    """Figure 5(b) activation table as markdown."""
    rows = [
        [
            r.dataset,
            r.algorithm,
            r.addition_activations,
            r.deletion_activations,
            r.deletion_activations_response,
            f"{r.additions_over_deletions:.2f}",
        ]
        for r in results
    ]
    ratios = [
        r.additions_over_deletions for r in results if r.deletion_activations
    ]
    mean = geometric_mean(ratios) if ratios else float("nan")
    return (
        f"### Figure 5(b) — activations, additions vs deletions "
        f"(measured GMean {mean:.2f}, paper {FIG5B_ADD_OVER_DEL})\n\n"
        + _md_table(
            ["dataset", "algorithm", "add", "del", "del pre-response", "add/del"],
            rows,
        )
    )


def render_report(
    cells: Optional[Sequence[SpeedupCell]] = None,
    fig2: Optional[MotivationResult] = None,
    fig5a: Optional[Sequence[ComputationResult]] = None,
    fig5b: Optional[Sequence[ActivationResult]] = None,
    title: str = "CISGraph reproduction report",
) -> str:
    """Assemble available sections into one markdown document."""
    sections: List[str] = [f"# {title}"]
    if fig2 is not None:
        sections.append(render_fig2_markdown(fig2))
    if cells:
        sections.append(render_table4_markdown(cells))
    if fig5a:
        sections.append(render_fig5a_markdown(fig5a))
    if fig5b:
        sections.append(render_fig5b_markdown(fig5b))
    return "\n\n".join(sections) + "\n"
