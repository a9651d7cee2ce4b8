"""The paper's artifacts, one definition each.

Every artifact of Section IV that ``repro experiment`` accepts
(``table2``, ``table3``, ``fig2``, ``fig5a``, ``fig5b``, ``table4``) is an
:class:`Artifact` of three parts: a run over the workloads, query pairs
and algorithms the caller passes, a markdown renderer (every paper number
read from :mod:`repro.bench.paper`) and a shape check returning the
violated shapes.  ``repro experiment`` prints one :meth:`Artifact.section`,
``repro report`` the four measured ones (``python -m repro report --output
results/report.md``), and the benchmark suite writes the same sections
into ``results/benchmark_report.txt`` and asserts that their shapes held.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Union,
)

from repro.algorithms import table2_rows
from repro.bench import paper
from repro.bench.datasets import (
    DatasetSpec, StreamingWorkload, make_workload, pick_query_pairs, table3_rows,
)
from repro.bench.experiments import (
    ActivationResult, ComputationResult, MotivationResult, SpeedupCell,
    geometric_mean, run_fig2, run_fig5a, run_fig5b, run_speedup_experiment,
    table4_gmean_rows,
)
from repro.bench.tables import format_speedup
from repro.query import PairwiseQuery

Workloads = Mapping[str, StreamingWorkload]
Queries = Mapping[str, Sequence[PairwiseQuery]]
Rows = Sequence[Dict[str, object]]


def paper_inputs(specs: Sequence[DatasetSpec], pairs: int, batches: int, seed: int):
    """One seeded workload and ``pairs`` random query pairs per dataset."""
    workloads = {s.abbreviation: make_workload(s, num_batches=batches, seed=seed)
                 for s in specs}
    return workloads, {
        abbrev: pick_query_pairs(workload.initial, count=pairs, seed=seed)
        for abbrev, workload in workloads.items()
    }


def _md_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    lines = [f"### {title}", "", "| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    return "\n".join(lines + ["| " + " | ".join(map(str, row)) + " |" for row in rows])


def _per_pair(runner: Callable[..., object]) -> Callable[..., list]:
    """``runner(workload, algorithm, queries)`` over every dataset x algorithm."""
    return lambda workloads, queries, algorithms: [
        runner(workload, algorithm, queries[abbrev])
        for abbrev, workload in workloads.items() for algorithm in algorithms
    ]


# ----------------------------------------------------------------------
# Tables II and III: the inventory the evaluation runs on
# ----------------------------------------------------------------------
def _paper_names(column: str, rows: Rows, published: Set[str]) -> List[str]:
    listed = sorted(str(row[column]).upper() for row in rows)
    if listed == sorted(published):
        return []
    return [f"{column}: {', '.join(listed)}; paper: {', '.join(sorted(published))}"]


def render_table2_markdown(rows: Rows) -> str:
    """Table II, the algorithms and their (+)/(x) operators, as markdown."""
    columns = ["algorithm", "plus", "times", "description"]
    return _md_table("Table II — monotonic graph algorithms ((+) and (x) for u -w-> v)",
                     columns, [[row[c] for c in columns] for row in rows])


def check_table2(rows: Rows) -> List[str]:
    """The registry holds exactly the paper's five algorithms."""
    return _paper_names("algorithm", rows, {a.upper() for a, _ in paper.TABLE4_GMEAN})


def render_table3_markdown(rows: Rows) -> str:
    """Table III, the dataset stand-ins at the current scale, as markdown."""
    columns = ["graph", "abbreviation", "vertices", "edges", "average_degree"]
    return _md_table("Table III — datasets (synthetic stand-ins at CISGRAPH_SCALE)",
                     columns, [[row[c] for c in columns] for row in rows])


def check_table3(rows: Rows) -> List[str]:
    """One stand-in for each of the paper's three datasets."""
    return _paper_names("abbreviation", rows, {d for *_, d in paper.TABLE4_CELLS})


# ----------------------------------------------------------------------
# Figure 2: motivation
# ----------------------------------------------------------------------
_FIG2_COLUMNS = (  # (column, MotivationResult field, the paper's value)
    ("useless (identification)", "state_useless_fraction",
     f"{paper.FIG2_USELESS_UPDATES:.0%}"),
    ("useless (query truth)", "useless_update_fraction",
     f"≥ {paper.FIG2_USELESS_UPDATES:.0%}"),
    ("redundant computations", "redundant_computation_fraction",
     f"{paper.FIG2_REDUNDANT_COMPUTATIONS:.0%}"),
    ("wasteful time", "wasteful_time_fraction", f">{paper.FIG2_WASTEFUL_TIME:.0%}"),
    ("useless additions", "useless_addition_fraction", "—"),
    ("useless deletions", "useless_deletion_fraction", "—"),
)
Fig2Results = Union[MotivationResult, Sequence[MotivationResult]]


def _fig2_list(results: Fig2Results) -> Sequence[MotivationResult]:
    return [results] if isinstance(results, MotivationResult) else results


def render_fig2_markdown(results: Fig2Results) -> str:
    """Measured-vs-paper Figure 2 fractions as markdown."""
    rows = [
        [r.dataset, r.algorithm] + [f"{getattr(r, f):.0%}" for _, f, _ in _FIG2_COLUMNS]
        for r in _fig2_list(results)
    ]
    return _md_table(
        "Figure 2 — useless updates and the work they waste",
        ["dataset", "algorithm"] + [column for column, *_ in _FIG2_COLUMNS],
        rows + [["paper", "—"] + [published for *_, published in _FIG2_COLUMNS]],
    )


def check_fig2(results: Fig2Results) -> List[str]:
    """Most updates are useless and most work redundant; the query-level
    truth bounds the identification level from above."""
    return [
        f"{r.dataset}/{r.algorithm}: {failure}"
        for r in _fig2_list(results)
        for held, failure in (
            (r.state_useless_fraction > 0.5, "identification-level useless "
             f"fraction {r.state_useless_fraction:.2f} is not above 0.5"),
            (r.useless_update_fraction >= r.state_useless_fraction - 1e-9,
             f"query-level useless fraction {r.useless_update_fraction:.2f} "
             "is below the identification level"),
            (r.redundant_computation_fraction > 0.5, "redundant computations "
             f"{r.redundant_computation_fraction:.2f} are not above 0.5"),
        )
        if not held
    ]


# ----------------------------------------------------------------------
# Table IV: speedups over Cold-Start
# ----------------------------------------------------------------------
def render_table4_markdown(cells: Sequence[SpeedupCell]) -> str:
    """Measured-vs-paper Table IV: per dataset, GMean and the paper's GMean."""
    datasets = sorted({cell.dataset for cell in cells})
    rows = [
        [row["algorithm"], row["engine"]]
        + [format_speedup(row[key]) for key in datasets + ["gmean"]]
        + [format_speedup(paper.TABLE4_GMEAN.get(
            (row["algorithm"], row["engine"]), float("nan")))]
        for row in table4_gmean_rows(cells)
    ]
    return _md_table("Table IV — speedup over Cold-Start (CS)",
                     ["algorithm", "engine"] + datasets + ["gmean", "paper"], rows)


def check_table4(cells: Sequence[SpeedupCell]) -> List[str]:
    """The orderings the paper's analysis rests on, on the GMean column."""
    rows = table4_gmean_rows(cells)
    gmeans = {(row["algorithm"], row["engine"]): row["gmean"] for row in rows}
    return paper.check_ordering_shapes(gmeans, sorted({c.algorithm for c in cells}))


# ----------------------------------------------------------------------
# Figure 5: computations and activations
# ----------------------------------------------------------------------
def render_fig5a_markdown(results: Sequence[ComputationResult]) -> str:
    """Figure 5(a) computation-reduction table as markdown."""
    mean = geometric_mean([r.normalized for r in results])
    return _md_table(
        f"Figure 5(a) — computations normalised to CS "
        f"(measured GMean {mean:.4f}, paper {paper.FIG5A_NORMALIZED_MEAN})",
        ["dataset", "algorithm", "cs", "cisgraph", "normalised"],
        [[r.dataset, r.algorithm, r.cs_computations, r.cisgraph_computations,
          f"{r.normalized:.4f}"] for r in results],
    )


def check_fig5a(results: Sequence[ComputationResult]) -> List[str]:
    """CISGraph computes less than CS on every algorithm."""
    return [f"{r.dataset}/{r.algorithm}: CISGraph computed {r.normalized:.4f}x of CS"
            for r in results if not r.normalized < 1.0]


def render_fig5b_markdown(results: Sequence[ActivationResult]) -> str:
    """Figure 5(b) activation table as markdown."""
    ratios = [r.additions_over_deletions for r in results if r.deletion_activations]
    mean = geometric_mean(ratios) if ratios else float("nan")
    before = sum(r.deletion_activations_response for r in results)
    total = sum(r.deletion_activations for r in results)
    return _md_table(
        f"Figure 5(b) — activations, additions vs deletions "
        f"(measured GMean {mean:.2f}, paper {paper.FIG5B_ADD_OVER_DEL}; "
        f"{before}/{total} deletion activations before the response)",
        ["dataset", "algorithm", "add", "del", "del pre-response", "add/del"],
        [[r.dataset, r.algorithm, r.addition_activations, r.deletion_activations,
          r.deletion_activations_response, f"{r.additions_over_deletions:.2f}"]
         for r in results],
    )


def check_fig5b(results: Sequence[ActivationResult]) -> List[str]:
    """Deletion work is deferred past the response, never added to it."""
    before = sum(r.deletion_activations_response for r in results)
    total = sum(r.deletion_activations for r in results)
    if before <= total:
        return []
    return [f"{before} deletion activations before the response, of {total}"]


# ----------------------------------------------------------------------
# the registry and the report
# ----------------------------------------------------------------------
class Artifact(NamedTuple):
    """One paper artifact: ``run(workloads, queries, algorithms)``, its
    markdown ``render`` and its ``check`` (violated shapes, empty = held)."""

    run: Callable[[Workloads, Queries, Sequence[str]], object]
    render: Callable[[object], str]
    check: Callable[[object], List[str]]
    #: what the report runs it on: no workload, Orkut alone (as the paper
    #: shows Figures 2 and 5(a)), or every dataset
    datasets: str

    def section(self, results: object) -> str:
        """The rendered artifact, ending with whether its shape held."""
        violations = self.check(results)
        shape = "\n".join(["shape: violated"] + [f"- {v}" for v in violations])
        return f"{self.render(results)}\n\n{shape if violations else 'shape: held'}"


ARTIFACTS: Dict[str, Artifact] = {
    "table2": Artifact(lambda *_: table2_rows(),
                       render_table2_markdown, check_table2, "none"),
    "table3": Artifact(lambda *_: table3_rows(),
                       render_table3_markdown, check_table3, "none"),
    "fig2": Artifact(_per_pair(run_fig2),
                     render_fig2_markdown, check_fig2, "OR"),
    "table4": Artifact(_per_pair(run_speedup_experiment),
                       render_table4_markdown, check_table4, "every"),
    "fig5a": Artifact(_per_pair(run_fig5a),
                      render_fig5a_markdown, check_fig5a, "OR"),
    "fig5b": Artifact(_per_pair(run_fig5b),
                      render_fig5b_markdown, check_fig5b, "every"),
}


def run_artifact(name: str, workloads: Workloads, queries: Queries,
                 algorithms: Sequence[str]) -> object:
    """Run ``name`` on the datasets the report shows it for."""
    artifact = ARTIFACTS[name]
    if artifact.datasets not in ("none", "every"):  # one dataset, by abbreviation
        workloads = {artifact.datasets: workloads[artifact.datasets]}
    return artifact.run(workloads, queries, algorithms)


def render_report(
    cells: Optional[Sequence[SpeedupCell]] = None,
    fig2: Optional[Fig2Results] = None,
    fig5a: Optional[Sequence[ComputationResult]] = None,
    fig5b: Optional[Sequence[ActivationResult]] = None,
    title: str = "CISGraph reproduction report",
) -> str:
    """Assemble the available measured sections into one markdown document."""
    results = {"fig2": fig2, "table4": cells, "fig5a": fig5a, "fig5b": fig5b}
    return "\n\n".join([f"# {title}"] + [
        ARTIFACTS[name].section(result) for name, result in results.items() if result
    ]) + "\n"


def run_report(
    workloads: Workloads, queries: Queries, algorithms: Sequence[str]
) -> str:
    """Run the four measured artifacts and render the report."""
    run = {name: run_artifact(name, workloads, queries, algorithms)
           for name in ("fig2", "table4", "fig5a", "fig5b")}
    return render_report(cells=run["table4"], fig2=run["fig2"],
                         fig5a=run["fig5a"], fig5b=run["fig5b"])
