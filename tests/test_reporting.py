"""Tests for the markdown report renderer."""

import pytest

from repro.bench.experiments import (
    ActivationResult,
    ComputationResult,
    MotivationResult,
    SpeedupCell,
)
from repro.bench.reporting import (
    render_fig2_markdown,
    render_fig5a_markdown,
    render_fig5b_markdown,
    render_report,
    render_table4_markdown,
)


@pytest.fixture
def sample_cells():
    return [
        SpeedupCell(
            algorithm="ppsp",
            dataset="OR",
            speedups={"sgraph": 5.0, "cisgraph-o": 50.0, "cisgraph": 120.0},
        )
    ]


@pytest.fixture
def sample_fig2():
    return MotivationResult(
        dataset="OR",
        algorithm="ppsp",
        useless_update_fraction=1.0,
        state_useless_fraction=0.93,
        redundant_computation_fraction=0.99,
        wasteful_time_fraction=0.98,
        useless_addition_fraction=1.0,
        useless_deletion_fraction=1.0,
        deletion_ops_per_update=10.0,
        addition_ops_per_update=20.0,
    )


class TestSections:
    def test_table4(self, sample_cells):
        text = render_table4_markdown(sample_cells)
        assert "| ppsp | cisgraph | 120x | 120x | 75.6x |" in text
        assert "Cold-Start" in text

    def test_fig2(self, sample_fig2):
        text = render_fig2_markdown(sample_fig2)
        assert "93%" in text
        assert "85%" in text  # paper reference

    def test_fig5a(self):
        text = render_fig5a_markdown(
            [
                ComputationResult("OR", "ppsp", 1000, 20),
                ComputationResult("OR", "reach", 1000, 10),
            ]
        )
        assert "0.0200" in text
        assert "paper 0.33" in text

    def test_fig5b(self):
        text = render_fig5b_markdown(
            [ActivationResult("OR", "ppsp", 100, 50, 5)]
        )
        assert "| OR | ppsp | 100 | 50 | 5 | 2.00 |" in text

    def test_full_report(self, sample_cells, sample_fig2):
        text = render_report(cells=sample_cells, fig2=sample_fig2)
        assert text.startswith("# CISGraph reproduction report")
        assert "Table IV" in text
        assert "Figure 2" in text

    def test_empty_report(self):
        text = render_report()
        assert text.strip() == "# CISGraph reproduction report"

    def test_markdown_table_shape(self, sample_cells):
        lines = render_table4_markdown(sample_cells).splitlines()
        header_index = next(
            i for i, line in enumerate(lines) if line.startswith("| algorithm")
        )
        assert lines[header_index + 1].startswith("|---")
        for line in lines[header_index:]:
            if line:
                assert line.count("|") == 6  # algorithm, engine, OR, gmean, paper
