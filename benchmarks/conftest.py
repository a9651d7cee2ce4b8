"""Shared configuration for the benchmark suite.

Every benchmark prints its reproduced table/figure to the terminal (outside
pytest's capture) and appends it to ``results/benchmark_report.txt``.  The
six paper artifacts go through :func:`reproduce`: the markdown section of
:mod:`repro.bench.reporting` that ``repro experiment`` and ``repro report``
print, shape line included.  Scale
is controlled with ``CISGRAPH_SCALE`` (default ``small``), the number of
query pairs with ``CISGRAPH_PAIRS`` (default 3; the paper uses 10 — set
``CISGRAPH_PAIRS=10`` for the full protocol) and the number of batches with
``CISGRAPH_BATCHES`` (default 1).
"""

from __future__ import annotations

import os
import sys

import pytest

# make sure benchmarks import like tests do
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "results")


def num_pairs() -> int:
    return int(os.environ.get("CISGRAPH_PAIRS", "3"))


def num_batches() -> int:
    return int(os.environ.get("CISGRAPH_BATCHES", "1"))


@pytest.fixture(scope="session")
def report_path() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "benchmark_report.txt")
    # fresh report per benchmark session
    with open(path, "w") as handle:
        handle.write(
            f"CISGraph benchmark report (scale={os.environ.get('CISGRAPH_SCALE', 'small')}, "
            f"pairs={num_pairs()}, batches={num_batches()})\n\n"
        )
    return path


@pytest.fixture
def emit(capsys, report_path):
    """Print a reproduced table to the real terminal and the report file."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)
        with open(report_path, "a") as handle:
            handle.write(text + "\n\n")

    return _emit


@pytest.fixture(scope="session")
def inputs():
    """One workload and its random query pairs per dataset (the paper: 10
    random pairs), built exactly as ``repro report`` builds them."""
    from repro.bench.datasets import dataset_specs
    from repro.bench.reporting import paper_inputs

    return paper_inputs(dataset_specs(), num_pairs(), num_batches(), seed=0)


@pytest.fixture(scope="session")
def workloads(inputs):
    """One workload per dataset, shared by every benchmark in the session."""
    return inputs[0]


@pytest.fixture(scope="session")
def query_pairs(inputs):
    """Per-dataset random query pairs."""
    return inputs[1]


@pytest.fixture
def reproduce(benchmark, emit, workloads, query_pairs):
    """Run one paper artifact (every algorithm) under the benchmark, emit
    its markdown section and assert that its shape held."""
    from repro.algorithms import list_algorithms
    from repro.bench.reporting import ARTIFACTS, run_artifact

    def _reproduce(name: str):
        results = benchmark.pedantic(
            lambda: run_artifact(name, workloads, query_pairs, list_algorithms()),
            rounds=1,
            iterations=1,
        )
        emit(ARTIFACTS[name].section(results))
        violations = ARTIFACTS[name].check(results)
        assert not violations, violations
        return results

    return _reproduce
