"""Table III: dataset inventory (scaled stand-ins, see DESIGN.md).

The ``table3`` artifact of :mod:`repro.bench.reporting`; the benchmarks
measure snapshot construction (CSR build), the substrate cost every
streaming batch pays in the accelerator, and workload generation.
"""

from repro.bench.datasets import dataset_specs
from repro.graph.csr import CSRGraph


def test_table3(reproduce):
    reproduce("table3")


def test_csr_build(benchmark, workloads):
    """Snapshot construction of the OR stand-in."""
    graph = workloads["OR"].initial
    benchmark(lambda: CSRGraph.from_dynamic(graph))


def test_workload_generation(benchmark):
    """Streaming-protocol generation cost (50% load + batch sampling)."""
    from repro.bench.datasets import make_workload

    spec = dataset_specs()[0]
    benchmark.pedantic(
        lambda: make_workload(spec, num_batches=1, seed=1),
        rounds=3,
        iterations=1,
    )
