"""Table II: the five monotonic algorithms and their (+)/(x) operators.

Reproduced directly from the algorithm registry (the ``table2`` artifact
of :mod:`repro.bench.reporting`); the benchmarks measure the relaxation
throughput of each algorithm's operator pair (the accelerator's per-cycle
propagation step).
"""

import pytest

from repro.algorithms import get_algorithm


def test_table2(reproduce):
    reproduce("table2")


def test_relaxation_kernel(benchmark):
    """One PPSP relaxation chain of 1000 (+)/(x) steps."""
    alg = get_algorithm("ppsp")

    def relax_kernel():
        state = alg.source_state()
        for w in range(1, 1001):
            state = alg.combine(
                alg.propagate(state, alg.transform_weight(float(w % 9 + 1))),
                state,
            )
        return state

    benchmark(relax_kernel)


@pytest.mark.parametrize("name", ["ppsp", "ppwp", "ppnp", "viterbi", "reach"])
def test_relaxation_throughput(benchmark, name):
    """Per-algorithm relaxation kernel throughput."""
    alg = get_algorithm(name)
    weights = [alg.transform_weight(float(w % 13 + 1)) for w in range(512)]

    def kernel():
        state = alg.source_state()
        other = alg.identity()
        for w in weights:
            other = alg.combine(alg.propagate(state, w), other)
        return other

    benchmark(kernel)
