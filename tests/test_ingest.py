"""One reduction per batch: every engine ingests through ``apply_net``.

``DynamicGraph.apply_net`` reduces a batch to its net effect and applies
it in one loop (``tests/test_properties.py`` holds it to the seed's
reduce-then-apply pair).  These counts pin who calls it: each engine once
per batch, the serve engine once per commit on its canonical graph, and
none of them falls back to ``apply_batch`` on the way.
"""

from collections import Counter

import pytest

from repro.algorithms import PPSP
from repro.baselines.coalescing import CoalescingEngine
from repro.core.engine import CISGraphEngine
from repro.core.multiquery import MultiQueryEngine
from repro.graph.dynamic import DynamicGraph
from repro.hw.accelerator import CISGraphAccelerator
from repro.query import PairwiseQuery
from tests.conftest import random_batch, random_graph
from tests.test_serve_reads import _mixed_batch, _open, _register_all

BATCHES = 4

_apply_net = DynamicGraph.apply_net
_apply_batch = DynamicGraph.apply_batch


@pytest.fixture
def calls(monkeypatch):
    """``(method, graph id)`` -> call count for both ingest routines."""
    seen = Counter()

    def apply_net(graph, batch):
        seen["apply_net", id(graph)] += 1
        return _apply_net(graph, batch)

    def apply_batch(graph, batch, missing_ok=True):
        seen["apply_batch", id(graph)] += 1
        return _apply_batch(graph, batch, missing_ok)

    monkeypatch.setattr(DynamicGraph, "apply_net", apply_net)
    monkeypatch.setattr(DynamicGraph, "apply_batch", apply_batch)
    return seen


ENGINES = {
    "cisgraph-o": lambda g: CISGraphEngine(g, PPSP(), PairwiseQuery(0, 9)),
    "multi": lambda g: MultiQueryEngine(
        g, PPSP(), [PairwiseQuery(0, 9), PairwiseQuery(0, 17), PairwiseQuery(3, 9)]
    ),
    "accelerator": lambda g: CISGraphAccelerator(g, PPSP(), PairwiseQuery(0, 9)),
    "coalescing": lambda g: CoalescingEngine(g, PPSP(), PairwiseQuery(0, 9)),
}


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_each_engine_reduces_and_applies_once_per_batch(name, calls):
    graph = random_graph(40, 200, seed=5)
    engine = ENGINES[name](graph)
    engine.initialize()
    for index in range(BATCHES):
        engine.on_batch(random_batch(graph, 12, 8, seed=index))
        assert calls == Counter({("apply_net", id(graph)): index + 1})


@pytest.mark.serve
def test_a_serve_commit_reduces_and_applies_once(tmp_path, calls):
    with _open(tmp_path, shards=2) as harness:
        _register_all(harness)
        canonical = harness.engine.graph
        calls.clear()
        for index in range(BATCHES):
            result = harness.submit(_mixed_batch(canonical, index))
            assert not result.failed_shards
            assert calls == Counter({("apply_net", id(canonical)): index + 1})
