"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import threading
import time
from typing import List, Tuple

import pytest

from repro.algorithms.registry import get_algorithm, list_algorithms
from repro.graph.batch import EdgeUpdate, UpdateBatch, UpdateKind
from repro.graph.dynamic import DynamicGraph
from repro.graph import generators

ALL_ALGORITHMS = list_algorithms()


@pytest.fixture(autouse=True)
def no_thread_leaks():
    """Every test must return the process to its thread baseline.

    Shard workers are daemon threads; a test that forgets to close its
    harness (or a close() that silently fails to join) would leak them
    across the whole session and poison later timing-sensitive tests.
    A short grace period lets just-joined threads finish dying before
    the count is compared.
    """
    before = threading.active_count()
    yield
    deadline = time.monotonic() + 2.0
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    leaked = threading.active_count() - before
    assert leaked <= 0, (
        f"test leaked {leaked} thread(s): "
        f"{[t.name for t in threading.enumerate()]}"
    )


@pytest.fixture(params=ALL_ALGORITHMS)
def algorithm(request):
    """Every registered monotonic algorithm, one at a time."""
    return get_algorithm(request.param)


@pytest.fixture(scope="session")
def adaptive_chaos_report(tmp_path_factory):
    """``name -> ChaosReport``: a builtin schedule's adaptive PPSP run.

    Each schedule is played once per session: ``tests/test_chaos_adaptive.py``
    grades the reports and ``tests/test_serve_control.py`` reads the same
    ones to check that every controller knob is moved by some schedule.
    """
    from repro.resilience.chaos import builtin_schedule, run_chaos

    reports = {}

    def report(name: str):
        if name not in reports:
            reports[name] = run_chaos(
                builtin_schedule(name), str(tmp_path_factory.mktemp(name)),
                get_algorithm("ppsp"), adaptive=True,
            )
        return reports[name]

    return report


@pytest.fixture
def diamond_graph() -> DynamicGraph:
    """A 6-vertex graph with two s->d routes of different quality.

    Layout (weights in parentheses)::

        0 -(1)-> 1 -(1)-> 3
        0 -(4)-> 2 -(4)-> 3
        3 -(2)-> 4        5 isolated
    """
    return DynamicGraph.from_edges(
        6,
        [
            (0, 1, 1.0),
            (1, 3, 1.0),
            (0, 2, 4.0),
            (2, 3, 4.0),
            (3, 4, 2.0),
        ],
    )


def random_graph(
    num_vertices: int, num_edges: int, seed: int = 0
) -> DynamicGraph:
    """Random simple weighted digraph for differential tests."""
    return generators.uniform_digraph(num_vertices, num_edges, random.Random(seed))


def random_batch(
    graph: DynamicGraph,
    num_additions: int,
    num_deletions: int,
    seed: int = 0,
    reweight_fraction: float = 0.2,
) -> UpdateBatch:
    """Additions (some re-weighting existing edges) plus deletions.

    ``reweight_fraction`` of the additions target an already-present edge
    with a fresh weight, exercising the in-place re-weight path that pure
    absent-edge batches would miss.
    """
    rng = random.Random(seed)
    batch = UpdateBatch()
    existing = list(graph.edges())
    present = {(u, v) for u, v, _ in existing}
    added = set()
    num_reweights = int(num_additions * reweight_fraction)
    if existing:
        for u, v, _ in rng.sample(existing, min(num_reweights, len(existing))):
            batch.append(
                EdgeUpdate(UpdateKind.ADD, u, v, float(rng.randint(1, 16)))
            )
    while len(added) < num_additions - num_reweights:
        u = rng.randrange(graph.num_vertices)
        v = rng.randrange(graph.num_vertices)
        if u == v or (u, v) in present or (u, v) in added:
            continue
        added.add((u, v))
        batch.append(EdgeUpdate(UpdateKind.ADD, u, v, float(rng.randint(1, 16))))
    for u, v, w in rng.sample(existing, min(num_deletions, len(existing))):
        batch.append(EdgeUpdate(UpdateKind.DELETE, u, v, w))
    return batch


def reachable_destination(graph: DynamicGraph, source: int) -> int:
    """Some vertex reachable from ``source`` (breadth-first), or -1."""
    from collections import deque

    seen = {source}
    queue = deque([source])
    last = -1
    while queue:
        u = queue.popleft()
        for v, _ in graph.out_neighbors(u):
            if v not in seen:
                seen.add(v)
                last = v
                queue.append(v)
    return last
