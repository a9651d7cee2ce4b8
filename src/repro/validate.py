"""Cross-engine differential validation.

Used by the CLI's ``validate`` command and by integration tests: generate a
random graph and update stream, run every engine, and check each batch's
answer against the reference solver.  A sound installation must pass this
for all five algorithms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.algorithms import dijkstra, get_algorithm, list_algorithms
from repro.graph.batch import EdgeUpdate, UpdateBatch, UpdateKind
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import uniform_digraph
from repro.query import PairwiseQuery


@dataclass
class ValidationReport:
    """Outcome of a differential validation run."""

    ok: bool = True
    checks: int = 0
    lines: List[str] = field(default_factory=list)

    def record(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.ok = False
            self.lines.append(f"MISMATCH: {message}")


def _random_batch(graph: DynamicGraph, size: int, rng: random.Random) -> UpdateBatch:
    batch = UpdateBatch()
    existing = list(graph.edges())
    for _ in range(size):
        roll = rng.random()
        if roll < 0.45 or not existing:
            u = rng.randrange(graph.num_vertices)
            v = rng.randrange(graph.num_vertices)
            if u == v:
                continue
            batch.append(
                EdgeUpdate(UpdateKind.ADD, u, v, float(rng.randint(1, 16)))
            )
        elif roll < 0.55:
            u, v, _ = existing[rng.randrange(len(existing))]
            batch.append(
                EdgeUpdate(UpdateKind.ADD, u, v, float(rng.randint(1, 16)))
            )
        else:
            u, v, w = existing[rng.randrange(len(existing))]
            batch.append(EdgeUpdate(UpdateKind.DELETE, u, v, w))
    return batch


def validate_engines(
    num_vertices: int = 80,
    num_edges: int = 500,
    num_batches: int = 2,
    batch_size: int = 40,
    seed: int = 0,
    algorithms: Optional[Sequence[str]] = None,
) -> ValidationReport:
    """Differentially validate every engine on a random stream."""
    from repro.baselines import ENGINES, SGraphEngine

    factories = {
        **ENGINES,
        "sgraph": lambda g, a, q: SGraphEngine(g, a, q, num_hubs=4),
    }
    report = ValidationReport()
    rng = random.Random(seed)
    graph = uniform_digraph(num_vertices, num_edges, rng)
    source = rng.randrange(num_vertices)
    destination = rng.randrange(num_vertices)
    while destination == source:
        destination = rng.randrange(num_vertices)
    query = PairwiseQuery(source, destination)
    report.lines.append(
        f"validating on |V|={num_vertices} |E|={num_edges} {query}"
    )

    for name in algorithms or list_algorithms():
        algorithm = get_algorithm(name)
        engines = {
            label: factory(graph.copy(), algorithm, query)
            for label, factory in factories.items()
        }
        for engine in engines.values():
            engine.initialize()
        reference_graph = graph.copy()
        for b in range(num_batches):
            batch = _random_batch(reference_graph, batch_size, rng)
            reference_graph.apply_batch(batch)
            want = dijkstra(reference_graph, algorithm, source).states[destination]
            for label, engine in engines.items():
                got = engine.on_batch(batch).answer
                report.record(
                    got == want,
                    f"{name}/{label} batch {b}: got {got!r}, want {want!r}",
                )
        report.lines.append(f"  {name}: {len(engines) * num_batches} checks")
    return report
