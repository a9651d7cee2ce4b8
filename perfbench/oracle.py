"""The cold-start oracle: every answer the program gives is re-derived.

``dijkstra`` on the stream's final graph (``StreamReplay.final_graph``) is
the reference for every engine and standing answer, on all five
algorithms; sampled reads are re-solved against the harness's canonical
graph at their epoch.  Comparisons are exact (``==``): the paper's promise
is exact answers from less work.  Nothing here runs inside a timed window.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.algorithms.registry import get_algorithm
from repro.algorithms.solvers import dijkstra
from repro.graph.streaming import StreamReplay

Pair = Tuple[int, int]


def final_graph(inputs):
    """The topology after every batch of the stream."""
    return StreamReplay(inputs.initial, inputs.batches).final_graph()


def expected_core(inputs) -> List[float]:
    """Cold-start answer of every engine on the final graph."""
    graph = final_graph(inputs)
    solved: Dict[Pair, List[float]] = {}
    answers = []
    for name, query in inputs.engines:
        key = (name, query.source)
        if key not in solved:
            solved[key] = dijkstra(graph, get_algorithm(name), query.source).states
        answers.append(solved[key][query.destination])
    return answers


def expected_serve(inputs) -> Dict[Pair, float]:
    """Cold-start answer of the anchor and every standing query."""
    graph = final_graph(inputs)
    algorithm = get_algorithm(inputs.spec.algorithms[0])
    pairs = [(inputs.anchor.source, inputs.anchor.destination)]
    pairs += inputs.standing
    solved: Dict[int, List[float]] = {}
    for source, _ in pairs:
        if source not in solved:
            solved[source] = dijkstra(graph, algorithm, source).states
    return {(s, d): solved[s][d] for s, d in pairs}


def expected(inputs):
    """The reference answers on the stream's final graph."""
    if inputs.spec.kind == "core":
        return expected_core(inputs)
    return expected_serve(inputs)


def check_answers(got: Dict[Pair, float], expected: Dict[Pair, float]) -> Iterable[str]:
    """One message per standing answer that is missing or not exact."""
    for pair, want in expected.items():
        if pair not in got:
            yield f"oracle: no answer for standing query {pair}"
        elif got[pair] != want:
            yield (f"oracle: standing query {pair} answered {got[pair]!r}, "
                   f"cold start says {want!r}")


def check_reads(
    graph, algorithm, reads: Sequence[Pair], values: Sequence[float]
) -> Iterable[str]:
    """Re-solve each read cold against ``graph`` (the epoch's topology)."""
    solved: Dict[int, List[float]] = {}
    for (source, destination), value in zip(reads, values):
        if source not in solved:
            solved[source] = dijkstra(graph, algorithm, source).states
        want = solved[source][destination]
        if value != want:
            yield (f"oracle: read {source}->{destination} returned {value!r}, "
                   f"cold start says {want!r}")
