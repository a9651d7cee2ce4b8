"""Property-based tests (hypothesis) on the core data structures and
engines.

These generate arbitrary graphs, update streams and access patterns and
check the invariants the whole system rests on:

* monotone engines converge to exactly the reference fixpoint;
* the CISGraph workflow (classification + scheduling + repair) is
  answer-equivalent to cold recomputation on every snapshot;
* net-effect batch reduction preserves final topology;
* the SPM never exceeds capacity and timing never runs backwards.
"""

import math
import traceback
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.algorithms import dijkstra, get_algorithm, list_algorithms
from repro.algorithms.base import MonotonicAlgorithm
from repro.core.classification import (
    KeyPathRule,
    UpdateClass,
    classify_addition,
    classify_batch,
    classify_deletion,
)
from repro.core.engine import CISGraphEngine
from repro.core.keypath import KeyPathTracker
from repro.errors import VertexOutOfRangeError
from repro.graph.batch import (
    EdgeUpdate,
    UpdateBatch,
    UpdateKind,
    net_effects,
)
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.hw.config import DramConfig, SpmConfig
from repro.hw.dram import DramModel
from repro.hw.spm import ScratchpadMemory
from repro.incremental import IncrementalState
from repro.metrics import OpCounts
from repro.query import PairwiseQuery

N_VERTICES = 12

edge_strategy = st.tuples(
    st.integers(0, N_VERTICES - 1),
    st.integers(0, N_VERTICES - 1),
    st.integers(1, 9),
).filter(lambda e: e[0] != e[1])

graph_strategy = st.lists(edge_strategy, max_size=40).map(
    lambda edges: DynamicGraph.from_edges(
        N_VERTICES, [(u, v, float(w)) for u, v, w in dict(
            ((u, v), (u, v, w)) for u, v, w in edges
        ).values()]
    )
)

update_strategy = st.tuples(
    st.sampled_from(["add", "delete"]),
    st.integers(0, N_VERTICES - 1),
    st.integers(0, N_VERTICES - 1),
    st.integers(1, 9),
).filter(lambda u: u[1] != u[2])

batch_strategy = st.lists(update_strategy, max_size=25).map(
    lambda items: UpdateBatch(
        [
            EdgeUpdate(UpdateKind(kind), u, v, float(w))
            for kind, u, v, w in items
        ]
    )
)

algorithm_strategy = st.sampled_from(list_algorithms()).map(get_algorithm)


@settings(max_examples=60, deadline=None)
@given(
    graph=graph_strategy,
    batch=batch_strategy,
    algorithm=algorithm_strategy,
    source=st.integers(0, N_VERTICES - 1),
)
def test_incremental_state_matches_reference(graph, batch, algorithm, source):
    """Sequential incremental processing converges to the true fixpoint."""
    state = IncrementalState(graph, algorithm, source)
    state.full_compute()
    for upd in batch:
        if upd.is_addition:
            old_weight = graph.out_adj(upd.u).get(upd.v)
            graph.add_edge(upd.u, upd.v, upd.weight)
            if old_weight is None:
                state.process_addition(upd.u, upd.v, upd.weight, OpCounts())
            elif old_weight != upd.weight:
                state.process_reweight(upd.u, upd.v, upd.weight, OpCounts())
        else:
            if graph.remove_edge(upd.u, upd.v, missing_ok=True):
                state.process_deletion(upd.u, upd.v, OpCounts())
    reference = dijkstra(graph, algorithm, source)
    assert state.states == reference.states


@settings(max_examples=60, deadline=None)
@given(
    graph=graph_strategy,
    batch=batch_strategy,
    algorithm=algorithm_strategy,
    source=st.integers(0, N_VERTICES - 1),
    dest=st.integers(0, N_VERTICES - 1),
)
def test_cisgraph_engine_answer_equals_reference(
    graph, batch, algorithm, source, dest
):
    """The full contribution-aware workflow is answer-exact on any stream."""
    if source == dest:
        dest = (dest + 1) % N_VERTICES
    engine = CISGraphEngine(graph.copy(), algorithm, PairwiseQuery(source, dest))
    engine.initialize()
    result = engine.on_batch(batch)
    final = graph.copy()
    final.apply_batch(batch)
    reference = dijkstra(final, algorithm, source)
    assert result.answer == reference.states[dest]
    assert engine.state.states == reference.states
    # the early (response-window) answer must already be final
    assert engine.last_response_answer == result.answer


@settings(max_examples=50, deadline=None)
@given(
    graph=graph_strategy,
    batches=st.lists(batch_strategy, min_size=1, max_size=3),
    source=st.integers(0, N_VERTICES - 1),
    dest=st.integers(0, N_VERTICES - 1),
)
def test_keypath_witnesses_the_answer(graph, batches, source, dest):
    """Whenever the destination is reachable, the tracked key path is a
    real path in the topology whose PPSP weight sum equals the answer."""
    from repro.algorithms.ppsp import PPSP

    if source == dest:
        dest = (dest + 1) % N_VERTICES
    engine = CISGraphEngine(graph, PPSP(), PairwiseQuery(source, dest))
    engine.initialize()
    for batch in batches:
        engine.on_batch(batch)
        answer = engine.answer
        if answer == math.inf:
            assert not engine.keypath.exists
            continue
        chain = engine.keypath.vertices()
        assert chain[0] == source
        assert chain[-1] == dest
        total = 0.0
        for u, v in zip(chain, chain[1:]):
            assert engine.graph.has_edge(u, v), f"key path uses missing {u}->{v}"
            total += engine.graph.edge_weight(u, v)
        assert total == answer


# ----------------------------------------------------------------------
# the ingest pair this repository started with, kept verbatim as the
# written specification of ``net_effects`` + ``DynamicGraph.apply_batch``
# and of ``DynamicGraph.apply_net``
# ----------------------------------------------------------------------
def _seed_net_effects(batch, edge_weight):
    before: dict = {}
    after: dict = {}
    order = []
    for upd in batch:
        key = upd.edge
        if key not in before:
            before[key] = edge_weight(upd.u, upd.v)
            order.append(key)
        after[key] = upd.weight if upd.is_addition else None

    reduced = UpdateBatch()
    for key in order:
        u, v = key
        old = before[key]
        new = after[key]
        if old is None and new is not None:
            reduced.append(EdgeUpdate(UpdateKind.ADD, u, v, new))
        elif old is not None and new is None:
            reduced.append(EdgeUpdate(UpdateKind.DELETE, u, v, old))
        elif old is not None and new is not None and old != new:
            reduced.append(EdgeUpdate(UpdateKind.DELETE, u, v, old))
            reduced.append(EdgeUpdate(UpdateKind.ADD, u, v, new))
        # old == new (including both None): no net effect
    return reduced


def _seed_apply(graph, effective, missing_ok):
    changed = 0
    for upd in effective:
        if graph.apply_update(upd, missing_ok=missing_ok):
            changed += 1
    return changed


def _rows(batch):
    return [(upd.kind, upd.u, upd.v, upd.weight) for upd in batch]


def _storage(graph):
    """Adjacency in *iteration order* — what ``OpCounts`` tie-breaks read."""
    n = graph.num_vertices
    return (
        [list(graph.out_adj(u).items()) for u in range(n)],
        [list(graph.in_adj(v).items()) for v in range(n)],
        graph.num_edges,
    )


# five vertices and three weights: duplicate edges, add -> delete -> add
# chains, re-weights, cancelling pairs and deletes carrying the true weight
# all turn up within a few updates
_INGEST_N = 5
_ingest_edge = st.tuples(
    st.integers(0, _INGEST_N - 1), st.integers(0, _INGEST_N - 1)
).filter(lambda e: e[0] != e[1])
_ingest_graph = st.dictionaries(_ingest_edge, st.integers(1, 3), max_size=12).map(
    lambda edges: DynamicGraph.from_edges(
        _INGEST_N, [(u, v, float(w)) for (u, v), w in edges.items()]
    )
)
# deletions may also name a vertex the graph lacks, at either end
_ingest_update = st.one_of(
    st.tuples(st.just("add"), _ingest_edge, st.integers(1, 3)),
    st.tuples(
        st.just("delete"),
        st.tuples(
            st.integers(0, _INGEST_N + 2), st.integers(0, _INGEST_N + 2)
        ).filter(lambda e: e[0] != e[1]),
        st.integers(1, 3),
    ),
)
_ingest_batch = st.lists(_ingest_update, max_size=30).map(
    lambda items: UpdateBatch(
        [EdgeUpdate(UpdateKind(kind), u, v, float(w)) for kind, (u, v), w in items]
    )
)


# an addition naming a vertex the graph lacks, spliced in at some position
# of about half the batches; a later deletion of the same edge cancels it
_stray_addition = st.one_of(
    st.none(),
    st.tuples(
        st.integers(0, 30),
        st.tuples(
            st.integers(0, _INGEST_N + 2), st.integers(0, _INGEST_N + 2)
        ).filter(lambda e: e[0] != e[1] and max(e) >= _INGEST_N),
        st.integers(1, 3),
    ),
)


def _owned(effective, batch):
    """Which effective updates are the caller's own objects."""
    mine = {id(upd) for upd in batch}
    return [id(upd) if id(upd) in mine else None for upd in effective]


@settings(max_examples=300, deadline=None)
@given(graph=_ingest_graph, batch=_ingest_batch, stray=_stray_addition)
def test_ingest_matches_the_seed_pair(graph, batch, stray):
    """``net_effects`` + ``apply_batch`` and ``DynamicGraph.apply_net``
    against the seed's pair: the same reduced sequence (the caller's own
    objects where the reducer reuses them), the same change count and the
    same topology *in the same storage order* -- or, for a surviving
    out-of-range addition, the same refusal before any write."""
    if stray is not None:
        at, (u, v), w = stray
        batch.updates.insert(at, EdgeUpdate(UpdateKind.ADD, u, v, float(w)))
    old_graph, pair_graph, net_graph = graph.copy(), graph.copy(), graph.copy()
    old = _seed_net_effects(batch, old_graph.weight_or_none)
    pair = net_effects(batch, pair_graph.weight_or_none)
    if pair.max_vertex() >= _INGEST_N:
        before = _storage(graph)
        with pytest.raises(VertexOutOfRangeError):
            _seed_apply(old_graph, old, missing_ok=False)
        with pytest.raises(VertexOutOfRangeError) as pair_refusal:
            pair_graph.apply_batch(pair, missing_ok=False)
        with pytest.raises(VertexOutOfRangeError) as net_refusal:
            net_graph.apply_net(batch)
        assert net_refusal.value.vertex == pair_refusal.value.vertex
        assert net_refusal.value.vertex == pair.max_vertex()
        assert _storage(net_graph) == _storage(pair_graph) == before
        return
    old_changed = _seed_apply(old_graph, old, missing_ok=False)
    pair_changed = pair_graph.apply_batch(pair, missing_ok=False)
    net = net_graph.apply_net(batch)
    assert _rows(net) == _rows(pair) == _rows(old)
    assert _owned(net, batch) == _owned(pair, batch)
    assert len(net) == pair_changed == old_changed == len(old)
    assert _storage(net_graph) == _storage(pair_graph) == _storage(old_graph)
    net_graph.check_consistency()


@settings(max_examples=150, deadline=None)
@given(graph=_ingest_graph, batch=_ingest_batch)
def test_apply_batch_matches_per_update_apply_on_raw_batches(graph, batch):
    """The bulk loop on an *unreduced* batch (cold-start baselines, stream
    replay): same changes, same storage order, or the same refusal."""
    old_graph, new_graph = graph.copy(), graph.copy()
    if batch.max_vertex() >= _INGEST_N:
        before = _storage(new_graph)
        with pytest.raises(VertexOutOfRangeError):
            _seed_apply(old_graph, batch, True)
        with pytest.raises(VertexOutOfRangeError):
            new_graph.apply_batch(batch)
        assert _storage(new_graph) == before
        return
    assert new_graph.apply_batch(batch) == _seed_apply(old_graph, batch, True)
    assert _storage(new_graph) == _storage(old_graph)
    new_graph.check_consistency()


# ----------------------------------------------------------------------
# the incremental kernels this repository started with, kept verbatim as
# the written specification of ``IncrementalState``: per-edge counters,
# the algorithm's own methods, the same iteration orders
# ----------------------------------------------------------------------
def _seed_propagate(self, seeds, ops, prune=None, activated=None):
    alg = self.algorithm
    better = alg.is_better
    propagate_op = alg.propagate
    transform = alg.transform_weight
    states = self.states
    parents = self.parents

    queue = deque()
    for seed in seeds:
        if prune is not None and prune(seed, states[seed]):
            ops.bound_checks += 1
            self.suppressed.add(seed)
            continue
        if prune is not None:
            ops.bound_checks += 1
        queue.append(seed)

    changes = 0
    while queue:
        u = queue.popleft()
        du = states[u]
        ops.state_reads += 1
        for v, w in self.graph.out_adj(u).items():
            ops.edges_scanned += 1
            ops.relaxations += 1
            ops.state_reads += 1
            candidate = propagate_op(du, transform(w))
            if better(candidate, states[v]):
                states[v] = candidate
                parents[v] = u
                ops.state_writes += 1
                ops.activations += 1
                changes += 1
                if activated is not None:
                    activated.add(v)
                self.suppressed.discard(v)
                if prune is not None:
                    ops.bound_checks += 1
                    if prune(v, candidate):
                        self.suppressed.add(v)
                        continue
                queue.append(v)
    return changes


def _seed_process_addition(self, u, v, weight, ops, prune=None, activated=None):
    alg = self.algorithm
    ops.relaxations += 1
    ops.state_reads += 2
    candidate = alg.propagate(self.states[u], alg.transform_weight(weight))
    if not alg.is_better(candidate, self.states[v]):
        return False
    self.states[v] = candidate
    self.parents[v] = u
    ops.state_writes += 1
    ops.activations += 1
    if activated is not None:
        activated.add(v)
    self.propagate([v], ops, prune=prune, activated=activated)
    return True


def _seed_process_deletion(
    self, u, v, ops, prune=None, activated=None, policy="supplier"
):
    if policy not in ("supplier", "reachable"):
        raise ValueError(f"unknown deletion policy {policy!r}")
    ops.tag_ops += 1  # the did-this-edge-supply-its-target check
    if policy == "supplier" and self.parents[v] != u:
        return False

    alg = self.algorithm
    states = self.states
    parents = self.parents
    identity = alg.identity()

    follow_all = policy == "reachable"
    subtree = {v}
    frontier = deque([v])
    while frontier:
        x = frontier.popleft()
        for y in self.graph.out_adj(x):
            ops.tag_ops += 1
            if y in subtree:
                continue
            if follow_all:
                ops.state_reads += 1
                tagged = alg.is_reached(states[y])
            else:
                tagged = parents[y] == x
            if tagged:
                subtree.add(y)
                frontier.append(y)

    for x in subtree:
        states[x] = identity
        parents[x] = -1
        ops.state_writes += 1
    if self.source in subtree:
        states[self.source] = alg.source_state()
        parents[self.source] = -1

    better = alg.is_better
    propagate_op = alg.propagate
    transform = alg.transform_weight
    seeds = []
    for x in subtree:
        if x == self.source:
            seeds.append(x)
            continue
        best = identity
        parent = -1
        for y, w in self.graph.in_adj(x).items():
            ops.edges_scanned += 1
            ops.relaxations += 1
            ops.state_reads += 1
            candidate = propagate_op(states[y], transform(w))
            if better(candidate, best):
                best = candidate
                parent = y
        if better(best, identity):
            states[x] = best
            parents[x] = parent
            ops.state_writes += 1
            ops.activations += 1
            if activated is not None:
                activated.add(x)
            seeds.append(x)

    self.propagate(seeds, ops, prune=prune, activated=activated)
    return True


class _SeedState(IncrementalState):
    """``IncrementalState`` on the seed kernels; ``process_reweight`` and
    ``flush_suppressed`` reach them through ``self``."""

    propagate = _seed_propagate
    process_addition = _seed_process_addition
    process_deletion = _seed_process_deletion


#: every registered algorithm, the hop-count extension included
KERNEL_ALGORITHMS = list_algorithms() + ["hops"]
#: int and float weights (ties such as 2 vs 2.0 included) and a weight past
#: Viterbi's ``max_weight``, which its transform clamps
_kernel_weight = st.sampled_from([1, 2, 2.0, 2.5, 3.0, 7, 100])
_kernel_graph = st.dictionaries(
    st.tuples(
        st.integers(0, N_VERTICES - 1), st.integers(0, N_VERTICES - 1)
    ).filter(lambda e: e[0] != e[1]),
    _kernel_weight,
    max_size=40,
)
_kernel_stream = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, N_VERTICES - 1),
        st.integers(0, N_VERTICES - 1),
        _kernel_weight,
    ).filter(lambda u: u[1] != u[2]),
    max_size=30,
)


def _observed(state, ops, activated):
    return (
        [repr(x) for x in state.states],
        list(state.parents),
        set(state.suppressed),
        activated,
        ops.as_dict(),
    )


@settings(max_examples=200, deadline=None)
@given(
    edges=_kernel_graph,
    stream=_kernel_stream,
    name=st.sampled_from(KERNEL_ALGORITHMS),
    source=st.integers(0, N_VERTICES - 1),
    dest=st.integers(0, N_VERTICES - 1),
    policy=st.sampled_from(["supplier", "reachable"]),
    pruned=st.booleans(),
    track=st.booleans(),
)
def test_kernels_match_the_seed_kernels(
    edges, stream, name, source, dest, policy, pruned, track
):
    """Step by step, the generated kernels leave the same states (same
    ``repr``), parents, suppressed set and activated set as the seed's,
    and charge every ``OpCounts`` field the same amount — entered one
    update at a time, and (supplier policy, no prune hook: what
    ``SourceGroup`` runs) through the batch entry points
    ``process_additions`` / ``process_deletions``."""
    algorithm = get_algorithm(name)
    graph = DynamicGraph.from_edges(
        N_VERTICES, [(u, v, w) for (u, v), w in edges.items()]
    )
    batched = policy == "supplier" and not pruned
    entries = ["seed", "single"] + (["batch"] if batched else [])
    sides = []
    for entry in entries:
        cls = _SeedState if entry == "seed" else IncrementalState
        state = cls(graph.copy(), algorithm, source)
        state.full_compute()
        prune = None
        if pruned:
            # SGraph's generic rule: no broadcast that cannot beat the answer
            def prune(vertex, value, state=state):
                return not algorithm.is_better(value, state.states[dest])
        sides.append(
            (entry, state, prune, OpCounts(), set() if track else None)
        )

    for step, (is_addition, u, v, weight) in enumerate(stream):
        for entry, state, prune, ops, activated in sides:
            graph_ = state.graph
            if entry == "batch":
                if is_addition:
                    old_weight = graph_.out_adj(u).get(v)
                    graph_.add_edge(u, v, weight)
                    if old_weight is None or (
                        old_weight != weight
                        and not state.process_deletions([(u, v)], ops, activated)
                    ):
                        state.process_additions([(u, v, weight)], ops, activated)
                elif graph_.remove_edge(u, v, missing_ok=True):
                    state.process_deletions([(u, v)], ops, activated)
            elif is_addition:
                old_weight = graph_.out_adj(u).get(v)
                graph_.add_edge(u, v, weight)
                if old_weight is None:
                    state.process_addition(
                        u, v, weight, ops, prune=prune, activated=activated
                    )
                elif old_weight != weight:
                    state.process_reweight(
                        u, v, weight, ops, prune=prune, activated=activated
                    )
            elif graph_.remove_edge(u, v, missing_ok=True):
                state.process_deletion(
                    u, v, ops, prune=prune, activated=activated, policy=policy
                )
            if step % 3 == 2:
                state.flush_suppressed(ops, activated=activated)
        seed, *others = (_observed(s, ops, a) for _, s, _, ops, a in sides)
        for entry, new in zip(entries[1:], others):
            assert new == seed, f"step {step}: {entry} drifted from the seed"
    for _, state, _, ops, activated in sides:
        state.flush_suppressed(ops, activated=activated)
        state.check_converged()
    seed, *others = (_observed(s, ops, a) for _, s, _, ops, a in sides)
    assert all(new == seed for new in others)


@settings(max_examples=150, deadline=None)
@given(
    edges=_kernel_graph,
    stream=_kernel_stream,
    name=st.sampled_from(KERNEL_ALGORITHMS),
    source=st.integers(0, N_VERTICES - 1),
    dests=st.lists(st.integers(0, N_VERTICES - 1), min_size=1, max_size=3),
    rule=st.sampled_from(list(KeyPathRule)),
)
def test_classify_batch_matches_the_single_update_specification(
    edges, stream, name, source, dests, rule
):
    """``classify_batch``'s generated loop puts every update in the bucket
    ``classify_addition`` / ``classify_deletion`` (the algorithm's
    methods) name, in arrival order."""
    algorithm = get_algorithm(name)
    graph = DynamicGraph.from_edges(
        N_VERTICES, [(u, v, w) for (u, v), w in edges.items()]
    )
    converged = dijkstra(graph, algorithm, source)
    states, parents = converged.states, converged.parents
    trackers = [KeyPathTracker(source, d) for d in dests]
    for tracker in trackers:
        tracker.rebuild(parents)
    batch = [
        EdgeUpdate(UpdateKind.ADD if is_addition else UpdateKind.DELETE,
                   u, v, weight)
        for is_addition, u, v, weight in stream
    ]
    result = classify_batch(algorithm, states, parents, trackers, batch, rule)

    bucket_of = {
        UpdateClass.VALUABLE: "nondelayed_deletions",
        UpdateClass.DELAYED: "delayed_deletions",
        UpdateClass.USELESS: "useless",
    }
    want = {
        bucket: [] for bucket in ("valuable_additions", *bucket_of.values())
    }
    for upd in batch:
        if upd.is_addition:
            verdict = classify_addition(algorithm, states, upd)
            bucket = ("valuable_additions" if verdict is UpdateClass.VALUABLE
                      else "useless")
        else:
            bucket = bucket_of[
                classify_deletion(algorithm, states, parents, trackers, upd, rule)
            ]
        want[bucket].append(upd)
    assert {bucket: getattr(result, bucket) for bucket in want} == want
    assert result.ops.classification_checks == len(batch)
    assert result.ops.state_reads == 2 * len(batch)


def _same(got, want):
    return (type(got), repr(got)) == (type(want), repr(want))


@pytest.mark.parametrize("name", KERNEL_ALGORITHMS)
def test_kernel_operators_are_exact(name):
    """Every expression the generated loops evaluate is declared by the
    algorithm and returns what its method returns, in value and type: the
    answer digests hash ``repr``, so ``5`` for ``5.0`` is a change."""
    algorithm = get_algorithm(name)
    cls = type(algorithm)
    expressions = kernels.expressions(cls)
    assert expressions["plus"] == cls.plus_expr
    assert expressions["better"] == cls.better_expr
    assert expressions["weight"] == cls.transform_expr
    assert (expressions["weight"] == "{w}") == (name != "viterbi")

    def evaluate(kind, **operands):
        text = expressions[kind].format(**{k: k for k in operands})
        return eval(text, {"self": algorithm}, operands)

    states = [0, 0.0, 1, 1.0, 2.5, 5, 5.0, 0.5, math.inf, -math.inf,
              algorithm.identity(), algorithm.source_state()]
    # 64 / 65 straddle Viterbi's clamp at the default max_weight
    raw_weights = [0.0, 1, 1.0, 2.5, 5, 5.0, 64, 65, 1000, math.inf]
    for raw in raw_weights:
        weight = algorithm.transform_weight(raw)
        assert _same(evaluate("weight", w=raw), weight), raw
        for state in states:
            got = evaluate("plus", a=state, b=weight)
            assert _same(got, algorithm.propagate(state, weight)), (state, raw)
    weights = [algorithm.transform_weight(raw) for raw in raw_weights]
    for a in states + weights:
        for b in states + weights:
            got = evaluate("better", a=a, b=b)
            assert _same(got, algorithm.is_better(a, b)), (a, b)


def test_kernel_falls_back_to_an_overriding_method():
    """A subclass that overrides ``propagate`` or ``transform_weight``
    without declaring an expression has its own method called in the
    loops; the expressions it does not override stay inline."""
    from repro.algorithms.ppsp import PPSP

    class Doubled(PPSP):
        def propagate(self, u_state, weight):
            return u_state + 2 * weight

    class Halved(PPSP):
        def transform_weight(self, raw_weight):
            return raw_weight / 2

    assert kernels.expressions(Doubled) == {
        "plus": "self.propagate({a}, {b})",
        "better": "{a} < {b}",
        "weight": "{w}",
    }
    assert kernels.expressions(Halved) == {
        "plus": "{a} + {b}",
        "better": "{a} < {b}",
        "weight": "self.transform_weight({w})",
    }
    for algorithm, rederived in ((Doubled(), 10.0), (Halved(), 2.5)):
        graph = DynamicGraph.from_edges(
            3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]
        )
        state = IncrementalState(graph, algorithm, 0)
        state.full_compute()
        graph.remove_edge(1, 2)
        assert state.process_deletion(1, 2, OpCounts())
        assert state.states[2] == rederived
        state.check_converged()
        graph.add_edge(1, 2, 1.0)
        assert state.process_addition(1, 2, 1.0, OpCounts())
        state.check_converged()
        classified = classify_batch(
            algorithm, state.states, state.parents, KeyPathTracker(0, 2),
            [EdgeUpdate(UpdateKind.ADD, 0, 2, 0.5)],
        )
        assert len(classified.valuable_additions) == 1


def test_a_raising_prune_hook_names_the_template_line():
    """The generated source is registered with ``linecache``: a traceback
    through a generated loop shows the loop's own line."""
    graph = DynamicGraph.from_edges(
        4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    )
    state = IncrementalState(graph, get_algorithm("ppsp"), 0)
    state.full_compute()
    calls = []

    def prune(vertex, value):
        # passes the seed, fails on the first vertex the scan improves
        calls.append(vertex)
        if len(calls) > 1:
            raise RuntimeError("prune failed")
        return False

    graph.add_edge(0, 2, 0.5)
    with pytest.raises(RuntimeError, match="prune failed") as raised:
        state.process_addition(0, 2, 0.5, OpCounts(), prune=prune)
    assert calls == [2, 3]
    frames = [
        frame for frame in traceback.extract_tb(raised.tb)
        if frame.filename.startswith("<repro.kernels:")
    ]
    assert [frame.name for frame in frames] == ["additions"]
    assert frames[0].line == "if prune(v, candidate):"
    assert "if prune(v, candidate):" in "".join(
        traceback.format_exception(raised.value)
    )


@settings(max_examples=60, deadline=None)
@given(graph=graph_strategy, batch=batch_strategy)
def test_net_effects_preserves_topology(graph, batch):
    sequential = graph.copy()
    sequential.apply_batch(batch)
    reduced_graph = graph.copy()
    reduced = net_effects(batch, lambda u, v: graph.out_adj(u).get(v))
    reduced_graph.apply_batch(reduced, missing_ok=False)
    assert sorted(sequential.edges()) == sorted(reduced_graph.edges())
    # and the reduction never repeats an edge operation kind
    per_edge = {}
    for upd in reduced:
        per_edge.setdefault(upd.edge, []).append(upd.kind)
    for kinds in per_edge.values():
        assert len(kinds) <= 2
        if len(kinds) == 2:
            assert kinds == [UpdateKind.DELETE, UpdateKind.ADD]


@settings(max_examples=40, deadline=None)
@given(
    accesses=st.lists(
        st.tuples(
            st.integers(0, 4095),  # address
            st.integers(1, 96),  # length
            st.booleans(),  # write
        ),
        max_size=60,
    )
)
def test_spm_invariants(accesses):
    """Capacity bounds hold and time never decreases along a request chain."""
    spm = ScratchpadMemory(
        SpmConfig(size_bytes=1024, ways=2, line_bytes=64),
        DramModel(DramConfig(channels=2)),
    )
    now = 0
    for address, length, write in accesses:
        done = spm.access(address, length, now=now, write=write)
        assert done >= now
        now = done
        spm.check_invariants()
    assert spm.occupancy_lines() <= 16


@settings(max_examples=40, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.integers(0, 1 << 20), st.integers(1, 512)),
        max_size=50,
    )
)
def test_dram_completion_monotone_per_chain(requests):
    dram = DramModel(DramConfig())
    now = 0
    for address, length in requests:
        done = dram.access(address, length, now=now)
        assert done >= now
        now = done
    dram.check_invariants()
    assert dram.stats.bytes_transferred == dram.stats.lines * 64


@settings(max_examples=50, deadline=None)
@given(graph=graph_strategy)
def test_csr_roundtrip(graph):
    csr = CSRGraph.from_dynamic(graph)
    assert sorted(csr.edges()) == sorted(graph.edges())


@settings(max_examples=50, deadline=None)
@given(
    algorithm=algorithm_strategy,
    state_weight_pairs=st.lists(
        st.tuples(st.integers(0, 20), st.integers(1, 9)), min_size=1, max_size=6
    ),
)
def test_propagation_chain_never_improves(algorithm, state_weight_pairs):
    """Chained (+) applications are monotonically non-improving."""
    state = algorithm.source_state()
    for _, weight in state_weight_pairs:
        nxt = algorithm.propagate(state, algorithm.transform_weight(float(weight)))
        assert not algorithm.is_better(nxt, state)
        state = nxt


@settings(max_examples=40, deadline=None)
@given(
    graph=graph_strategy,
    batches=st.lists(batch_strategy, min_size=1, max_size=8),
    algorithm=algorithm_strategy,
    source=st.integers(0, N_VERTICES - 1),
    dest=st.integers(0, N_VERTICES - 1),
    checkpoint_every=st.integers(1, 5),
    data=st.data(),
)
def test_resumed_then_continued_equals_uninterrupted(
    graph, batches, algorithm, source, dest, checkpoint_every, data
):
    """Crash anywhere, at any checkpoint cadence (so behind a base, behind
    a state record, or with a WAL tail past either): the resumed session
    gives every later answer an uninterrupted one gives."""
    import tempfile

    from repro.resilience.pipeline import ResilientPipeline

    if source == dest:
        dest = (dest + 1) % N_VERTICES
    query = PairwiseQuery(source, dest)
    cut = data.draw(st.integers(0, len(batches)), label="cut")
    reference = CISGraphEngine(graph.copy(), algorithm, query)
    reference.initialize()
    expected = [reference.on_batch(batch).answer for batch in batches]

    with tempfile.TemporaryDirectory() as directory:
        pipeline = ResilientPipeline.open(
            directory, graph.copy(), algorithm, query,
            checkpoint_every=checkpoint_every, wal_sync=False,
        )
        for batch in batches[:cut]:
            pipeline.run_batch(batch)
        pipeline.wal.close()  # crash: no final checkpoint

        resumed = ResilientPipeline.resume(
            directory, checkpoint_every=checkpoint_every, wal_sync=False
        )
        assert resumed.snapshot_id == cut
        if cut:
            assert resumed.answer == expected[cut - 1]
        answers = [resumed.run_batch(batch).answer for batch in batches[cut:]]
        resumed.wal.close()
    assert answers == expected[cut:]
    assert resumed.engine.state.states == reference.state.states
    assert sorted(resumed.engine.graph.edges()) == sorted(reference.graph.edges())
