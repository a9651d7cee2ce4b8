"""Incremental propagation machinery shared by every incremental engine.

:class:`IncrementalState` owns the per-query converged state array and the
dependence tree (``parents[v]`` = in-neighbor that supplied ``v``'s state)
over a mutable :class:`~repro.graph.dynamic.DynamicGraph`.  It implements
the three primitives of incremental monotonic computation:

* :meth:`process_addition` — relax a new edge and, if it improves the
  target, broadcast the improvement along the topology (Figure 1a);
* :meth:`process_deletion` — KickStarter-style safe repair: when the
  deleted edge supplied its target's state, tag the dependence subtree,
  reset it, re-derive each member from surviving in-neighbors and
  re-converge (this avoids the Figure 1b unrecoverable-approximation trap);
* :meth:`propagate` — monotone worklist propagation from seed vertices,
  with an optional pruning hook used by the bound-based baselines.

All primitives are instrumented with :class:`~repro.metrics.OpCounts`.
Per edge they pay only for the semiring (the algorithm's
:meth:`~repro.algorithms.base.MonotonicAlgorithm.kernel`); the counters
are charged per scanned adjacency and added once per call.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, List, Optional, Set, Tuple

from repro.algorithms.base import MonotonicAlgorithm
from repro.algorithms.solvers import dijkstra
from repro.graph.dynamic import DynamicGraph
from repro.metrics import OpCounts

#: ``prune(vertex, state) -> bool`` — return True to suppress broadcasting
#: the (already written) new state of ``vertex``.
PruneHook = Callable[[int, float], bool]


class IncrementalState:
    """Converged one-source state array plus dependence tree."""

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        source: int,
    ) -> None:
        self.graph = graph
        self.algorithm = algorithm
        self.source = source
        self.states: List[float] = algorithm.initial_states(
            graph.num_vertices, source
        )
        self.parents: List[int] = [-1] * graph.num_vertices
        #: (+), (x) and the weight transform of the per-edge loops
        self._kernel = algorithm.kernel()
        #: vertices whose new state was written but not broadcast (pruned)
        self.suppressed: Set[int] = set()

    # ------------------------------------------------------------------
    # full computation
    # ------------------------------------------------------------------
    def full_compute(self, ops: Optional[OpCounts] = None) -> None:
        """Converge from scratch (initial snapshot, Figure 1a)."""
        result = dijkstra(self.graph, self.algorithm, self.source)
        self.states = result.states
        self.parents = result.parents
        self.suppressed.clear()
        if ops is not None:
            ops += result.ops

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def propagate(
        self,
        seeds: Iterable[int],
        ops: OpCounts,
        prune: Optional[PruneHook] = None,
        activated: Optional[Set[int]] = None,
    ) -> int:
        """Monotone worklist propagation from ``seeds`` to a fixpoint.

        Seeds must already hold their new states.  Returns the number of
        vertex activations (state writes downstream of the seeds).  With a
        ``prune`` hook, vertices whose broadcast is suppressed are recorded
        in :attr:`suppressed` so a later :meth:`flush_suppressed` can finish
        convergence.
        """
        plus, better, transform = self._kernel
        states = self.states
        parents = self.parents
        out_adj = self.graph.out_adj
        suppressed = self.suppressed

        queue: Deque[int] = deque()
        checks = 0
        for seed in seeds:
            if prune is not None:
                checks += 1
                if prune(seed, states[seed]):
                    suppressed.add(seed)
                    continue
            queue.append(seed)

        # per popped vertex: one state read, then one scan + relaxation +
        # read per out-edge, charged for the whole adjacency at once
        pops = scanned = changes = 0
        while queue:
            u = queue.popleft()
            du = states[u]
            adj = out_adj(u)
            pops += 1
            scanned += len(adj)
            for v, w in adj.items():
                candidate = plus(du, w if transform is None else transform(w))
                if better(candidate, states[v]):
                    states[v] = candidate
                    parents[v] = u
                    changes += 1
                    if activated is not None:
                        activated.add(v)
                    suppressed.discard(v)
                    if prune is not None:
                        checks += 1
                        if prune(v, candidate):
                            suppressed.add(v)
                            continue
                    queue.append(v)
        ops.edges_scanned += scanned
        ops.relaxations += scanned
        ops.state_reads += pops + scanned
        ops.state_writes += changes
        ops.activations += changes
        ops.bound_checks += checks
        return changes

    def flush_suppressed(
        self, ops: OpCounts, activated: Optional[Set[int]] = None
    ) -> int:
        """Broadcast every suppressed vertex (unpruned) to full convergence."""
        if not self.suppressed:
            return 0
        seeds = list(self.suppressed)
        self.suppressed.clear()
        return self.propagate(seeds, ops, prune=None, activated=activated)

    # ------------------------------------------------------------------
    # additions
    # ------------------------------------------------------------------
    def process_addition(
        self,
        u: int,
        v: int,
        weight: float,
        ops: OpCounts,
        prune: Optional[PruneHook] = None,
        activated: Optional[Set[int]] = None,
    ) -> bool:
        """Relax the (already inserted) edge ``u -> v`` and propagate.

        Returns ``True`` when the edge improved ``v``.  Additions are always
        monotone-safe (Section II-A): they constrict results or leave them
        unchanged.
        """
        plus, better, transform = self._kernel
        ops.relaxations += 1
        ops.state_reads += 2
        candidate = plus(
            self.states[u], weight if transform is None else transform(weight)
        )
        if not better(candidate, self.states[v]):
            return False
        self.states[v] = candidate
        self.parents[v] = u
        ops.state_writes += 1
        ops.activations += 1
        if activated is not None:
            activated.add(v)
        self.propagate([v], ops, prune=prune, activated=activated)
        return True

    def process_reweight(
        self,
        u: int,
        v: int,
        new_weight: float,
        ops: OpCounts,
        prune: Optional[PruneHook] = None,
        activated: Optional[Set[int]] = None,
    ) -> bool:
        """Handle an in-place weight change of edge ``u -> v``.

        The topology must already carry the new weight.  A weight increase
        on the supplying edge requires a deletion-style repair (the repair's
        re-derivation sees the new weight, so it also covers decreases);
        otherwise a plain relaxation with the new weight suffices.
        """
        if self.process_deletion(u, v, ops, prune=prune, activated=activated):
            return True
        return self.process_addition(
            u, v, new_weight, ops, prune=prune, activated=activated
        )

    # ------------------------------------------------------------------
    # deletions
    # ------------------------------------------------------------------
    def process_deletion(
        self,
        u: int,
        v: int,
        ops: OpCounts,
        prune: Optional[PruneHook] = None,
        activated: Optional[Set[int]] = None,
        policy: str = "supplier",
    ) -> bool:
        """Repair after deleting edge ``u -> v`` (edge already removed).

        Two tagging policies model the design space of Section II-A:

        * ``"supplier"`` (KickStarter-like, the default): if ``v``'s state
          was not supplied by this edge (``parents[v] != u``) nothing needs
          to happen — the witness path is intact.  Otherwise the dependence
          subtree of ``v`` is tagged, reset to the identity, every member is
          re-derived from surviving in-neighbors, and the result is
          re-converged.
        * ``"reachable"`` (GraphFly-like): every deletion triggers a forward
          traversal from ``v`` that tags and resets all reached vertices —
          the expensive conservative scheme whose overhead motivates the
          paper's contribution-aware workflow (Figure 2).

        Returns ``True`` when a repair ran.
        """
        if policy not in ("supplier", "reachable"):
            raise ValueError(f"unknown deletion policy {policy!r}")
        ops.tag_ops += 1  # the did-this-edge-supply-its-target check
        if policy == "supplier" and self.parents[v] != u:
            return False
        _, seeds = self.repair_subtrees(
            [v], ops, follow_all=policy == "reachable", activated=activated
        )
        self.propagate(seeds, ops, prune=prune, activated=activated)
        return True

    def repair_subtrees(
        self,
        roots: Iterable[int],
        ops: OpCounts,
        follow_all: bool = False,
        activated: Optional[Set[int]] = None,
    ) -> Tuple[int, List[int]]:
        """Tag, reset and re-derive the repair sets of ``roots``.

        The body of :meth:`process_deletion`, and of the coalescing
        baseline, which repairs every supplying deletion of a batch at once
        (the source is never such a root: ``parents[source] == -1``).
        Returns how many vertices were tagged and the re-derived ones — the
        seeds to :meth:`propagate` from — without propagating.  Members are
        inserted in breadth-first adjacency order and re-derived in the
        set's iteration order, which follows that insertion history; the
        order is observable (a member re-derived earlier supplies later
        ones), so changing either moves ``parents`` and ``OpCounts``.
        """
        alg = self.algorithm
        plus, better, transform = self._kernel
        states = self.states
        parents = self.parents
        identity = alg.identity()

        # Tag the repair set.  Without ``follow_all`` (supplier policy) only
        # dependence (parent) edges are followed; with it (reachable
        # policy) every topology edge out of a currently-reached vertex is,
        # as conservative prior systems do.
        subtree: Set[int] = set()
        frontier: Deque[int] = deque()
        for root in roots:
            if root not in subtree:
                subtree.add(root)
                frontier.append(root)
        tags = reads = 0
        while frontier:
            x = frontier.popleft()
            adj = self.graph.out_adj(x)
            tags += len(adj)
            for y in adj:
                if follow_all:
                    if y in subtree:
                        continue
                    reads += 1
                    if not alg.is_reached(states[y]):
                        continue
                elif parents[y] != x or y in subtree:
                    continue
                subtree.add(y)
                frontier.append(y)

        # Reset, then re-derive each member from in-neighbors.  Reset states
        # equal the identity, which can never supply (monotonicity), so
        # in-subtree suppliers are naturally ignored.
        for x in subtree:
            states[x] = identity
            parents[x] = -1
        if self.source in subtree:
            # the source never loses its own state
            states[self.source] = alg.source_state()

        seeds: List[int] = []
        scanned = derived = 0
        for x in subtree:
            if x == self.source:
                seeds.append(x)
                continue
            best = identity
            parent = -1
            adj = self.graph.in_adj(x)
            scanned += len(adj)
            for y, w in adj.items():
                candidate = plus(
                    states[y], w if transform is None else transform(w)
                )
                if better(candidate, best):
                    best = candidate
                    parent = y
            if better(best, identity):
                states[x] = best
                parents[x] = parent
                derived += 1
                if activated is not None:
                    activated.add(x)
                seeds.append(x)
        ops.tag_ops += tags
        ops.edges_scanned += scanned
        ops.relaxations += scanned
        ops.state_reads += reads + scanned
        ops.state_writes += len(subtree) + derived
        ops.activations += derived
        return len(subtree), seeds

    # ------------------------------------------------------------------
    # invariants (used by tests)
    # ------------------------------------------------------------------
    def check_converged(self) -> None:
        """Assert the state array is a fixpoint and parents witness it."""
        alg = self.algorithm
        reference = dijkstra(self.graph, alg, self.source)
        for v, (got, want) in enumerate(zip(self.states, reference.states)):
            assert got == want, f"vertex {v}: state {got} != converged {want}"
        for v, parent in enumerate(self.parents):
            if parent == -1:
                continue
            assert self.graph.has_edge(parent, v), f"parent edge {parent}->{v} missing"
            candidate = alg.propagate(
                self.states[parent],
                alg.transform_weight(self.graph.edge_weight(parent, v)),
            )
            assert candidate == self.states[v], (
                f"vertex {v}: parent {parent} does not witness state"
            )
