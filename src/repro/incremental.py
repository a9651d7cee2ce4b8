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

:meth:`process_additions` / :meth:`process_deletions` run a whole list of
additions or deletions in one call.  Every primitive runs the loops of
:mod:`repro.kernels`, compiled for the algorithm's semiring, and is
instrumented with :class:`~repro.metrics.OpCounts`.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set, Tuple

from repro import kernels
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
        #: the per-edge loops, compiled for the algorithm's semiring
        self._loops = kernels.compiled(algorithm)
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
        return self._loops.propagate(self, seeds, ops, prune, activated)

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
        return bool(
            self._loops.additions(self, ((u, v, weight),), ops, prune, activated)
        )

    def process_additions(
        self,
        updates: Iterable[Tuple[int, int, float]],
        ops: OpCounts,
        activated: Optional[Set[int]] = None,
    ) -> int:
        """:meth:`process_addition` for each ``(u, v, weight)`` in order, in
        one call; returns how many improved their target."""
        return self._loops.additions(self, updates, ops, None, activated)

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
        return bool(self._loops.deletions(
            self, ((u, v),), ops, prune, activated, policy == "reachable"
        ))

    def process_deletions(
        self,
        pairs: Iterable[Tuple[int, int]],
        ops: OpCounts,
        activated: Optional[Set[int]] = None,
    ) -> int:
        """:meth:`process_deletion` (supplier policy) for each ``(u, v)`` in
        order, in one call; returns how many repairs ran."""
        return self._loops.deletions(self, pairs, ops, None, activated, False)

    def repair_subtrees(
        self,
        roots: Iterable[int],
        ops: OpCounts,
        follow_all: bool = False,
        activated: Optional[Set[int]] = None,
    ) -> Tuple[List[int], Set[int], List[int]]:
        """Tag, reset and re-derive the repair sets of ``roots``.

        The body of :meth:`process_deletion`, of the coalescing baseline,
        which repairs every supplying deletion of a batch at once, and of
        the accelerator's repair (the source is never such a root:
        ``parents[source] == -1``).  Returns the tagged vertices in
        tagging (breadth-first adjacency) order, the member set, which the
        reset and the re-derivation iterate in its own order (it follows
        that insertion history), and the re-derived members — the seeds to
        :meth:`propagate` from — without propagating.  Both orders are
        observable (a member re-derived earlier supplies later ones), so
        changing either moves ``parents`` and ``OpCounts``; the accelerator
        replays its repair timing in them.
        """
        return self._loops.repair(self, roots, ops, follow_all, activated)

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
