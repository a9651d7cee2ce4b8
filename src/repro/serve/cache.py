"""The read chokepoint, and a key-path-aware cache for what nobody owns.

Every ad-hoc ``query(s, d)`` goes through :meth:`ResultCache.fetch`.  A
source some healthy shard maintains (or the anchor's) is answered by that
owner from its converged state — the cache is not consulted at all.  What
is left is the cache proper: sources nobody owns, owners that are dead,
retired or not yet sealed at the current epoch, and the recompute leg of
a degraded read — served without a full computation per read where that
can be proven safe.

A cache entry is keyed ``(source, destination)`` and lives inside a
per-source *family* holding the solver's converged state/parent arrays
("fresh") plus the answer's key path (the witness chain from
:class:`~repro.core.keypath.KeyPathTracker`).  On every committed batch
the cache invalidates with the paper's own machinery instead of flushing:

* an addition that is *useless* wrt the family's converged states
  (``improves`` false, Algorithm 1) provably changes no state — retained;
* a *valuable* addition may improve anything — the family is dropped;
* a deletion that *supplies* no state (``supplies`` false) is a no-op —
  retained;
* a supplying deletion invalidates exactly the entries whose **key path**
  contains the deleted edge; other entries keep their answers (the witness
  path is intact and deletions cannot improve a monotone answer) but the
  family's state array goes *stale*, so later additions can no longer be
  classified and conservatively drop the family;
* a batch mixing supplying deletions with additions drops the family:
  a repair may make a previously-useless addition valuable, so retention
  cannot be proven.

Every retention above is a theorem, not a heuristic — the differential
fuzz test in ``tests/test_serve_cache.py`` checks cache hits against a
fresh solver run on every step.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.algorithms.base import MonotonicAlgorithm
from repro.algorithms.solvers import dijkstra
from repro.core.keypath import KeyPathTracker
from repro.errors import ControlError
from repro.graph.batch import UpdateBatch
from repro.graph.dynamic import DynamicGraph
from repro.metrics import OpCounts


@dataclass
class CacheStats:
    """Cumulative cache effectiveness counters."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    #: the hits answered by the source's owner (anchor or sealed shard)
    owned_hits: int = 0
    invalidated_entries: int = 0
    invalidated_families: int = 0
    evicted_families: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a full computation."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        data = {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "owned_hits": self.owned_hits,
            "invalidated_entries": self.invalidated_entries,
            "invalidated_families": self.invalidated_families,
            "evicted_families": self.evicted_families,
            "hit_rate": self.hit_rate,
        }
        return data


@dataclass
class _Entry:
    """One cached ``(source, destination)`` answer with its witness path."""

    value: float
    #: dependence edges ``(parent, child)`` of the key path (empty when the
    #: destination is unreached — then no deletion can worsen it further)
    path_edges: FrozenSet[Tuple[int, int]]


@dataclass
class _SourceFamily:
    """All cached answers of one source plus the solver state behind them."""

    states: List[float]
    parents: List[int]
    #: True while ``states`` is the converged array of the *current*
    #: snapshot (required for classifying additions); supplying deletions
    #: flip it off without discarding still-valid answers
    fresh: bool = True
    answers: Dict[int, _Entry] = field(default_factory=dict)


class ResultCache:
    """Memoized pairwise answers with contribution-driven invalidation.

    ``capacity`` bounds the number of source families (LRU eviction).
    The cache is driven from the harness thread only — reads between
    batches, :meth:`on_batch` after each commit — so it needs no locking.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        capacity: int = 128,
        owner: Optional[Callable[[int, int], Optional[float]]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.graph = graph
        self.algorithm = algorithm
        self.capacity = capacity
        #: ``(source, destination) -> value`` from whoever maintains the
        #: source's converged state, None when nobody healthy does (the
        #: harness wires :meth:`ShardedServeEngine.lookup` here)
        self.owner = owner
        self.stats = CacheStats()
        self._families: "OrderedDict[int, _SourceFamily]" = OrderedDict()
        #: committed batches seen (the staleness clock for degraded reads)
        self.epoch = 0
        # last-known answers: (source, destination) -> (value, epoch stamped).
        # Unlike families these survive invalidation — they are explicitly
        # *possibly stale* and only served on an open circuit, bounded by
        # the supervisor's max_staleness (see docs/self_healing.md).
        self._last_known: "OrderedDict[Tuple[int, int], Tuple[float, int]]" = (
            OrderedDict()
        )
        self._last_known_bound = max(1024, capacity * 8)

    def __len__(self) -> int:
        return sum(len(f.answers) for f in self._families.values())

    @property
    def num_families(self) -> int:
        return len(self._families)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def fetch(
        self,
        source: int,
        destination: int,
        ops: Optional[OpCounts] = None,
        ask_owner: bool = True,
    ) -> float:
        """Answer ``Q(source -> destination)`` on the current snapshot.

        The source's owner answers when there is a healthy one
        (``ask_owner`` is False for a read on the degraded path, whose
        contract predates owners); otherwise serves from the family's
        converged states (fresh family, any destination) or a retained
        entry (stale family, cached destination); otherwise runs the
        solver, installing a fresh family.
        """
        self.stats.lookups += 1
        if ask_owner and self.owner is not None:
            value = self.owner(source, destination)
            if value is not None:
                self.stats.hits += 1
                self.stats.owned_hits += 1
                return value
        family = self._families.get(source)
        if family is not None:
            self._families.move_to_end(source)
            if family.fresh and destination < len(family.states):
                self.stats.hits += 1
                if destination not in family.answers:
                    family.answers[destination] = self._entry(
                        source, family, destination
                    )
                return family.states[destination]
            entry = family.answers.get(destination)
            if entry is not None:
                self.stats.hits += 1
                return entry.value
        self.stats.misses += 1
        result = dijkstra(self.graph, self.algorithm, source)
        if ops is not None:
            ops += result.ops
        family = _SourceFamily(states=result.states, parents=result.parents)
        family.answers[destination] = self._entry(source, family, destination)
        self._families[source] = family
        self._families.move_to_end(source)
        while len(self._families) > self.capacity:
            self._families.popitem(last=False)
            self.stats.evicted_families += 1
        return family.states[destination]

    # ------------------------------------------------------------------
    # last-known answers (the degraded-read surface)
    # ------------------------------------------------------------------
    def remember(self, source: int, destination: int, value: float) -> None:
        """Record a known-exact answer for the current epoch.

        Fed by the harness fan-out with every per-batch standing answer,
        so an open circuit can still serve ``Q(s -> d)`` with an explicit
        age bound instead of recomputing on a path that just failed.
        """
        key = (source, destination)
        self._last_known[key] = (value, self.epoch)
        self._last_known.move_to_end(key)
        while len(self._last_known) > self._last_known_bound:
            self._last_known.popitem(last=False)

    def stale_lookup(
        self, source: int, destination: int
    ) -> Optional[Tuple[float, int]]:
        """Last-known ``(value, age_in_epochs)`` for a pair, if recorded.

        Age 0 means the answer is from the current epoch (exact); the
        caller enforces its own staleness bound and tags the read
        ``degraded`` — this method never filters.
        """
        stamped = self._last_known.get((source, destination))
        if stamped is None:
            return None
        value, epoch = stamped
        return value, self.epoch - epoch

    def _entry(
        self, source: int, family: _SourceFamily, destination: int
    ) -> _Entry:
        tracker = KeyPathTracker(source, destination)
        tracker.rebuild(family.parents)
        chain = tracker.vertices()  # source ... destination (empty if none)
        return _Entry(
            value=family.states[destination],
            path_edges=frozenset(zip(chain, chain[1:])),
        )

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def on_batch(self, effective: UpdateBatch) -> Dict[str, int]:
        """Invalidate against one committed *net* batch; returns tallies."""
        self.epoch += 1  # ages every last-known answer by one
        adds = [u for u in effective if u.is_addition]
        dels = [u for u in effective if u.is_deletion]
        tallies = {"families_dropped": 0, "entries_dropped": 0, "retained": 0}
        if not adds and not dels:
            return tallies

        before_entries = self.stats.invalidated_entries
        for source in list(self._families):
            family = self._families[source]
            if family.fresh:
                keep = self._sweep_fresh(family, adds, dels)
            else:
                keep = self._sweep_stale(family, adds, dels)
            if not keep:
                del self._families[source]
                self.stats.invalidated_families += 1
                tallies["families_dropped"] += 1
            else:
                tallies["retained"] += 1
        tallies["entries_dropped"] = (
            self.stats.invalidated_entries - before_entries
        )
        return tallies

    def _sweep_fresh(self, family, adds, dels) -> bool:
        """Classify a net batch against a fresh family; False = drop it."""
        alg = self.algorithm
        states = family.states
        n = len(states)
        for upd in adds:
            if upd.u >= n or upd.v >= n:
                return False  # grown graph: states unknown, cannot classify
            if alg.improves(states[upd.u], upd.weight, states[upd.v]):
                return False  # valuable addition may improve anything
        supplying = []
        for upd in dels:
            if upd.u >= n or upd.v >= n:
                supplying.append(upd)  # conservative: treat as supplying
            elif alg.supplies(states[upd.u], upd.weight, states[upd.v]):
                supplying.append(upd)
        if not supplying:
            return True  # pure no-op batch: family stays fresh
        if adds:
            # a repair may turn a useless addition valuable; retention of
            # anything in this family can no longer be proven
            return False
        deleted = {(upd.u, upd.v) for upd in supplying}
        for destination in list(family.answers):
            if family.answers[destination].path_edges & deleted:
                del family.answers[destination]
                self.stats.invalidated_entries += 1
        family.fresh = False  # states may have shifted off the kept paths
        return bool(family.answers)

    def _sweep_stale(self, family, adds, dels) -> bool:
        """Key-path-only sweep for a stale family; False = drop it."""
        if adds:
            return False  # no states to classify additions against
        deleted = {(upd.u, upd.v) for upd in dels}
        for destination in list(family.answers):
            if family.answers[destination].path_edges & deleted:
                del family.answers[destination]
                self.stats.invalidated_entries += 1
        return bool(family.answers)

    # ------------------------------------------------------------------
    def set_capacity(self, capacity: int) -> None:
        """Resize the family bound live (the controller's cache knob).

        Non-positive capacities are rejected.  On shrink, least-recently
        used families are evicted immediately so the bound holds before
        the next lookup.  The last-known store keeps its original bound —
        degraded reads must not lose history because the hot cache shrank.
        """
        if capacity <= 0:
            raise ControlError("capacity must be positive")
        self.capacity = int(capacity)
        while len(self._families) > self.capacity:
            self._families.popitem(last=False)
            self.stats.evicted_families += 1

    def clear(self) -> None:
        """Drop every family (stats are kept cumulative)."""
        self._families.clear()
