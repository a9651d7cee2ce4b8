"""The read chokepoint, and a per-epoch memo for what nobody owns.

Every ad-hoc ``query(s, d)`` goes through :meth:`ResultCache.fetch`.  A
source some healthy shard maintains (or the anchor's) is answered by that
owner from its converged state — the memo is not consulted at all.  What
is left — sources nobody owns, owners that are dead, retired or not yet
sealed at the current epoch, and the recompute leg of a degraded read —
is solved once per epoch per source: a *family* is the ``states`` list of
one :func:`~repro.algorithms.solvers.dijkstra` run, answers every
destination, and is valid for the epoch it was solved in.

:meth:`ResultCache.on_batch` advances the epoch and, when the committed
net batch is non-empty, drops every family.  Nothing is retained across a
topology change, so there is nothing to prove: measured over every
serve-driving input of the repository, contribution-aware retention saved
0 of 94 solves on ``perfbench``'s ``serve-readmix`` and 6 of 45 on the
120-vertex traffic profiles (docs/serving.md has the table).  The
last-known store beside it is a different thing — explicitly *possibly
stale* answers for open-circuit reads — and survives the drop.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.algorithms.base import MonotonicAlgorithm
from repro.algorithms.solvers import dijkstra
from repro.graph.batch import UpdateBatch
from repro.graph.dynamic import DynamicGraph
from repro.metrics import OpCounts

#: source families held at once; the least recently read one is evicted
#: beyond it, because the read request — not the system — picks the source
FAMILY_BOUND = 128
#: last-known answers held for degraded reads (least recently stamped out)
LAST_KNOWN_BOUND = 1024


@dataclass
class CacheStats:
    """Cumulative cache effectiveness counters."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    #: the hits answered by the source's owner (anchor or sealed shard)
    owned_hits: int = 0
    #: always 0: families are dropped whole, there are no per-destination
    #: entries to invalidate.  Kept because ``perfbench/drive.py`` reads it;
    #: goes with ``cache.dropped_entries`` (ROADMAP item 6(c))
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


class ResultCache:
    """Owner first, then this epoch's solve of the source, then one solve.

    The cache is driven from the harness thread only — reads between
    batches, :meth:`on_batch` after each commit — so it needs no locking.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm: MonotonicAlgorithm,
        owner: Optional[Callable[[int, int], Optional[float]]] = None,
    ) -> None:
        self.graph = graph
        self.algorithm = algorithm
        #: ``(source, destination) -> value`` from whoever maintains the
        #: source's converged state, None when nobody healthy does (the
        #: harness wires :meth:`ShardedServeEngine.lookup` here)
        self.owner = owner
        self.stats = CacheStats()
        #: source -> converged ``states`` of the current epoch's topology
        self._families: "OrderedDict[int, List[float]]" = OrderedDict()
        #: committed batches seen (the staleness clock for degraded reads)
        self.epoch = 0
        # last-known answers: (source, destination) -> (value, epoch stamped).
        # Unlike families these survive invalidation — they are explicitly
        # *possibly stale* and only served on an open circuit, bounded by
        # the supervisor's max_staleness (see docs/self_healing.md).
        self._last_known: "OrderedDict[Tuple[int, int], Tuple[float, int]]" = (
            OrderedDict()
        )

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
        contract predates owners); otherwise this epoch's family of the
        source does, for any destination; otherwise the solver runs once
        and its states become that family.
        """
        self.stats.lookups += 1
        if ask_owner and self.owner is not None:
            value = self.owner(source, destination)
            if value is not None:
                self.stats.hits += 1
                self.stats.owned_hits += 1
                return value
        states = self._families.get(source)
        if states is not None:
            self._families.move_to_end(source)
            self.stats.hits += 1
            return states[destination]
        self.stats.misses += 1
        result = dijkstra(self.graph, self.algorithm, source)
        if ops is not None:
            ops += result.ops
        self._families[source] = result.states
        while len(self._families) > FAMILY_BOUND:
            self._families.popitem(last=False)
            self.stats.evicted_families += 1
        return result.states[destination]

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
        while len(self._last_known) > LAST_KNOWN_BOUND:
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

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def on_batch(self, effective: UpdateBatch) -> Dict[str, int]:
        """Advance the epoch; a non-empty *net* batch drops every family."""
        self.epoch += 1  # ages every last-known answer by one
        dropped = 0
        if len(effective):
            dropped = len(self._families)
            self._families.clear()
            self.stats.invalidated_families += dropped
        return {"families_dropped": dropped}
