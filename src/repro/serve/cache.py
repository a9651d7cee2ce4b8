"""The read chokepoint, and live source families for what nobody owns.

Every ad-hoc ``query(s, d)`` goes through :meth:`ResultCache.fetch`.  A
source some healthy shard maintains (or the anchor's) is answered by that
owner from its converged state — the families are not consulted at all.
What is left — sources nobody owns, owners that are dead, retired or not
yet sealed at the current epoch, and the recompute leg of a degraded read
— is answered by the source's *family*: a destination-less
:class:`~repro.core.multiquery.SourceGroup` solved once on its first read
(:meth:`~repro.core.multiquery.SourceGroup.initialize`), which answers
every destination.

:meth:`ResultCache.on_batch` advances the epoch and, when the committed
net batch is non-empty, rides each family read since the previous commit
through that batch with the same
:meth:`~repro.core.multiquery.SourceGroup.process_batch` a shard runs, so
a source read in consecutive epochs costs one solve per residency.  A
family nobody read in the epoch just ended, or whose state array is
shorter than the grown graph, is dropped instead: an unread family costs
at most one group epoch before it goes.  The last-known store beside the
families is a different thing — explicitly *possibly stale* answers for
open-circuit reads — and no commit touches it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from repro.algorithms.base import MonotonicAlgorithm
from repro.core.classification import KeyPathRule
from repro.core.multiquery import SourceGroup
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
    #: always 0: a family is carried or dropped whole, there are no
    #: per-destination entries to invalidate.  Kept because
    #: ``perfbench/drive.py`` reads it; goes with ``cache.dropped_entries``
    #: (ROADMAP item 6(c))
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
    """Owner first, then the source's live family, then one solve.

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
        #: source -> its family, converged on the current epoch's topology
        self._families: "OrderedDict[int, SourceGroup]" = OrderedDict()
        #: sources whose family was read since the previous commit
        self._read: Set[int] = set()
        #: committed batches seen (the staleness clock for degraded reads)
        self.epoch = 0
        # last-known answers: (source, destination) -> (value, epoch stamped).
        # Unlike families these are not kept converged — they are explicitly
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
        ask_owner: bool = True,
    ) -> float:
        """Answer ``Q(source -> destination)`` on the current snapshot.

        The source's owner answers when there is a healthy one
        (``ask_owner`` is False for a read on the degraded path, whose
        contract predates owners); otherwise the source's family does, for
        any destination; otherwise a family is built and solved once.
        """
        self.stats.lookups += 1
        if ask_owner and self.owner is not None:
            value = self.owner(source, destination)
            if value is not None:
                self.stats.hits += 1
                self.stats.owned_hits += 1
                return value
        self._read.add(source)
        family = self._families.get(source)
        if family is not None:
            self._families.move_to_end(source)
            self.stats.hits += 1
            return family.answer(destination)
        self.stats.misses += 1
        # no destination, so the key-path rule never decides anything
        family = SourceGroup(
            self.graph, self.algorithm, source, [], KeyPathRule.PRECISE
        )
        family.initialize(OpCounts())
        self._families[source] = family
        while len(self._families) > FAMILY_BOUND:
            self._families.popitem(last=False)
            self.stats.evicted_families += 1
        return family.answer(destination)

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
        """Advance the epoch; a non-empty *net* batch (already applied to
        the graph) carries every family read since the previous commit
        through it and drops the rest."""
        self.epoch += 1  # ages every last-known answer by one
        carried = dropped = 0
        if len(effective):
            size = self.graph.num_vertices
            for source, family in list(self._families.items()):
                if source in self._read and len(family.state.states) == size:
                    family.process_batch(effective, OpCounts(), OpCounts())
                    carried += 1
                else:
                    del self._families[source]
                    dropped += 1
            self._read.clear()
            self.stats.invalidated_families += dropped
        return {"families_dropped": dropped, "families_carried": carried}
