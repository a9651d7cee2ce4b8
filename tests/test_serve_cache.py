"""Tests for the per-epoch result cache (repro.serve.cache).

One rule — a family is valid for the epoch it was solved in — exercised
on a hand-built graph, then a differential fuzz: every fetch over a
random update stream must equal a fresh solver run on the current
snapshot.
"""

import pytest

from repro.algorithms import PPSP, dijkstra
from repro.graph.batch import UpdateBatch, add, delete, net_effects
from repro.graph.dynamic import DynamicGraph
from repro.metrics import OpCounts
from repro.serve import cache as cache_module
from repro.serve.cache import CacheStats, ResultCache
from tests.conftest import random_batch, random_graph

pytestmark = pytest.mark.serve


def _graph() -> DynamicGraph:
    """0 -1-> 1 -1-> 2 -1-> 3 and a 0 -10-> 4 -10-> 3 detour.

    PPSP from 0: states [0, 1, 2, 3, 10]; key path to 3 is 0-1-2-3.
    """
    return DynamicGraph.from_edges(
        5,
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 4, 10.0), (4, 3, 10.0)],
    )


def _commit(graph: DynamicGraph, cache: ResultCache, updates):
    """Apply a batch the way the harness does: net effects, graph, cache."""
    effective = net_effects(
        UpdateBatch(list(updates)), lambda u, v: graph.out_adj(u).get(v)
    )
    for upd in effective:
        graph.apply_update(upd, missing_ok=True)
    return cache.on_batch(effective)


# ----------------------------------------------------------------------
# reads
# ----------------------------------------------------------------------
class TestFetch:
    def test_miss_then_fresh_family_hits_any_destination(self):
        cache = ResultCache(_graph(), PPSP())
        assert cache.fetch(0, 3) == 3.0   # miss: full solve
        assert cache.fetch(0, 3) == 3.0   # hit: same entry
        assert cache.fetch(0, 4) == 10.0  # hit: fresh family, new destination
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2
        assert cache.num_families == 1

    def test_miss_accumulates_solver_ops(self):
        cache = ResultCache(_graph(), PPSP())
        ops = OpCounts()
        cache.fetch(0, 3, ops=ops)
        assert ops.total_compute() > 0
        spent = ops.total_compute()
        cache.fetch(0, 3, ops=ops)  # hit: no solver work
        assert ops.total_compute() == spent

    def test_lru_evicts_least_recent_family(self, monkeypatch):
        monkeypatch.setattr(cache_module, "FAMILY_BOUND", 2)
        cache = ResultCache(_graph(), PPSP())
        cache.fetch(0, 3)
        cache.fetch(1, 3)
        cache.fetch(2, 3)  # evicts source 0
        assert cache.stats.evicted_families == 1
        assert cache.num_families == 2
        cache.fetch(0, 3)
        assert cache.stats.misses == 4  # source 0 had to resolve again


# ----------------------------------------------------------------------
# invalidation: one rule (see docs/serving.md)
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_nonempty_batch_drops_every_family_and_counts_it(self):
        graph = _graph()
        cache = ResultCache(graph, PPSP())
        for source in (0, 1, 4):
            cache.fetch(source, 3)
        # 1 -5-> 3 improves nothing for any of the three sources; it is
        # still a topology change, and a family is valid for one epoch
        tallies = _commit(graph, cache, [add(1, 3, 5.0)])
        assert tallies == {"families_dropped": 3}
        assert cache.num_families == 0
        assert cache.stats.invalidated_families == 3
        assert cache.stats.invalidated_entries == 0
        assert cache.stats.misses == 3  # stats stay cumulative
        assert cache.fetch(0, 3) == 3.0 == dijkstra(graph, PPSP(), 0).states[3]
        assert cache.stats.misses == 4

    def test_valuable_addition_drops_family(self):
        graph = _graph()
        cache = ResultCache(graph, PPSP())
        cache.fetch(0, 3)
        # 1 -1-> 3 improves: 1 + 1 = 2 < 3
        _commit(graph, cache, [add(1, 3, 1.0)])
        assert cache.num_families == 0
        assert cache.stats.invalidated_families == 1
        assert cache.fetch(0, 3) == 2.0

    def test_supplying_deletion_resolves_on_the_new_topology(self):
        graph = _graph()
        cache = ResultCache(graph, PPSP())
        cache.fetch(0, 3)  # via 0-1-2-3
        _commit(graph, cache, [delete(1, 2, 1.0)])
        assert cache.num_families == 0
        assert cache.fetch(0, 3) == 20.0  # via 0-4-3 now
        assert cache.fetch(0, 4) == 10.0  # same epoch, same family
        assert cache.stats.misses == 2

    def test_supplying_deletion_mixed_with_adds_drops_family(self):
        graph = _graph()
        cache = ResultCache(graph, PPSP())
        cache.fetch(0, 4)
        _commit(graph, cache, [add(1, 3, 5.0), delete(1, 2, 1.0)])
        assert cache.num_families == 0

    def test_addition_into_grown_graph_drops_family(self):
        graph = _graph()
        cache = ResultCache(graph, PPSP())
        cache.fetch(0, 3)
        graph.ensure_vertex(5)
        _commit(graph, cache, [add(5, 3, 1.0)])  # vertex unknown to states
        assert cache.num_families == 0
        assert cache.fetch(0, 5) == dijkstra(graph, PPSP(), 0).states[5]

    def test_empty_batch_is_a_noop(self):
        graph = _graph()
        cache = ResultCache(graph, PPSP())
        cache.fetch(0, 3)
        assert cache.on_batch(UpdateBatch()) == {"families_dropped": 0}
        # an add and a delete of the same absent edge net to nothing
        assert _commit(
            graph, cache, [add(3, 0, 1.0), delete(3, 0, 1.0)]
        ) == {"families_dropped": 0}
        assert cache.epoch == 2
        assert cache.num_families == 1
        assert cache.fetch(0, 4) == 10.0
        assert cache.stats.misses == 1

    def test_unowned_source_solves_at_most_once_per_epoch(self):
        graph = _graph()
        cache = ResultCache(graph, PPSP())
        commits = [
            [add(1, 3, 5.0)],
            [delete(4, 3, 10.0)],
            [],
            [delete(1, 2, 1.0)],
            [add(1, 2, 2.0), add(4, 3, 1.0)],
        ]
        for updates in commits:
            _commit(graph, cache, updates)
            want = dijkstra(graph, PPSP(), 0).states
            for destination in (1, 2, 3, 4):
                assert cache.fetch(0, destination) == want[destination]
        assert cache.stats.lookups == 4 * len(commits)
        # the empty commit changed no edge, so it cost no solve either
        assert cache.stats.misses == len(commits) - 1

    def test_last_known_store_survives_the_drop(self):
        graph = _graph()
        cache = ResultCache(graph, PPSP())
        cache.fetch(0, 3)
        cache.remember(0, 3, 3.0)
        _commit(graph, cache, [delete(1, 2, 1.0)])
        assert cache.num_families == 0
        assert cache.stale_lookup(0, 3) == (3.0, 1)  # old value, aged one
        assert cache.stale_lookup(0, 4) is None


class TestStats:
    def test_hit_rate(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        stats.lookups, stats.hits = 4, 3
        assert stats.hit_rate == pytest.approx(0.75)
        assert stats.as_dict()["hit_rate"] == pytest.approx(0.75)


# ----------------------------------------------------------------------
# differential fuzz: every hit equals a fresh solve
# ----------------------------------------------------------------------
class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", range(3))
    def test_cached_answers_match_fresh_solver_over_random_stream(
        self, algorithm, seed
    ):
        graph = random_graph(40, 240, seed=seed)
        cache = ResultCache(graph, algorithm)
        pairs = [(s, d) for s in (0, 1, 2) for d in (10, 20, 30)]
        for batch_index in range(6):
            batch = random_batch(graph, 15, 15, seed=seed * 31 + batch_index)
            _commit(graph, cache, batch)
            for source, destination in pairs:
                want = dijkstra(graph, algorithm, source).states[destination]
                got = cache.fetch(source, destination)
                assert got == want, (
                    f"cache diverged on batch {batch_index} for "
                    f"Q({source}->{destination})"
                )
        # one solve per source per epoch; the other destinations hit it
        assert cache.stats.misses == 3 * 6
        assert cache.stats.hits == 6 * 6
