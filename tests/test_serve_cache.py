"""Tests for the result cache's live families (repro.serve.cache).

One rule — a family read since the previous commit rides the next
non-empty commit through ``SourceGroup.process_batch``, any other family
is dropped — exercised on a hand-built graph, then a differential fuzz:
every fetch over a random update stream must equal a fresh solver run on
the current snapshot.
"""

import pytest

from repro.algorithms import PPSP, dijkstra
from repro.graph.batch import UpdateBatch, add, delete, net_effects
from repro.graph.dynamic import DynamicGraph
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
# invalidation: the carry rule (see docs/serving.md)
# ----------------------------------------------------------------------
CARRIED = {"families_dropped": 0, "families_carried": 1}


def _assert_exact(graph: DynamicGraph, cache: ResultCache, source: int):
    """The source's family is converged on the current topology."""
    family = cache._families[source]
    assert family.state.states == dijkstra(graph, PPSP(), source).states
    family.state.check_converged()


def _carry(updates):
    """Read source 0's family, commit ``updates``; it must be carried."""
    graph = _graph()
    cache = ResultCache(graph, PPSP())
    assert cache.fetch(0, 3) == 3.0
    assert _commit(graph, cache, updates) == CARRIED
    _assert_exact(graph, cache, 0)
    return graph, cache


class TestInvalidation:
    def test_nonempty_batch_drops_every_family_and_counts_it(self):
        """... every family nobody read since the previous commit."""
        graph = _graph()
        cache = ResultCache(graph, PPSP())
        for source in (0, 1, 4):
            cache.fetch(source, 3)
        # 1 -5-> 3 improves nothing; the three read families ride it
        assert _commit(graph, cache, [add(1, 3, 5.0)]) == {
            "families_dropped": 0, "families_carried": 3,
        }
        cache.fetch(0, 4)  # a hit marks the family read as well
        assert _commit(graph, cache, [delete(1, 2, 1.0)]) == {
            "families_dropped": 2, "families_carried": 1,
        }
        assert _commit(graph, cache, [add(1, 2, 1.0)]) == {
            "families_dropped": 1, "families_carried": 0,
        }
        assert cache.num_families == 0
        assert cache.stats.invalidated_families == 3
        assert cache.stats.invalidated_entries == 0
        assert cache.stats.misses == 3  # stats stay cumulative
        assert cache.fetch(0, 3) == 3.0 == dijkstra(graph, PPSP(), 0).states[3]
        assert cache.stats.misses == 4

    def test_valuable_addition_carries_family(self):
        # 1 -1-> 3 improves: 1 + 1 = 2 < 3
        graph, cache = _carry([add(1, 3, 1.0)])
        assert cache.fetch(0, 3) == 2.0
        assert cache.stats.misses == 1
        assert cache.stats.invalidated_families == 0

    def test_supplying_deletion_resolves_on_the_new_topology(self):
        graph, cache = _carry([delete(1, 2, 1.0)])  # 3 was via 0-1-2-3
        assert cache.fetch(0, 3) == 20.0  # via 0-4-3 now
        assert cache.fetch(0, 4) == 10.0
        assert cache.stats.misses == 1

    def test_supplying_deletion_mixed_with_adds_carries_family(self):
        graph, cache = _carry([add(1, 3, 5.0), delete(1, 2, 1.0)])
        assert cache.fetch(0, 3) == 6.0  # via 0-1-3 now
        assert cache.fetch(0, 2) == dijkstra(graph, PPSP(), 0).states[2]

    @pytest.mark.parametrize("updates,want", [
        # re-weights: 0 -> 1 worsens the whole key path, 0 -> 4 and
        # 4 -> 3 improve the detour past it
        ([add(0, 1, 5.0)], 7.0),
        ([add(0, 4, 1.0), add(4, 3, 1.0)], 2.0),
        # 0 -> 1 cuts the family's tree: 1 and 2 become unreachable
        ([delete(0, 1, 1.0)], 20.0),
    ], ids=["reweight-worse", "reweight-better", "cut-tree"])
    def test_reweight_and_cut_tree_carry_family(self, updates, want):
        graph, cache = _carry(updates)
        assert cache.fetch(0, 3) == want
        assert cache.stats.misses == 1

    def test_addition_into_grown_graph_drops_family(self):
        graph = _graph()
        cache = ResultCache(graph, PPSP())
        cache.fetch(0, 3)
        graph.ensure_vertex(5)
        # vertex 5 is unknown to the family's state array
        assert _commit(graph, cache, [add(5, 3, 1.0)]) == {
            "families_dropped": 1, "families_carried": 0,
        }
        assert cache.num_families == 0
        assert cache.fetch(0, 5) == dijkstra(graph, PPSP(), 0).states[5]
        assert cache.stats.misses == 2

    def test_empty_batch_is_a_noop(self):
        graph = _graph()
        cache = ResultCache(graph, PPSP())
        cache.fetch(0, 3)
        nothing = {"families_dropped": 0, "families_carried": 0}
        assert cache.on_batch(UpdateBatch()) == nothing
        # an add and a delete of the same absent edge net to nothing
        assert _commit(
            graph, cache, [add(3, 0, 1.0), delete(3, 0, 1.0)]
        ) == nothing
        assert cache.epoch == 2
        assert cache.num_families == 1
        # the read before the empty commits still counts at the next one
        assert _commit(graph, cache, [delete(1, 2, 1.0)]) == CARRIED
        assert cache.fetch(0, 3) == 20.0
        assert cache.stats.misses == 1

    def test_unowned_source_solves_at_most_once_per_epoch(self):
        """... and, read every epoch, once per residency."""
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
            _assert_exact(graph, cache, 0)
        assert cache.stats.lookups == 4 * len(commits)
        assert cache.stats.misses == 1

    def test_last_known_store_survives_the_drop(self):
        """... and every carry: no commit touches it."""
        graph = _graph()
        cache = ResultCache(graph, PPSP())
        cache.fetch(0, 3)
        cache.remember(0, 3, 3.0)
        assert _commit(graph, cache, [delete(1, 2, 1.0)]) == CARRIED
        assert cache.fetch(0, 3) == 20.0
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
def _fuzz(algorithm, seed: int, adds: int, dels: int) -> None:
    graph = random_graph(40, 240, seed=seed)
    cache = ResultCache(graph, algorithm)
    pairs = [(s, d) for s in (0, 1, 2) for d in (10, 20, 30)]
    for batch_index in range(6):
        batch = random_batch(graph, adds, dels, seed=seed * 31 + batch_index)
        _commit(graph, cache, batch)
        # source 3 is read every other epoch: carried after an epoch that
        # read it, dropped after one that did not
        extra = [(3, 10)] if batch_index % 2 == 0 else []
        for source, destination in pairs + extra:
            want = dijkstra(graph, algorithm, source).states[destination]
            got = cache.fetch(source, destination)
            assert got == want, (
                f"cache diverged on batch {batch_index} for "
                f"Q({source}->{destination})"
            )
    # one solve per residency: sources 0-2 stay resident, source 3 is
    # dropped and solved again in every epoch that reads it
    assert cache.stats.misses == 3 + 3
    assert cache.stats.hits == 9 * 6 - 3
    assert cache.stats.invalidated_families == 2


class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", range(3))
    def test_cached_answers_match_fresh_solver_over_random_stream(
        self, algorithm, seed
    ):
        _fuzz(algorithm, seed, 15, 15)

    @pytest.mark.parametrize("seed", range(3))
    def test_deletion_heavy_stream_matches_fresh_solver(self, algorithm, seed):
        _fuzz(algorithm, seed, 4, 30)
