"""Tests for the decoupled state/neighbor prefetchers."""

import pytest

from repro.errors import ConfigError
from repro.graph.dynamic import DynamicGraph
from repro.hw.config import DramConfig, SpmConfig
from repro.hw.dram import DramModel
from repro.hw.layout import MemoryLayout
from repro.hw.prefetcher import NeighborPrefetcher, Prefetcher, StatePrefetcher
from repro.hw.spm import ScratchpadMemory

EDGES = [(0, 1, 2.0), (0, 2, 3.0), (1, 2, 4.0), (3, 0, 5.0)]


@pytest.fixture
def memory():
    spm = ScratchpadMemory(
        SpmConfig(size_bytes=64 * 1024, ports=8), DramModel(DramConfig())
    )
    layout = MemoryLayout(DynamicGraph.from_edges(4, EDGES))
    return spm, layout


class TestPrefetcher:
    def test_requires_outstanding_slot(self, memory):
        spm, _ = memory
        with pytest.raises(ConfigError):
            Prefetcher(spm, max_outstanding=0)

    def test_fetch_counts(self, memory):
        spm, _ = memory
        pf = Prefetcher(spm, max_outstanding=2)
        done = pf.fetch(0, 64, now=0)
        assert done > 0
        assert pf.stats.requests == 1
        assert pf.stats.bytes_requested == 64
        assert pf.outstanding == 1

    def test_zero_length_free(self, memory):
        spm, _ = memory
        pf = Prefetcher(spm, max_outstanding=2)
        assert pf.fetch(0, 0, now=9) == 9
        assert pf.stats.requests == 0

    def test_outstanding_limit_stalls(self, memory):
        """With one slot, back-to-back misses serialise and record stalls."""
        spm, _ = memory
        pf = Prefetcher(spm, max_outstanding=1)
        pf.fetch(0, 64, now=0)  # miss: completes after DRAM latency
        pf.fetch(4096, 64, now=0)  # must wait for the first to retire
        assert pf.stats.stall_cycles > 0

    def test_many_slots_no_stall(self, memory):
        spm, _ = memory
        pf = Prefetcher(spm, max_outstanding=16)
        for i in range(8):
            pf.fetch(i * 4096, 64, now=0)
        assert pf.stats.stall_cycles == 0

    def test_drain(self, memory):
        spm, _ = memory
        pf = Prefetcher(spm, max_outstanding=4)
        done = pf.fetch(0, 64, now=0)
        assert pf.drain(now=0) == done
        assert pf.outstanding == 0

    def test_reset(self, memory):
        spm, _ = memory
        pf = Prefetcher(spm, max_outstanding=4)
        pf.fetch(0, 64, now=0)
        pf.reset()
        assert pf.outstanding == 0
        assert pf.stats.requests == 0


class TestStatePrefetcher:
    def test_fetch_state_uses_layout(self, memory):
        spm, layout = memory
        pf = StatePrefetcher(spm, layout)
        pf.fetch_state(3, now=0)
        assert pf.stats.bytes_requested == 8

    def test_write_marks_dirty(self, memory):
        spm, layout = memory
        pf = StatePrefetcher(spm, layout)
        pf.fetch_state(1, now=0, write=True)
        assert spm.flush(now=100) >= 100
        assert spm.stats.writebacks == 1


class TestNeighborPrefetcher:
    def test_forward_edge_list(self, memory):
        spm, layout = memory
        pf = NeighborPrefetcher(spm, layout)
        pf.fetch_edge_list(0, now=0)
        # indptr pair (16B) + two edge records (16B)
        assert pf.stats.bytes_requested == 32
        assert pf.stats.requests == 2

    def test_zero_degree_vertex_only_indptr(self, memory):
        spm, layout = memory
        pf = NeighborPrefetcher(spm, layout)
        pf.fetch_edge_list(2, now=0)  # vertex 2 has no out-edges
        assert pf.stats.requests == 1

    def test_reverse_edge_list(self, memory):
        spm, layout = memory
        pf = NeighborPrefetcher(spm, layout)
        pf.fetch_edge_list(2, now=0, reverse=True)  # two in-edges
        assert pf.stats.bytes_requested == 32
