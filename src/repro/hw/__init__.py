"""Hardware models: the CISGraph accelerator simulator and the CPU cost model."""

from repro.hw.accelerator import CISGraphAccelerator, HwBatchStats
from repro.hw.config import AcceleratorConfig, DramConfig, SpmConfig
from repro.hw.cpu_model import CpuConfig, CpuCostModel, MemoryProfile
from repro.hw.dram import DramModel, DramStats
from repro.hw.energy import EnergyBreakdown, EnergyConfig, EnergyModel
from repro.hw.layout import MemoryLayout, Span
from repro.hw.prefetcher import (
    NeighborPrefetcher,
    Prefetcher,
    PrefetcherStats,
    StatePrefetcher,
)
from repro.hw.sim import ReadyQueue, Resource
from repro.hw.spm import ScratchpadMemory, SpmStats

__all__ = [
    "CISGraphAccelerator",
    "HwBatchStats",
    "AcceleratorConfig",
    "DramConfig",
    "SpmConfig",
    "CpuConfig",
    "CpuCostModel",
    "MemoryProfile",
    "DramModel",
    "DramStats",
    "MemoryLayout",
    "Span",
    "ScratchpadMemory",
    "SpmStats",
    "EnergyBreakdown",
    "EnergyConfig",
    "EnergyModel",
    "NeighborPrefetcher",
    "Prefetcher",
    "PrefetcherStats",
    "StatePrefetcher",
    "ReadyQueue",
    "Resource",
]
