"""Software baselines the paper compares against.

:data:`ENGINES` maps each engine's ``name`` to its class: the five
baselines here plus CISGraph-O (:mod:`repro.core.engine`) and the
accelerator model (:mod:`repro.hw.accelerator`), in the order the CLI
lists them.
"""

from repro.baselines.coalescing import CoalescingEngine
from repro.baselines.coldstart import ColdStartEngine
from repro.baselines.hubs import HubIndex, select_hubs
from repro.baselines.incremental import PlainIncrementalEngine, UpdateRecord
from repro.baselines.sgraph import PnPEngine, SGraphEngine
from repro.core.engine import CISGraphEngine
from repro.hw.accelerator import CISGraphAccelerator

ENGINES = {
    engine.name: engine
    for engine in (
        ColdStartEngine,
        PlainIncrementalEngine,
        CoalescingEngine,
        SGraphEngine,
        PnPEngine,
        CISGraphEngine,
        CISGraphAccelerator,
    )
}

__all__ = [
    "CoalescingEngine",
    "ColdStartEngine",
    "ENGINES",
    "HubIndex",
    "select_hubs",
    "PlainIncrementalEngine",
    "UpdateRecord",
    "PnPEngine",
    "SGraphEngine",
]
