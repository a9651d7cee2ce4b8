"""Differential fallback guard: detect and survive silent state corruption.

An incremental engine that has drifted from the true fixpoint — a buggy
repair, a bit-flip, a batch applied twice — keeps answering quickly and
*wrongly*.  The guard periodically cross-checks the engine's converged
state against a cold-start recompute on the current snapshot (the same
ground truth the differential test harness uses).  On divergence it:

1. logs the event (``repro.resilience`` logger) with the first differing
   vertex and both answers,
2. **falls back**: installs the recomputed ground truth through
   :meth:`CISGraphEngine.adopt_state` (states, parents, key paths) —
   on a serve engine that is its anchor; no shard is touched,
3. keeps serving — graceful degradation instead of silent corruption.

The check costs one full computation, so ``every_batches`` trades
detection latency against overhead exactly like checkpoint cadence does.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional

from repro.algorithms.solvers import dijkstra
from repro.core.engine import CISGraphEngine
from repro.metrics import ResilienceCounters

logger = logging.getLogger("repro.resilience")


@dataclass
class GuardReport:
    """Outcome of one differential check."""

    snapshot_id: int
    diverged: bool
    #: vertices whose state differed from the cold-start ground truth
    bad_vertices: List[int]
    engine_answer: float
    true_answer: float
    fell_back: bool

    def __str__(self) -> str:
        if not self.diverged:
            return f"guard@{self.snapshot_id}: clean"
        return (
            f"guard@{self.snapshot_id}: DIVERGED at {len(self.bad_vertices)} "
            f"vertices (answer {self.engine_answer!r} vs true "
            f"{self.true_answer!r}), fallback={'yes' if self.fell_back else 'no'}"
        )


class DifferentialGuard:
    """Periodic cold-start cross-check with automatic fallback.

    ``every_batches`` sets the cadence for :meth:`maybe_check`;
    :meth:`check` runs unconditionally.  With ``fallback=False`` the guard
    only detects and logs (monitor-only mode).
    """

    def __init__(
        self,
        engine: CISGraphEngine,
        every_batches: int = 8,
        fallback: bool = True,
        counters: Optional[ResilienceCounters] = None,
    ) -> None:
        if every_batches <= 0:
            raise ValueError("every_batches must be positive")
        self.engine = engine
        self.every_batches = every_batches
        self.fallback = fallback
        self.counters = counters if counters is not None else ResilienceCounters()
        self.reports: List[GuardReport] = []

    def maybe_check(self, snapshot_id: int) -> Optional[GuardReport]:
        """Run the check when the cadence says so (every N snapshots)."""
        if snapshot_id % self.every_batches != 0:
            return None
        return self.check(snapshot_id)

    def check(self, snapshot_id: int = -1) -> GuardReport:
        """Cross-check the engine against a cold-start recompute now."""
        engine = self.engine
        self.counters.guard_checks += 1
        truth = dijkstra(engine.graph, engine.algorithm, engine.query.source)
        bad = [
            v
            for v, (got, want) in enumerate(zip(engine.state.states, truth.states))
            if got != want
        ]
        report = GuardReport(
            snapshot_id=snapshot_id,
            diverged=bool(bad),
            bad_vertices=bad,
            engine_answer=engine.answer,
            true_answer=truth.states[engine.query.destination],
            fell_back=False,
        )
        if bad:
            self.counters.guard_divergences += 1
            logger.warning(
                "differential guard: engine diverged from cold-start truth at "
                "%d vertices (first: %d, engine=%r true=%r), answer %r vs %r",
                len(bad),
                bad[0],
                engine.state.states[bad[0]],
                truth.states[bad[0]],
                report.engine_answer,
                report.true_answer,
            )
            if self.fallback:
                engine.adopt_state(truth.states, truth.parents)
                report.fell_back = True
                self.counters.guard_fallbacks += 1
                logger.warning(
                    "differential guard: fell back to recomputed state, "
                    "serving continues (answer %r)",
                    engine.answer,
                )
        self.reports.append(report)
        return report
