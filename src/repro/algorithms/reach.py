"""Point-to-Point Reachability (Reach)."""

from __future__ import annotations

import operator

from repro.algorithms.base import MonotonicAlgorithm


class Reach(MonotonicAlgorithm):
    """Breadth-first reachability from source to destination.

    Table II: ``T = u.state``; ``v.state = MAX(T, v.state)``.
    States are ``1.0`` (reachable from the source) or ``0.0`` (not, the
    identity); edge weights are ignored.
    """

    name = "reach"
    description = "Point-to-Point Reachability"
    minimizing = False
    plus_formula = "T = u.state"
    times_formula = "MAX(T, v.state)"
    better_op = operator.gt

    def identity(self) -> float:
        return 0.0

    def source_state(self) -> float:
        return 1.0

    def propagate(self, u_state: float, weight: float) -> float:
        return u_state

    def is_better(self, a: float, b: float) -> bool:
        return a > b
