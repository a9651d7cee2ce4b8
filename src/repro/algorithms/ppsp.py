"""Point-to-Point Shortest Path (PPSP)."""

from __future__ import annotations

import math

from repro.algorithms.base import MonotonicAlgorithm


class PPSP(MonotonicAlgorithm):
    """Shortest additive distance from source to destination.

    Table II: ``T = u.state + w``; ``v.state = MIN(T, v.state)``.
    Identity is ``+inf`` (unreached), source starts at ``0``.
    """

    name = "ppsp"
    description = "Point-to-Point Shortest Path"
    minimizing = True
    plus_formula = "T = u.state + w"
    times_formula = "MIN(T, v.state)"
    plus_expr = "{a} + {b}"
    better_expr = "{a} < {b}"

    def identity(self) -> float:
        return math.inf

    def source_state(self) -> float:
        return 0.0

    def propagate(self, u_state: float, weight: float) -> float:
        return u_state + weight

    def is_better(self, a: float, b: float) -> bool:
        return a < b
