"""Point-to-Point Widest Path (PPWP)."""

from __future__ import annotations

import math
import operator

from repro.algorithms.base import MonotonicAlgorithm


class PPWP(MonotonicAlgorithm):
    """Maximum-bottleneck (widest) path from source to destination.

    Table II: ``T = min(u.state, w)``; ``v.state = MAX(T, v.state)``.
    The width of a path is its narrowest edge; the query wants the widest
    such path.  Identity is ``0`` (no path has zero capacity since weights
    are positive); the source has unbounded capacity to itself (``+inf``).
    """

    name = "ppwp"
    description = "Point-to-Point Widest Path"
    minimizing = False
    plus_formula = "T = min(u.state, w)"
    times_formula = "MAX(T, v.state)"
    # no plus_op: ``min`` returns the other operand on a tie (5 vs 5.0)
    better_op = operator.gt

    def identity(self) -> float:
        return 0.0

    def source_state(self) -> float:
        return math.inf

    def propagate(self, u_state: float, weight: float) -> float:
        return u_state if u_state < weight else weight

    def is_better(self, a: float, b: float) -> bool:
        return a > b
