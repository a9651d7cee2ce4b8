"""Point-to-Point Narrowest Path (PPNP)."""

from __future__ import annotations

import math

from repro.algorithms.base import MonotonicAlgorithm


class PPNP(MonotonicAlgorithm):
    """Minimax (narrowest) path: minimise the largest edge on the path.

    Table II: ``T = max(u.state, w)``; ``v.state = MIN(T, v.state)``.
    Identity is ``+inf`` (unreached); the source's own bottleneck is
    ``-inf`` so the first edge's weight dominates.
    """

    name = "ppnp"
    description = "Point-to-Point Narrowest Path"
    minimizing = True
    plus_formula = "T = max(u.state, w)"
    times_formula = "MIN(T, v.state)"
    # the method's own body: ``max`` returns the other operand on a tie
    # (5 vs 5.0), and digests hash ``repr``
    plus_expr = "({a} if {a} > {b} else {b})"
    better_expr = "{a} < {b}"

    def identity(self) -> float:
        return math.inf

    def source_state(self) -> float:
        return -math.inf

    def propagate(self, u_state: float, weight: float) -> float:
        return u_state if u_state > weight else weight

    def is_better(self, a: float, b: float) -> bool:
        return a < b
