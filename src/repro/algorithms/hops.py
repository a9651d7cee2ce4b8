"""Point-to-Point Hop Count (extension algorithm).

Not part of the paper's Table II, but a natural sixth monotonic member:
the minimum number of edges between source and destination (unweighted
BFS distance).  Included to demonstrate that the engines and the
accelerator are generic over the :class:`MonotonicAlgorithm` contract —
see :func:`repro.algorithms.register_algorithm`.
"""

from __future__ import annotations

import math
import operator

from repro.algorithms.base import MonotonicAlgorithm


class HopCount(MonotonicAlgorithm):
    """Fewest-hops path; weights are ignored.

    ``T = u.state + 1``; ``v.state = MIN(T, v.state)``.
    """

    name = "hops"
    description = "Point-to-Point Hop Count"
    minimizing = True
    plus_formula = "T = u.state + 1"
    times_formula = "MIN(T, v.state)"
    better_op = operator.lt

    def identity(self) -> float:
        return math.inf

    def source_state(self) -> float:
        return 0.0

    def propagate(self, u_state: float, weight: float) -> float:
        return u_state + 1.0

    def is_better(self, a: float, b: float) -> bool:
        return a < b
