"""Viterbi most-probable path."""

from __future__ import annotations

import operator

from repro.algorithms.base import MonotonicAlgorithm
from repro.graph.generators import DEFAULT_MAX_WEIGHT


class Viterbi(MonotonicAlgorithm):
    """Most-likely path in a graph with probabilistic transitions.

    The paper's Table II prints ``T = u.state / w`` with MAX-combine.  With
    transition probabilities ``p in (0, 1]`` the standard monotone Viterbi
    recurrence is ``T = u.state * p`` (path probability is the product of
    its transitions); division by a probability would grow without bound and
    break monotonicity, so we read the printed formula as a typo and
    implement the product form (documented in DESIGN.md).

    Datasets carry positive integer weights; :meth:`transform_weight` maps a
    raw weight ``w`` to the probability ``w / (max_weight + 1)`` so that
    heavier edges are more likely and every probability stays in ``(0, 1)``.
    """

    name = "viterbi"
    description = "Viterbi most-likely path"
    minimizing = False
    plus_formula = "T = u.state * p(w)"
    times_formula = "MAX(T, v.state)"
    plus_op = operator.mul
    better_op = operator.gt

    def __init__(self, max_weight: int = DEFAULT_MAX_WEIGHT) -> None:
        if max_weight <= 0:
            raise ValueError("max_weight must be positive")
        self._scale = 1.0 / (max_weight + 1)

    def identity(self) -> float:
        return 0.0

    def source_state(self) -> float:
        return 1.0

    def transform_weight(self, raw_weight: float) -> float:
        probability = raw_weight * self._scale
        # Raw weights above max_weight would yield p >= 1; clamp defensively
        # so monotonicity (propagate never improves on u.state) always holds.
        return probability if probability < 1.0 else 1.0

    def propagate(self, u_state: float, weight: float) -> float:
        return u_state * weight

    def is_better(self, a: float, b: float) -> bool:
        return a > b
