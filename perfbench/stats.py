"""Estimators: every number the benchmark reports goes through these.

The rules they encode (README, "Noise rules"):

* a tail is the highest percentile with at least ``MIN_BEYOND`` samples
  beyond it — anything further out is a handful of order statistics;
* call *i* does the same work in every replay, so its latency is the
  median of its replays; percentiles are taken over those per-call medians;
* a throughput is plain operations / summed call time of one replay, and
  the run's throughput the median of its replays.  No call is capped,
  trimmed or dropped anywhere.
"""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence

#: candidate tails in per-mille, so ranks are exact integer arithmetic
TAILS_PERMILLE = (500, 750, 900, 950, 990, 999)
MIN_BEYOND = 10
#: the tail every run reports, per-mille: p90
TAIL = 900


def _rank(permille: int, n: int) -> int:
    """Nearest-rank (1-based) of the ``permille/10``-th percentile of n."""
    return max(1, -(-permille * n // 1000))


def samples_beyond(permille: int, n: int) -> int:
    """How many of ``n`` samples lie strictly beyond the percentile."""
    return n - _rank(permille, n)


def supported_tail(n: int) -> Optional[int]:
    """Highest candidate tail (per-mille) with >= MIN_BEYOND samples beyond."""
    best = None
    for permille in TAILS_PERMILLE:
        if samples_beyond(permille, n) >= MIN_BEYOND:
            best = permille
    return best


def reported_tail(n: int) -> int:
    """``TAIL``; on a stream too short for it (only ``--quick`` ones are,
    and their timings are smoke) the highest tail ``n`` samples support."""
    if samples_beyond(TAIL, n) >= MIN_BEYOND:
        return TAIL
    return supported_tail(n) or 500


def percentile(values: Sequence[float], permille: int) -> float:
    """Nearest-rank percentile (no interpolation: it is a measured sample)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(permille, len(values)) - 1]


def per_call_median(replays: Sequence[Sequence[float]]) -> List[float]:
    """Median over the replays of each call's time, in call order."""
    if not replays:
        raise ValueError("no replays")
    length = len(replays[0])
    if any(len(replay) != length for replay in replays):
        raise ValueError("replays differ in length: not the same stream")
    return [statistics.median(column) for column in zip(*replays)]


def throughput(ops: int, replays: Sequence[Sequence[float]]) -> float:
    """Median over the replays of ``ops`` / the replay's summed call time."""
    return statistics.median(ops / sum(replay) for replay in replays)


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
