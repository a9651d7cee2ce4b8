"""Small discrete-event simulation primitives (cycle resolution).

The accelerator model needs two things from a simulation kernel:

* :class:`Resource` — a unit that can do one thing at a time (a
  propagation unit): a monotone ``next_free`` cursor that variable-latency
  work extends with :meth:`Resource.occupy_until`;
* :class:`ReadyQueue` — a priority queue of work items keyed by the cycle
  they become ready, with the *re-key* idiom: when the popped item's
  resource is busy past another item's readiness, it is pushed back keyed
  at its actual start time so shared-memory contention is resolved in
  near-chronological order.

All times are integer cycles; ordering ties are broken by insertion
sequence, making every simulation deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError


class Resource:
    """A sequentially-occupied unit with a monotone availability cursor."""

    __slots__ = ("name", "next_free")

    def __init__(self, name: str = "resource") -> None:
        self.name = name
        self.next_free = 0

    def occupy_until(self, cycle: int) -> None:
        """Extend the busy window to ``cycle`` (for variable-latency work)."""
        if cycle > self.next_free:
            self.next_free = cycle

    def __repr__(self) -> str:
        return f"Resource({self.name!r}, next_free={self.next_free})"


class ReadyQueue:
    """Priority queue of ``(ready_cycle, item)`` with deterministic ties."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Any]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, ready: int, item: Any) -> None:
        heapq.heappush(self._heap, (ready, next(self._seq), item))

    def pop(self) -> Tuple[int, Any]:
        """Remove and return ``(ready, item)`` with the smallest ready."""
        if not self._heap:
            raise SimulationError("pop from empty ReadyQueue")
        ready, _, item = heapq.heappop(self._heap)
        return ready, item

    def peek_ready(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def pop_or_requeue(self, start_of: Callable[[Any], int]):
        """Pop the earliest-ready item unless its start would overtake a
        later-ready item that could start earlier.

        ``start_of(item)`` maps an item to the cycle it would actually start
        (its resource's cursor).  If that start is later than the next
        item's ready cycle, the popped item is re-keyed at its start time
        and ``None`` is returned — callers loop.  This keeps accesses to
        shared memory models near-chronological.
        """
        ready, item = self.pop()
        start = start_of(item)
        head = self.peek_ready()
        if head is not None and start > head:
            self.push(start, item)
            return None
        return start if start > ready else ready, item
