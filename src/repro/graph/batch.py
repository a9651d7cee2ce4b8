"""Edge updates and update batches.

A streaming graph evolves through *batches* of edge additions and deletions
(Section II-A of the paper; vertex updates are expressed as series of edge
updates).  :class:`EdgeUpdate` is one addition or deletion and
:class:`UpdateBatch` is an ordered collection of them as delivered to the
processing engines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple


class UpdateKind(enum.Enum):
    """Whether an update adds or deletes an edge."""

    ADD = "add"
    DELETE = "delete"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class EdgeUpdate:
    """A single streaming update ``u --w--> v`` (addition or deletion).

    ``weight`` is the raw dataset weight; algorithm-specific transforms (for
    example Viterbi's probability mapping) are applied by the algorithm, not
    stored here, so one batch can drive every algorithm.
    """

    kind: UpdateKind
    u: int
    v: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.u < 0 or self.v < 0:
            raise ValueError(f"vertex ids must be non-negative: {self}")
        if self.u == self.v:
            raise ValueError(f"self loops are not modelled: {self}")
        if not self.weight > 0:
            raise ValueError(f"edge weights must be positive: {self}")

    @property
    def is_addition(self) -> bool:
        return self.kind is UpdateKind.ADD

    @property
    def is_deletion(self) -> bool:
        return self.kind is UpdateKind.DELETE

    @property
    def edge(self) -> Tuple[int, int]:
        return (self.u, self.v)

    def __str__(self) -> str:
        sign = "+" if self.is_addition else "-"
        return f"{sign}({self.u} --{self.weight:g}--> {self.v})"


def add(u: int, v: int, weight: float = 1.0) -> EdgeUpdate:
    """Shorthand constructor for an edge addition."""
    return EdgeUpdate(UpdateKind.ADD, u, v, weight)


def delete(u: int, v: int, weight: float = 1.0) -> EdgeUpdate:
    """Shorthand constructor for an edge deletion."""
    return EdgeUpdate(UpdateKind.DELETE, u, v, weight)


@dataclass
class UpdateBatch:
    """An ordered batch of edge updates applied to one snapshot.

    The paper buffers updates until a threshold (100K in its evaluation) and
    applies them as one batch; engines receive the batch as a whole so they
    can classify and reorder it.
    """

    updates: List[EdgeUpdate] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self) -> Iterator[EdgeUpdate]:
        return iter(self.updates)

    def __getitem__(self, index: int) -> EdgeUpdate:
        return self.updates[index]

    def append(self, update: EdgeUpdate) -> None:
        self.updates.append(update)

    def extend(self, updates: Iterable[EdgeUpdate]) -> None:
        self.updates.extend(updates)

    @property
    def additions(self) -> List[EdgeUpdate]:
        """All additions, in arrival order."""
        return [upd for upd in self.updates if upd.is_addition]

    @property
    def deletions(self) -> List[EdgeUpdate]:
        """All deletions, in arrival order."""
        return [upd for upd in self.updates if upd.is_deletion]

    @property
    def num_additions(self) -> int:
        return sum(1 for upd in self.updates if upd.is_addition)

    @property
    def num_deletions(self) -> int:
        return len(self.updates) - self.num_additions

    def max_vertex(self) -> int:
        """Largest vertex id referenced by the batch (-1 if empty)."""
        best = -1
        for upd in self.updates:
            if upd.u > best:
                best = upd.u
            if upd.v > best:
                best = upd.v
        return best

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[Tuple[str, int, int, float]]
    ) -> "UpdateBatch":
        """Build a batch from ``(kind, u, v, weight)`` tuples.

        ``kind`` is ``"add"`` or ``"delete"``; handy for tests and loaders.
        """
        batch = cls()
        for kind, u, v, w in pairs:
            batch.append(EdgeUpdate(UpdateKind(kind), u, v, w))
        return batch


def net_effects(batch: UpdateBatch, edge_weight) -> "UpdateBatch":
    """Reduce a batch to its *net* topology effect.

    Engines that classify a whole batch before processing (CISGraph) must
    not propagate through an edge that a later update in the same batch
    removes.  This is the pure reducer: the engines call
    :meth:`~repro.graph.dynamic.DynamicGraph.apply_net`, which reduces and
    applies in one loop and is held to exactly this function followed by
    ``apply_batch(effective, missing_ok=False)``.  It replays the batch
    against the pre-batch topology (queried once per distinct edge through
    ``edge_weight(u, v) -> Optional[float]``) and returns an equivalent
    batch with at most one deletion followed by at most one addition per
    edge: pure additions, pure deletions (carrying the *pre-batch* weight,
    which classification needs), and re-weights expressed as a deletion
    plus an addition.  Updates that cancel out disappear.

    Callers may rely on three things:

    * edges appear in *first-touch* order — the order in which the input
      first names them — and no other ordering (say, deletions before
      additions across edges) is imposed: callers schedule as they see fit;
    * a re-weight is the deletion immediately followed by the addition, so
      applying the result moves the edge to the end of both adjacency
      dicts exactly as a delete-then-add would;
    * a returned update may be the caller's own object: the last update of
      an edge is reused whenever it already is its net effect (an addition
      of an absent edge, a deletion carrying the pre-batch weight), and a
      new :class:`EdgeUpdate` is built only for the deletion half of a
      re-weight or a deletion whose weight is stale.
    """
    last = {(upd.u, upd.v): upd for upd in batch}
    is_add = UpdateKind.ADD
    reduced: List[EdgeUpdate] = []
    for (u, v), upd in last.items():
        old = edge_weight(u, v)
        if upd.kind is is_add:
            if old is None:
                reduced.append(upd)
            elif old != upd.weight:
                reduced.append(EdgeUpdate(UpdateKind.DELETE, u, v, old))
                reduced.append(upd)
        elif old is not None:
            if upd.weight != old:
                upd = EdgeUpdate(UpdateKind.DELETE, u, v, old)
            reduced.append(upd)
    return UpdateBatch(reduced)
