"""Update classification (Algorithm 1 of the paper).

Given the converged state array of the previous snapshot, every update in a
batch is classified by the triangle-inequality test:

* **addition** ``u --w--> v``: *valuable* iff ``(+)(state[u], w)`` is
  strictly better than ``state[v]`` (it would improve ``v``); otherwise
  *useless* and dropped.
* **deletion** ``u --w--> v``: *valuable* iff ``(+)(state[u], w)`` equals
  ``state[v]`` (the edge may be supplying ``v``'s state); valuable deletions
  are *non-delayed* when they carry the current answer (their target sits on
  the global key path) and *delayed* otherwise; non-valuable deletions are
  dropped.

Two key-path membership rules are provided.  ``paper`` follows Algorithm 1
literally (test whether the tail ``u`` lies on the key path).  ``precise``
tests whether the deleted edge is a dependence edge *of* the key path
(``parents[v] == u`` and ``v`` on the chain), which marks strictly fewer
deletions non-delayed while still covering every deletion the current answer
depends on (see DESIGN.md section 5 for the argument).  Both are safe
because the engine re-checks delayed updates against the key path before
emitting the answer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple, Union

from repro.algorithms.base import MonotonicAlgorithm
from repro.core.keypath import KeyPathTracker
from repro.graph.batch import EdgeUpdate, UpdateBatch, UpdateKind
from repro.metrics import OpCounts


class UpdateClass(enum.Enum):
    """Contribution level of an update (Section III-A)."""

    VALUABLE = "valuable"
    DELAYED = "delayed"
    USELESS = "useless"


class KeyPathRule(enum.Enum):
    """Which key-path membership test marks a deletion non-delayed."""

    PAPER = "paper"  # tail vertex u on the key path (Algorithm 1 line 12)
    PRECISE = "precise"  # the deleted edge is a key-path dependence edge


@dataclass
class ClassifiedBatch:
    """Outcome of classifying one batch.

    Updates in each bucket preserve their arrival order; the scheduler
    consumes valuable additions first, then non-delayed deletions, then
    delayed deletions (Section IV-A processes all valuable additions before
    any deletion "for fairness").
    """

    valuable_additions: List[EdgeUpdate] = field(default_factory=list)
    nondelayed_deletions: List[EdgeUpdate] = field(default_factory=list)
    delayed_deletions: List[EdgeUpdate] = field(default_factory=list)
    useless: List[EdgeUpdate] = field(default_factory=list)
    ops: OpCounts = field(default_factory=OpCounts)

    @property
    def num_valuable(self) -> int:
        return len(self.valuable_additions) + len(self.nondelayed_deletions)

    @property
    def num_delayed(self) -> int:
        return len(self.delayed_deletions)

    @property
    def num_useless(self) -> int:
        return len(self.useless)

    def summary(self) -> dict:
        total = self.num_valuable + self.num_delayed + self.num_useless
        return {
            "total": total,
            "valuable_additions": len(self.valuable_additions),
            "nondelayed_deletions": len(self.nondelayed_deletions),
            "delayed_deletions": self.num_delayed,
            "useless": self.num_useless,
            "useless_fraction": (self.num_useless / total) if total else 0.0,
        }


#: one tracker (a single query) or every tracker of a source group
KeyPaths = Union[KeyPathTracker, Iterable[KeyPathTracker]]


def _trackers(keypath: KeyPaths) -> Tuple[KeyPathTracker, ...]:
    if isinstance(keypath, KeyPathTracker):
        return (keypath,)
    return tuple(keypath)


def carries_answer(
    rule: KeyPathRule,
    trackers: Iterable[KeyPathTracker],
    parents: Sequence[int],
    update: EdgeUpdate,
) -> bool:
    """Does deleting ``update`` touch the key path of any destination?

    The one place the two membership rules are told apart: classification
    uses it to split valuable deletions into non-delayed and delayed, and
    every promotion pass (software workflow and accelerator model alike)
    re-asks it of the deletions still buffered after a repair.
    """
    u, v = update.u, update.v
    if rule is KeyPathRule.PAPER:
        for tracker in trackers:
            if tracker.contains(u):
                return True
        return False
    for tracker in trackers:
        if tracker.edge_on_path(u, v, parents):
            return True
    return False


def classify_addition(
    algorithm: MonotonicAlgorithm,
    states: Sequence[float],
    update: EdgeUpdate,
) -> UpdateClass:
    """Algorithm 1 lines 3-9 for one addition."""
    if algorithm.improves(states[update.u], update.weight, states[update.v]):
        return UpdateClass.VALUABLE
    return UpdateClass.USELESS


def classify_deletion(
    algorithm: MonotonicAlgorithm,
    states: Sequence[float],
    parents: Sequence[int],
    keypath: KeyPaths,
    update: EdgeUpdate,
    rule: KeyPathRule = KeyPathRule.PRECISE,
) -> UpdateClass:
    """Algorithm 1 lines 10-20 for one deletion."""
    if not algorithm.supplies(states[update.u], update.weight, states[update.v]):
        return UpdateClass.USELESS
    if carries_answer(rule, _trackers(keypath), parents, update):
        return UpdateClass.VALUABLE
    return UpdateClass.DELAYED


def classify_batch(
    algorithm: MonotonicAlgorithm,
    states: Sequence[float],
    parents: Sequence[int],
    keypath: KeyPaths,
    batch: Union[UpdateBatch, Sequence[EdgeUpdate]],
    rule: KeyPathRule = KeyPathRule.PRECISE,
) -> ClassifiedBatch:
    """Classify a whole batch against a converged state array.

    States must be the converged array of the previous snapshot (the
    engine's invariant), otherwise the equality test of deletions is
    meaningless.  ``keypath`` is one tracker, or all of a source group's:
    a deletion is non-delayed when it carries the answer of *any*
    destination.  Each check costs two state reads and one
    classification-check operation, which is the total identification
    overhead of the workflow — O(1) per update, no traversal.

    This is the only loop that runs the triangle-inequality tests over a
    batch (:func:`classify_addition` / :func:`classify_deletion` are its
    single-update specification), so it is written for the useless
    majority: the algorithm's :meth:`~MonotonicAlgorithm.kernel` inlined
    (one ``(+)`` per update), no per-update enum, counters added in bulk.
    """
    trackers = _trackers(keypath)
    plus, better, transform = algorithm.kernel()
    addition = UpdateKind.ADD
    result = ClassifiedBatch()
    valuable = result.valuable_additions.append
    nondelayed = result.nondelayed_deletions.append
    delayed = result.delayed_deletions.append
    useless = result.useless.append
    for update in batch:
        weight = update.weight
        candidate = plus(
            states[update.u], weight if transform is None else transform(weight)
        )
        if update.kind is addition:
            if better(candidate, states[update.v]):
                valuable(update)
            else:
                useless(update)
        elif candidate != states[update.v]:
            useless(update)
        elif carries_answer(rule, trackers, parents, update):
            nondelayed(update)
        else:
            delayed(update)
    result.ops.classification_checks = len(batch)
    result.ops.state_reads = 2 * len(batch)
    return result
