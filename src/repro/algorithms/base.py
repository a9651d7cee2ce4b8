"""Monotonic pairwise algorithm interface.

Table II of the paper characterises each algorithm by two operators applied
to an edge ``u --w--> v``::

    T = (+)(u.state, w)          # "propagate": candidate state for v via u
    v.state = (x)(T, v.state)    # "combine":   keep the better of the two

together with an *identity* (the state of an unreached vertex) and a
*source* state.  All five algorithms are monotonic: (+) never produces a
value better than ``u.state`` itself, and (x) selects an extreme value, so
states only ever move in one direction during propagation.  Those two facts
make generalized Dijkstra, incremental propagation, and the paper's
triangle-inequality update classification correct for every algorithm
behind this interface.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Tuple


class MonotonicAlgorithm(abc.ABC):
    """Semiring-style description of a monotonic pairwise algorithm.

    Subclasses define the four elements (identity, source state, propagate,
    ordering); shared logic (combine, contribution tests, state comparisons)
    lives here.  Implementations must be *pure*: no instance state may change
    during queries, so one algorithm object can serve many engines at once.
    """

    #: short name used by the registry and result tables
    name: str = "abstract"
    #: human-readable description for documentation tables
    description: str = ""
    #: True when better == numerically smaller (PPSP, PPNP)
    minimizing: bool = False

    # ------------------------------------------------------------------
    # the semiring
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def identity(self) -> float:
        """State of an unreached vertex (the worst possible value)."""

    @abc.abstractmethod
    def source_state(self) -> float:
        """Initial state of the query source (the best possible value)."""

    @abc.abstractmethod
    def propagate(self, u_state: float, weight: float) -> float:
        """The (+) operator: candidate state for ``v`` given ``u``'s state.

        ``weight`` is the *transformed* weight (see :meth:`transform_weight`).
        """

    @abc.abstractmethod
    def is_better(self, a: float, b: float) -> bool:
        """Strict ordering: ``True`` iff state ``a`` beats state ``b``."""

    # ------------------------------------------------------------------
    # derived operations
    # ------------------------------------------------------------------
    def combine(self, a: float, b: float) -> float:
        """The (x) operator: the better of two states."""
        return a if self.is_better(a, b) else b

    def transform_weight(self, raw_weight: float) -> float:
        """Map a raw dataset weight into this algorithm's weight domain.

        Datasets carry positive integer weights; most algorithms use them
        directly.  Viterbi overrides this to map weights into probabilities.
        """
        return raw_weight

    def relax(self, u_state: float, raw_weight: float, v_state: float) -> float:
        """One full edge relaxation: ``(x)((+)(u, w), v)`` on a raw weight."""
        return self.combine(
            self.propagate(u_state, self.transform_weight(raw_weight)), v_state
        )

    def improves(self, u_state: float, raw_weight: float, v_state: float) -> bool:
        """Would edge ``u --w--> v`` strictly improve ``v``'s state?

        This is the triangle-inequality test the paper uses to classify edge
        *additions* as valuable (Algorithm 1, line 4).
        """
        return self.is_better(
            self.propagate(u_state, self.transform_weight(raw_weight)), v_state
        )

    def supplies(self, u_state: float, raw_weight: float, v_state: float) -> bool:
        """Does edge ``u --w--> v`` (exactly) supply ``v``'s converged state?

        This is the equality test classifying edge *deletions* as valuable
        (Algorithm 1, line 11): if the edge's candidate equals ``v``'s state,
        removing the edge may invalidate that state.
        """
        return (
            self.propagate(u_state, self.transform_weight(raw_weight)) == v_state
        )

    # ------------------------------------------------------------------
    # the hot-loop form of the semiring
    # ------------------------------------------------------------------
    #: C-level stand-ins for :meth:`propagate` / :meth:`is_better`
    #: (``operator.add``, ``operator.lt``, ...).  Only an operator that
    #: returns what the method returns, in value *and* type, qualifies:
    #: answer digests hash ``repr``.  Honoured only when declared by the
    #: class that defines the method, so overriding the method drops it.
    plus_op: Optional[Callable[[float, float], float]] = None
    better_op: Optional[Callable[[float, float], bool]] = None

    def kernel(self) -> Tuple[Callable, Callable, Optional[Callable]]:
        """``(plus, better, transform)`` for the per-edge loops.

        :class:`~repro.incremental.IncrementalState` and
        :func:`~repro.core.classification.classify_batch` apply ``plus``
        / ``better`` in place of :meth:`propagate` / :meth:`is_better`,
        and ``transform`` in place of :meth:`transform_weight` — ``None``
        when it is the identity, so the loop skips the call.  The methods
        stay the reference: the solvers and the oracle call them.
        """
        cls = type(self)
        identity_transform = (
            cls.transform_weight is MonotonicAlgorithm.transform_weight
        )
        return (
            _declared_beside(cls, "propagate", "plus_op") or self.propagate,
            _declared_beside(cls, "is_better", "better_op") or self.is_better,
            None if identity_transform else self.transform_weight,
        )

    def is_reached(self, state: float) -> bool:
        """``True`` when a state is better than the identity (vertex reached)."""
        return self.is_better(state, self.identity())

    def initial_states(self, num_vertices: int, source: int) -> List[float]:
        """Fresh state array: identity everywhere, source state at ``source``."""
        states = [self.identity()] * num_vertices
        states[source] = self.source_state()
        return states

    # ------------------------------------------------------------------
    # documentation helpers (Table II reproduction)
    # ------------------------------------------------------------------
    #: string form of the (+) operator as printed in Table II
    plus_formula: str = ""
    #: string form of the (x) operator as printed in Table II
    times_formula: str = ""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _declared_beside(cls: type, method: str, attribute: str):
    """``attribute`` of the class that defines ``method``, else ``None``."""
    owner = next(klass for klass in cls.__mro__ if method in vars(klass))
    return vars(owner).get(attribute)
