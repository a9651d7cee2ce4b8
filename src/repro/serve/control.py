"""Adaptive runtime control: SLO-guarded self-tuning of the serve layer.

Every serve-layer knob was static until this module: shard count,
admission token bucket and the supervisor's ``max_staleness`` bound
were all fixed at :meth:`ServeHarness.open` no matter what the workload
did.  :class:`RuntimeController` closes the
observe → diagnose → remediate loop (RisGraph meets its per-update SLO by
exactly this kind of runtime trading of admission against load; see
PAPERS.md): it runs after every committed epoch, reads one
:class:`ControlSignals` frame off the components it holds (queue depths,
admission rejections, breaker states, served staleness), diagnoses one
:class:`Condition`, and applies bounded remediations live.  Its one input
from the caller is the :class:`SLOPolicy`; every tuning value is a module
constant.

Safety properties, in order of importance:

* **SLO-gated** — remediations exist to meet an explicit
  :class:`SLOPolicy` (answer p99, staleness bound, shed rate), not to
  chase throughput;
* **clamped** — every knob move is clamped to :data:`LIMITS` (shards to
  ``1 .. max(4, 2 x baseline)``), so a bad diagnosis degrades gracefully
  instead of cascading;
* **hysteresis** — scale-ups need the queue above :data:`HIGH_WATER` (or
  actual shedding), and reclaim needs :data:`IDLE_EPOCHS` consecutive
  epochs below :data:`LOW_WATER`, so the controller cannot flap (load
  oscillating inside the band produces zero decisions — a regression
  test); each review moves a knob at most once;
* **auditable** — every decision is appended to a bounded audit log and
  emitted as a ``controller.decision`` trace point inside the epoch's
  causal tree, so ``trace``/``control-log`` answer *why capacity
  changed*;
* **killable** — :meth:`RuntimeController.freeze` reverts every knob to
  the static configuration captured at attach time and stops all further
  decisions until :meth:`RuntimeController.thaw`.

The decision core (:class:`DecisionEngine`) is a pure function of the
signal stream plus its quiet-epoch streak — no wall clock, no randomness —
so identical seeded metric streams produce identical decision sequences
(property-tested in ``tests/test_serve_control.py``).

See docs/adaptive_control.md for the decision table and audit format.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ControlError


class Condition(enum.Enum):
    """Diagnosed state of the serving system for one epoch."""

    HEALTHY = "healthy"
    OVERLOAD = "overload"
    HOT_SKEW = "hot-skew"
    UNDER_PROVISIONED = "under-provisioned"
    IDLE = "idle"
    DEGRADED_READS = "degraded-read-pressure"
    FROZEN = "frozen"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SLOPolicy:
    """The service-level objectives the controller is allowed to chase.

    ``answer_p99`` bounds standing-answer latency in seconds;
    ``staleness_bound`` bounds the age (in committed epochs) of any
    degraded read the layer serves; ``shed_rate`` bounds the fraction of
    admission attempts that may be rejected.
    """

    answer_p99: float = 1.0
    staleness_bound: int = 2
    shed_rate: float = 0.1

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ControlError` on a bad policy."""
        if self.answer_p99 <= 0:
            raise ControlError("answer_p99 must be positive")
        if self.staleness_bound < 0:
            raise ControlError("staleness_bound must be non-negative")
        if not 0.0 <= self.shed_rate <= 1.0:
            raise ControlError("shed_rate must be within [0, 1]")

    def as_dict(self) -> Dict[str, float]:
        """Plain-JSON form for reports and audit records."""
        return {
            "answer_p99": self.answer_p99,
            "staleness_bound": self.staleness_bound,
            "shed_rate": self.shed_rate,
        }


@dataclass(frozen=True)
class SLOVerdict:
    """Measured SLO outcomes of one run, graded against a policy."""

    policy: SLOPolicy
    answer_p99: float
    staleness_max: int
    shed_rate: float
    violations: Tuple[str, ...]

    @property
    def met(self) -> bool:
        """True when every objective held."""
        return not self.violations

    @classmethod
    def grade(
        cls,
        policy: SLOPolicy,
        latencies: Sequence[float],
        staleness_max: int,
        shed_rate: float,
    ) -> "SLOVerdict":
        """Grade measured outcomes against ``policy``."""
        p99 = _p99(latencies)
        violations = []
        if p99 > policy.answer_p99:
            violations.append(
                f"answer p99 {p99:.4f}s > bound {policy.answer_p99:g}s"
            )
        if staleness_max > policy.staleness_bound:
            violations.append(
                f"served staleness {staleness_max} epochs "
                f"> bound {policy.staleness_bound}"
            )
        if shed_rate > policy.shed_rate:
            violations.append(
                f"shed rate {shed_rate:.3f} > bound {policy.shed_rate:g}"
            )
        return cls(
            policy=policy,
            answer_p99=p99,
            staleness_max=staleness_max,
            shed_rate=shed_rate,
            violations=tuple(violations),
        )

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON form for chaos reports and CI artifacts."""
        return {
            "policy": self.policy.as_dict(),
            "answer_p99": self.answer_p99,
            "staleness_max": self.staleness_max,
            "shed_rate": self.shed_rate,
            "violations": list(self.violations),
            "met": self.met,
        }


def _p99(latencies: Sequence[float]) -> float:
    """Nearest-rank p99 of a latency sample (0.0 when empty)."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(0.99 * (len(ordered) - 1)))]


#: consecutive quiet epochs required before reclaiming capacity
IDLE_EPOCHS = 3
#: queue-depth ratio above which the pool is under-provisioned
HIGH_WATER = 0.75
#: queue-depth ratio below which an epoch counts as quiet
LOW_WATER = 0.25
#: groups_max / mean-groups ratio that counts as hot-source skew
SKEW_FACTOR = 1.5
#: minimum groups on the hottest shard before skew is believed
SKEW_MIN_GROUPS = 4
#: multiplier applied to the token bucket when raising admission
ADMISSION_GROWTH = 8.0
#: bounded length of the in-memory decision audit log
AUDIT_CAPACITY = 1024
#: (floor, ceiling) no remediation may cross, per knob; the shard ceiling
#: is derived from the baseline pool by :class:`DecisionEngine`
LIMITS = {
    "admission_rate": (0.5, 1024.0),
    "admission_burst": (1.0, 4096.0),
    "max_staleness": (0, 64),
}


@dataclass(frozen=True)
class ControlSignals:
    """One epoch's observation of the serving system (the engine's input).

    Deltas (``*_delta``) cover the interval since the previous controller
    review; everything else is the current level.  Built by
    :meth:`RuntimeController.collect` from the stats of the components
    the controller already holds, with or without telemetry attached.
    """

    epoch: int
    num_shards: int
    queue_bound: int
    depth_max: int
    groups_max: int
    groups_total: int
    rejections_delta: int
    saturated_delta: int
    breakers_open: int
    degraded_sessions: int
    staleness_served: int
    admission_rate: float
    admission_burst: float
    max_staleness: int

    @property
    def depth_ratio(self) -> float:
        """Deepest shard inbox as a fraction of the admission bound."""
        return self.depth_max / self.queue_bound if self.queue_bound else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON form (audit records, tests)."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ControlDecision:
    """One applied knob change, as recorded in the audit log."""

    epoch: int
    condition: str
    knob: str
    old: float
    new: float
    reason: str
    clamped: bool = False
    #: causal trace of the epoch whose review produced this decision
    trace_id: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON form (one audit-log line)."""
        return dataclasses.asdict(self)


def write_audit(path: str, decisions: Sequence[Dict[str, object]]) -> int:
    """Write :meth:`ControlDecision.as_dict` records as the control-audit
    JSONL (one sorted-key object a line); returns the record count."""
    with open(path, "w") as handle:
        for decision in decisions:
            handle.write(json.dumps(decision, sort_keys=True))
            handle.write("\n")
    return len(decisions)


#: the knobs the controller may move, in apply order
KNOBS = (
    "shards",
    "admission_rate",
    "admission_burst",
    "max_staleness",
)


class DecisionEngine:
    """The pure decision core: signals in, clamped knob targets out.

    Holds only deterministic state (the quiet-epoch streak) so that
    identical signal streams always produce identical decision sequences;
    the side-effecting apply path lives in :class:`RuntimeController`.
    """

    def __init__(self, policy: SLOPolicy, baseline: Dict[str, float]) -> None:
        policy.validate()
        missing = [knob for knob in KNOBS if knob not in baseline]
        if missing:
            raise ControlError(f"baseline missing knobs: {missing}")
        self.policy = policy
        self.baseline = {knob: float(baseline[knob]) for knob in KNOBS}
        #: the pool may grow to twice its baseline, and to 4 shards at least
        self.max_shards = max(4, 2 * int(self.baseline["shards"]))
        self._quiet_streak = 0

    # ------------------------------------------------------------------
    def step(
        self, signals: ControlSignals
    ) -> Tuple[Condition, List[ControlDecision]]:
        """Diagnose one epoch and emit the clamped decisions for it."""
        condition = self.diagnose(signals)
        decisions: List[ControlDecision] = []
        for knob, target, reason in self._plan(condition, signals):
            decision = self._decide(knob, target, reason, condition, signals)
            if decision is not None:
                decisions.append(decision)
        return condition, decisions

    # ------------------------------------------------------------------
    def diagnose(self, s: ControlSignals) -> Condition:
        """Classify the epoch (the first matching condition wins)."""
        if (
            s.breakers_open > 0
            or s.staleness_served > self.policy.staleness_bound
        ):
            self._quiet_streak = 0
            return Condition.DEGRADED_READS
        if s.rejections_delta > 0:
            self._quiet_streak = 0
            return Condition.OVERLOAD
        if s.depth_ratio >= HIGH_WATER:
            self._quiet_streak = 0
            return Condition.UNDER_PROVISIONED
        if self._skewed(s):
            self._quiet_streak = 0
            return Condition.HOT_SKEW
        if s.depth_ratio <= LOW_WATER and s.degraded_sessions == 0:
            self._quiet_streak += 1
            if (
                self._quiet_streak >= IDLE_EPOCHS
                and self._above_baseline(s)
            ):
                return Condition.IDLE
            return Condition.HEALTHY
        # inside the hysteresis band: neither growth nor reclaim evidence
        self._quiet_streak = 0
        return Condition.HEALTHY

    def _skewed(self, s: ControlSignals) -> bool:
        if s.groups_total == 0 or s.num_shards >= self.max_shards:
            return False
        if s.groups_max < SKEW_MIN_GROUPS:
            return False
        mean = s.groups_total / s.num_shards
        return s.groups_max >= SKEW_FACTOR * mean

    def _above_baseline(self, s: ControlSignals) -> bool:
        return (
            s.num_shards > self.baseline["shards"]
            or s.admission_rate > self.baseline["admission_rate"]
            or s.admission_burst > self.baseline["admission_burst"]
            or s.max_staleness != self.baseline["max_staleness"]
        )

    # ------------------------------------------------------------------
    def _plan(
        self, condition: Condition, s: ControlSignals
    ) -> List[Tuple[str, float, str]]:
        """Raw (knob, target, reason) proposals, at most one per knob."""
        proposals: List[Tuple[str, float, str]] = []
        if condition is Condition.DEGRADED_READS:
            if s.max_staleness > self.policy.staleness_bound:
                proposals.append((
                    "max_staleness",
                    float(self.policy.staleness_bound),
                    "narrow degraded reads to the staleness SLO while "
                    f"{s.breakers_open} breaker(s) are open",
                ))
        elif condition is Condition.OVERLOAD:
            if s.saturated_delta == 0 and s.depth_ratio < HIGH_WATER:
                # rate-limited shedding with queue headroom: open the door
                proposals.append((
                    "admission_rate",
                    max(s.admission_rate, 1.0) * ADMISSION_GROWTH,
                    f"{s.rejections_delta} rejection(s) this epoch with "
                    "queue headroom: raise the token refill rate",
                ))
                proposals.append((
                    "admission_burst",
                    max(s.admission_burst, 1.0) * ADMISSION_GROWTH,
                    "raise the burst capacity alongside the refill rate",
                ))
            else:
                # queues are genuinely full: more capacity, not more load
                proposals.append((
                    "shards",
                    float(s.num_shards + 1),
                    "queue-saturated shedding: add a shard",
                ))
        elif condition in (Condition.UNDER_PROVISIONED, Condition.HOT_SKEW):
            why = (
                f"inbox depth at {s.depth_ratio:.2f} of bound"
                if condition is Condition.UNDER_PROVISIONED
                else f"hottest shard owns {s.groups_max} of "
                f"{s.groups_total} groups"
            )
            proposals.append((
                "shards", float(s.num_shards + 1), f"{why}: add a shard"
            ))
        elif condition is Condition.IDLE:
            proposals.extend(self._relax(s))
        return proposals

    def _relax(self, s: ControlSignals) -> List[Tuple[str, float, str]]:
        """Step every grown knob back toward the static baseline."""
        reason = f"{self._quiet_streak} quiet epoch(s): reclaim capacity"
        out: List[Tuple[str, float, str]] = []
        if s.num_shards > self.baseline["shards"]:
            out.append(("shards", float(s.num_shards - 1), reason))
        if s.admission_rate > self.baseline["admission_rate"]:
            out.append((
                "admission_rate",
                max(self.baseline["admission_rate"],
                    s.admission_rate / ADMISSION_GROWTH),
                reason,
            ))
        if s.admission_burst > self.baseline["admission_burst"]:
            out.append((
                "admission_burst",
                max(self.baseline["admission_burst"],
                    s.admission_burst / ADMISSION_GROWTH),
                reason,
            ))
        if (
            s.max_staleness != self.baseline["max_staleness"]
            and s.breakers_open == 0
        ):
            out.append((
                "max_staleness",
                self.baseline["max_staleness"],
                "no breakers open: restore the configured staleness bound",
            ))
        return out

    # ------------------------------------------------------------------
    def _decide(
        self,
        knob: str,
        target: float,
        reason: str,
        condition: Condition,
        s: ControlSignals,
    ) -> Optional[ControlDecision]:
        """Clamp + no-op filter for one proposal."""
        value, clamped = self.clamp(knob, target)
        current = self._current(knob, s)
        if value == current:
            return None
        return ControlDecision(
            epoch=s.epoch,
            condition=condition.value,
            knob=knob,
            old=current,
            new=value,
            reason=reason,
            clamped=clamped,
        )

    def clamp(self, knob: str, value: float) -> Tuple[float, bool]:
        """``(clamped value, True when the raw value crossed a bound)``."""
        lo, hi = (1, self.max_shards) if knob == "shards" else LIMITS[knob]
        clamped = min(max(value, lo), hi)
        return clamped, clamped != value

    @staticmethod
    def _current(knob: str, s: ControlSignals) -> float:
        return {
            "shards": float(s.num_shards),
            "admission_rate": s.admission_rate,
            "admission_burst": s.admission_burst,
            "max_staleness": float(s.max_staleness),
        }[knob]


class RuntimeController:
    """The side-effecting half: collect signals, apply clamped decisions.

    Attach one to a harness with
    :meth:`~repro.serve.harness.ServeHarness.attach_controller`; the
    harness then calls :meth:`review` inside every ``submit`` (within the
    epoch's activated trace scope, so decision points join the causal
    tree).  All knob moves happen between batches on the caller thread —
    the engine's quiet point — so no locking is needed beyond what the
    knobs themselves provide.
    """

    def __init__(self, harness, policy: Optional[SLOPolicy] = None):
        self.harness = harness
        self.policy = policy or SLOPolicy()
        self.baseline = self._knobs()
        self.engine = DecisionEngine(self.policy, self.baseline)
        self.audit: Deque[ControlDecision] = deque(maxlen=AUDIT_CAPACITY)
        self.frozen = False
        self.freeze_reason: Optional[str] = None
        self.decisions_total = 0
        self.condition_counts: Dict[str, int] = {}
        self.last_condition = Condition.HEALTHY.value
        self._prev_levels: Dict[str, int] = {}

    def _knobs(self) -> Dict[str, float]:
        """Current value of every knob in :data:`KNOBS`."""
        h = self.harness
        return {
            "shards": float(h.engine.num_shards),
            "admission_rate": h.admission.bucket.rate,
            "admission_burst": h.admission.bucket.capacity,
            "max_staleness": float(h.supervisor.config.max_staleness),
        }

    # ------------------------------------------------------------------
    # the per-epoch loop
    # ------------------------------------------------------------------
    def review(self, result) -> List[ControlDecision]:
        """Run one observe → diagnose → remediate pass for ``result``.

        Returns the decisions applied this epoch (empty while frozen).
        """
        if self.frozen:
            return []
        signals = self.collect(result.epoch)
        condition, decisions = self.engine.step(signals)
        self.last_condition = condition.value
        self.condition_counts[condition.value] = (
            self.condition_counts.get(condition.value, 0) + 1
        )
        return [self._apply(decision) for decision in decisions]

    def collect(self, epoch: int) -> ControlSignals:
        """Build this epoch's :class:`ControlSignals`.

        Every number is read straight off the components the controller
        holds (deltas against controller-held previous levels); telemetry,
        when attached, observes the same components through the harness's
        ``record_serve_*`` calls but is never read back.
        """
        h = self.harness
        knobs = self._knobs()
        groups = [
            len(sources) for sources in h.engine.sources_owned().values()
        ]
        rejected, _ = h.admission.tally()
        levels = {
            "rejections": rejected,
            "saturated": h.admission.rejection_counts().get(
                "queue-saturated", 0
            ),
        }
        delta = {
            key: level - self._prev_levels.get(key, 0)
            for key, level in levels.items()
        }
        supervisor = h.supervisor.stats()
        sessions = h.sessions.by_state()
        signals = ControlSignals(
            epoch=epoch,
            num_shards=h.engine.num_shards,
            queue_bound=h.admission.queue_bound,
            depth_max=max(
                (shard.depth for shard in h.engine.shards), default=0
            ),
            groups_max=max(groups, default=0),
            groups_total=sum(groups),
            rejections_delta=delta["rejections"],
            saturated_delta=delta["saturated"],
            breakers_open=sum(
                1 for breaker in supervisor["breakers"].values()
                if breaker["state"] != "closed"
            ),
            degraded_sessions=sessions.get("degraded", 0),
            staleness_served=h.staleness_high_water(),
            admission_rate=knobs["admission_rate"],
            admission_burst=knobs["admission_burst"],
            max_staleness=int(knobs["max_staleness"]),
        )
        self._prev_levels = levels
        h.reset_staleness_high_water()
        return signals

    # ------------------------------------------------------------------
    # applying decisions
    # ------------------------------------------------------------------
    def _apply(self, decision: ControlDecision) -> ControlDecision:
        """Push one decision onto the live system, audit it, trace it."""
        h = self.harness
        if decision.knob == "shards":
            h.rescale_shards(int(decision.new))
        elif decision.knob == "admission_rate":
            h.admission.retune(registration_rate=decision.new)
        elif decision.knob == "admission_burst":
            h.admission.retune(registration_burst=decision.new)
        elif decision.knob == "max_staleness":
            h.supervisor.config.max_staleness = int(decision.new)
        else:  # pragma: no cover - guarded by KNOBS everywhere
            raise ControlError(f"unknown knob {decision.knob!r}")
        trace_id = None
        if h.telemetry is not None:
            context = h.telemetry.tracer.current_context()
            trace_id = context.trace_id if context is not None else None
            h.telemetry.point(
                "controller.decision",
                epoch=decision.epoch,
                condition=decision.condition,
                knob=decision.knob,
                old=decision.old,
                new=decision.new,
                reason=decision.reason,
                clamped=decision.clamped,
            )
        decision = dataclasses.replace(decision, trace_id=trace_id)
        self.audit.append(decision)
        self.decisions_total += 1
        return decision

    # ------------------------------------------------------------------
    # kill switch
    # ------------------------------------------------------------------
    def freeze(self, reason: str = "operator") -> List[ControlDecision]:
        """Revert every knob to the static baseline and stop deciding.

        Returns the revert decisions (tagged ``frozen`` in the audit log).
        Idempotent; :meth:`thaw` re-enables the loop without touching
        knobs.
        """
        if self.frozen:
            return []
        epoch = self.harness.engine.epoch
        reverts: List[ControlDecision] = []
        current = self._knobs()
        for knob in KNOBS:
            target = self.baseline[knob]
            if target == current[knob]:
                continue
            if knob in ("admission_rate", "admission_burst") and target <= 0:
                # a non-refilling baseline bucket cannot be restored via
                # the validated retune surface; leave the knob as-is
                continue
            reverts.append(self._apply(ControlDecision(
                epoch=epoch,
                condition=Condition.FROZEN.value,
                knob=knob,
                old=current[knob],
                new=target,
                reason=f"kill switch ({reason}): revert to static config",
            )))
        self.frozen = True
        self.freeze_reason = reason
        return reverts

    def thaw(self) -> None:
        """Re-enable the decision loop after a freeze."""
        self.frozen = False
        self.freeze_reason = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Point-in-time summary for ``ServeHarness.stats()`` and the CLI."""
        return {
            "frozen": self.frozen,
            "freeze_reason": self.freeze_reason,
            "decisions_total": self.decisions_total,
            "last_condition": self.last_condition,
            "conditions": dict(self.condition_counts),
            "knobs": self._knobs(),
            "baseline": dict(self.baseline),
            "audit_size": len(self.audit),
        }

    def __repr__(self) -> str:
        return (
            f"RuntimeController(decisions={self.decisions_total}, "
            f"frozen={self.frozen}, last={self.last_condition})"
        )
