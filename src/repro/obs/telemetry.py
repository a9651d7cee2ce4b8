"""The :class:`Telemetry` facade and the process-wide default instance.

One ``Telemetry`` object bundles the three primitives — a
:class:`~repro.obs.metrics.MetricsRegistry`, a bounded
:class:`~repro.obs.events.EventLog` and a
:class:`~repro.obs.spans.SpanTracer` wired to both — plus the export
surface (JSONL events, JSON metrics snapshot, Prometheus text).

Telemetry is **opt-in**: engines and pipelines carry ``telemetry=None`` by
default and skip every instrumentation branch, so the disabled cost is one
``is None`` test per batch.  Enabling is either explicit (pass an instance)
or ambient: :func:`set_global_telemetry` / the :func:`use_telemetry`
context manager install a process-wide default that newly constructed
engines pick up — which is how ``repro query --telemetry`` instruments
engines built deep inside the experiment harness without threading a
parameter through every call site.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import Callable, Dict, Iterator, Optional

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import Span, SpanTracer
from repro.obs.tracing import TraceContext

#: filenames written by :meth:`Telemetry.export_dir`
EVENTS_FILENAME = "events.jsonl"
METRICS_FILENAME = "metrics.json"
PROMETHEUS_FILENAME = "metrics.prom"
#: subdirectory export_dir flushes pending flight-recorder bundles into
FLIGHT_DIRNAME = "flight"

#: schema tag stamped into every metrics.json export
METRICS_SCHEMA_VERSION = 1


class Telemetry:
    """Registry + event log + tracer + flight recorder, one export surface."""

    def __init__(
        self,
        event_capacity: int = 65_536,
        clock: Callable[[], float] = time.perf_counter,
        flight_capacity: int = 512,
    ) -> None:
        self.registry = MetricsRegistry()
        self.events = EventLog(capacity=event_capacity)
        # drop volume is a metric, not just a one-time warning; labelled
        # per ring so child-side IPC drops (ring="ipc", merged back with
        # a worker label) stay attributable instead of aggregated away
        self.events.drop_counter = self.registry.counter(
            "obs.events.dropped", {"ring": "events"}
        )
        # the flight recorder taps every event — even ones the bounded
        # log drops — into per-thread rings for post-mortem bundles
        self.flight = FlightRecorder(capacity_per_thread=flight_capacity)
        self.events.tap = self.flight.record
        self.tracer = SpanTracer(self.events, registry=self.registry, clock=clock)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: object) -> Span:
        return self.tracer.span(name, **attributes)

    def activate(self, context: Optional[TraceContext]):
        """Adopt a cross-thread trace context (see ``SpanTracer.activate``)."""
        return self.tracer.activate(context)

    def counter(self, name: str, labels=None):
        return self.registry.counter(name, labels)

    def gauge(self, name: str, labels=None):
        return self.registry.gauge(name, labels)

    def histogram(self, name: str, labels=None, buckets=None):
        return self.registry.histogram(name, labels, buckets=buckets)

    def point(self, name: str, **fields: object) -> None:
        """Record a point (non-span) event at the current clock reading.

        When a span is open on this thread (or a cross-thread context is
        activated) the point is stamped with its ``trace_id``/``parent_id``
        so it lands inside the right causal tree.
        """
        context = self.tracer.current_context()
        if context is not None:
            fields.setdefault("trace_id", context.trace_id)
            if context.parent_span_id is not None:
                fields.setdefault("parent_id", context.parent_span_id)
        self.events.emit("point", name, ts=self.tracer.clock(), **fields)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        return self.registry.snapshot()

    def metrics_document(self) -> Dict[str, object]:
        """The metrics.json payload: schema tag + snapshot + event stats."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "events": {"recorded": len(self.events), "dropped": self.events.dropped},
            "metrics": self.snapshot().as_dict(),
        }

    def export_dir(self, directory: str) -> Dict[str, str]:
        """Write events.jsonl + metrics.json + metrics.prom into a directory.

        Returns ``{kind: path}`` for reporting to the user.
        """
        os.makedirs(directory, exist_ok=True)
        paths = {
            "events": os.path.join(directory, EVENTS_FILENAME),
            "metrics": os.path.join(directory, METRICS_FILENAME),
            "prometheus": os.path.join(directory, PROMETHEUS_FILENAME),
        }
        self.events.export_jsonl(paths["events"])
        with open(paths["metrics"], "w") as handle:
            json.dump(self.metrics_document(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        with open(paths["prometheus"], "w") as handle:
            handle.write(self.registry.to_prometheus())
        # flight bundles dumped before a directory was known land here too
        pending = [b for b in self.flight.bundles if b["path"] is None]
        if pending:
            flight_dir = os.path.join(directory, FLIGHT_DIRNAME)
            written = self.flight.flush(flight_dir)
            if written:
                paths["flight"] = flight_dir
        return paths


# ----------------------------------------------------------------------
# ambient default
# ----------------------------------------------------------------------
_GLOBAL: Optional[Telemetry] = None


def get_global_telemetry() -> Optional[Telemetry]:
    """The process-wide default telemetry (None when disabled)."""
    return _GLOBAL


def set_global_telemetry(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install (or clear, with None) the process default; returns the old."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = telemetry
    return previous


@contextlib.contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Scoped installation of the process default (restores on exit)."""
    previous = set_global_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_global_telemetry(previous)
