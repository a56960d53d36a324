"""Unified tracing, metrics, events, and profiling (`repro.observability`).

One subsystem replaces the repo's bespoke reporting paths:

- :mod:`repro.observability.trace` -- nested spans + instants + flow
  events with a Chrome trace-event / Perfetto JSON exporter
  (``--trace-out``);
- :mod:`repro.observability.metrics` -- counters / gauges / histograms
  with one snapshot schema (``--metrics-out``, suite manifests, CI);
- :mod:`repro.observability.events` -- ring-buffered security-event
  pipeline in the ``repro-events-v1`` JSON-lines schema
  (``--events-out``, the serve daemon's ``events`` op);
- :mod:`repro.observability.aggregate` -- rolling-window counter rates
  and quantile sketches (the ``repro top`` dashboard, SLO windows);
- :mod:`repro.observability.slo` -- declarative SLO targets with
  burn-rate evaluation (``tools/check_slo.py``, ``serve --slo``);
- :mod:`repro.observability.audit` -- offline security summaries over
  exported events files (``python -m repro audit``);
- :mod:`repro.observability.profile` -- per-function / per-block
  step-and-cycle attribution over the interpreter tiers
  (``python -m repro profile``).

The module keeps one process-global tracer, one process-global metrics
registry, and one process-global event log.  Tracing defaults to
:data:`NULL_TRACER` (disabled, near-zero cost); metrics and event
collection are always on because their call sites sit on
compile/measure/trap boundaries, and "disabled" just means nothing is
ever exported.  Suite and serve workers record each task under
:class:`capture` and the parent folds the snapshot in with
:func:`adopt`, so parent-side merging never double-counts.

``trace``, ``metrics``, and ``events`` are imported eagerly, because
that process-global state is built from them; the names of the other
submodules are loaded lazily (see :mod:`repro._lazy`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from .._lazy import lazy_exports
from .events import (
    EVENT_TYPES,
    EVENTS_SCHEMA,
    EventLog,
    make_event,
    read_events,
    validate_event,
    write_events,
)
from .metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    bucket_index,
    histogram_percentiles,
    percentile_from_buckets,
    publish_execution,
    validate_snapshot,
    write_metrics,
)
from .trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    NullTracer,
    Tracer,
    chrome_trace,
    write_trace,
)

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "aggregate": ("QuantileSketch", "WindowAggregator", "render_dashboard"),
        "audit": ("audit_events", "render_audit"),
        "slo": (
            "SloBreach",
            "SloPolicy",
            "count_traps",
            "evaluate_report",
            "evaluate_window",
        ),
        "profile": (
            "PROFILE_SCHEMA",
            "ExecutionProfiler",
            "format_report",
        ),
    },
)

__all__ = [
    "EVENT_TYPES",
    "EVENTS_SCHEMA",
    "METRICS_SCHEMA",
    "PROFILE_SCHEMA",
    "TRACE_SCHEMA",
    "EventLog",
    "ExecutionProfiler",
    "MetricsRegistry",
    "NullTracer",
    "NULL_TRACER",
    "QuantileSketch",
    "SloBreach",
    "SloPolicy",
    "Tracer",
    "WindowAggregator",
    "adopt",
    "audit_events",
    "bucket_index",
    "capture",
    "chrome_trace",
    "count_traps",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "evaluate_report",
    "evaluate_window",
    "format_report",
    "get_event_log",
    "get_metrics",
    "histogram_percentiles",
    "install_event_log",
    "install_metrics",
    "install_tracer",
    "make_event",
    "percentile_from_buckets",
    "phase_span",
    "publish_execution",
    "read_events",
    "render_audit",
    "render_dashboard",
    "reset_event_log",
    "reset_metrics",
    "validate_event",
    "validate_snapshot",
    "write_events",
    "write_metrics",
    "write_trace",
]

_tracer: "Tracer | NullTracer" = NULL_TRACER
_metrics = MetricsRegistry()


def current_tracer() -> "Tracer | NullTracer":
    """The process-global tracer (:data:`NULL_TRACER` when disabled)."""
    return _tracer


def install_tracer(tracer: "Tracer | NullTracer") -> "Tracer | NullTracer":
    """Swap in ``tracer`` globally; returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def enable_tracing(process_name: str = "repro") -> Tracer:
    """Install (and return) a fresh live tracer."""
    tracer = Tracer(process_name)
    install_tracer(tracer)
    return tracer


def disable_tracing() -> None:
    """Return to the no-op tracer."""
    install_tracer(NULL_TRACER)


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _metrics


def install_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap in ``registry`` globally; returns the previous one."""
    global _metrics
    previous = _metrics
    _metrics = registry
    return previous


def reset_metrics() -> MetricsRegistry:
    """Install (and return) an empty registry."""
    return_value = MetricsRegistry()
    install_metrics(return_value)
    return return_value


_event_log = EventLog()


def get_event_log() -> EventLog:
    """The process-global security-event log."""
    return _event_log


def install_event_log(log: EventLog) -> EventLog:
    """Swap in ``log`` globally; returns the previous one."""
    global _event_log
    previous = _event_log
    _event_log = log
    return previous


def reset_event_log() -> EventLog:
    """Install (and return) an empty event log."""
    return_value = EventLog()
    install_event_log(return_value)
    return return_value


class capture:
    """Run a block under fresh telemetry; :meth:`snapshot` ships it.

    Entering installs a new metrics registry and event log -- plus a new
    tracer when ``trace`` is on (default: when the current tracer is
    live) -- and exiting restores the previous ones.  A worker records
    into its own capture and hands the snapshot to a parent, which
    folds it in with :func:`adopt`.  Fresh instances are what prevent
    double counting: a forked worker inherits the parent's globals, and
    an in-process worker *is* the parent.
    """

    __slots__ = ("metrics", "events", "tracer", "_previous")

    def __init__(self, trace: Optional[bool] = None):
        if trace is None:
            trace = _tracer.enabled
        self.metrics = MetricsRegistry()
        self.events = EventLog()
        self.tracer = Tracer() if trace else None
        self._previous = None

    def __enter__(self) -> "capture":
        global _metrics, _event_log, _tracer
        self._previous = (_metrics, _event_log, _tracer)
        _metrics, _event_log = self.metrics, self.events
        if self.tracer is not None:
            _tracer = self.tracer
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _metrics, _event_log, _tracer
        _metrics, _event_log, _tracer = self._previous

    def snapshot(self) -> Dict[str, Any]:
        """Picklable contents: metrics snapshot, spans, security events."""
        return {
            "metrics": self.metrics.snapshot(),
            "events": list(self.tracer.events) if self.tracer is not None else [],
            "security_events": self.events.snapshot(),
        }


def adopt(telemetry: Dict[str, Any]) -> None:
    """Fold a :meth:`capture.snapshot` into the current telemetry."""
    _metrics.merge_snapshot(telemetry["metrics"])
    _tracer.adopt(telemetry["events"])
    _event_log.adopt(telemetry["security_events"])


class phase_span:
    """Time one pipeline phase into *both* a timings dict and the trace.

    The clock is read exactly once at entry and once at exit, and the
    same delta feeds ``timings[key]``, the ``compile.phase.<name>``
    histogram, and the emitted span -- which is what lets ``--timings``
    stderr output and ``--metrics-out`` JSON never disagree (they are
    two views of one measurement).  ``key`` defaults to ``name`` but
    may differ: ``PassManager.timings`` keys bare pass names while the
    span (and the metric) is named ``pass:<name>``, matching the keys
    :class:`repro.core.framework.ProtectionResult.timings` reports.
    """

    __slots__ = ("name", "timings", "key", "category", "_start")

    def __init__(
        self,
        name: str,
        timings: Optional[Dict[str, float]] = None,
        key: Optional[str] = None,
        category: str = "compile",
    ):
        self.name = name
        self.timings = timings
        self.key = key if key is not None else name
        self.category = category
        self._start = 0

    def __enter__(self) -> "phase_span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration_ns = time.perf_counter_ns() - self._start
        seconds = duration_ns / 1e9
        if self.timings is not None:
            self.timings[self.key] = self.timings.get(self.key, 0.0) + seconds
        _metrics.observe(f"compile.phase.{self.name}", seconds)
        _tracer.add_complete(self.name, self.category, self._start, duration_ns)
