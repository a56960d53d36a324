"""Rolling-window aggregation: counter rates + quantile sketches.

Two building blocks sit here:

- a **log-bucketed quantile sketch** (:class:`QuantileSketch`): values
  map to the geometric buckets of :mod:`.metrics` (ratio
  :data:`~.metrics.BUCKET_BASE` per step), so percentile estimation
  over millions of latency samples costs a small dict instead of the
  sample list.  The same bucketing backs the optional ``buckets`` field
  of ``repro-metrics-v1`` histograms, which is how ``serve stats``
  renders p50/p90/p99 from the metrics snapshot -- one source of truth
  with ``loadgen`` and ``repro top``;
- a **rolling time-window aggregator** (:class:`WindowAggregator`):
  counters and sketches sliced into fixed time buckets that expire as
  the window slides, yielding req/s, error rates, per-scheme trap
  rates, and latency percentiles over "the last N seconds" -- the live
  view ``repro top`` polls and the signal the SLO burn-rate evaluator
  (:mod:`.slo`) watches.

Stdlib-only; time is injectable (``now=``) so every behavior is
deterministic under test.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Tuple

from .metrics import bucket_index, percentile_from_buckets


class QuantileSketch:
    """Mergeable log-bucketed histogram with percentile queries."""

    __slots__ = ("buckets", "count", "total", "minimum", "maximum")

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "QuantileSketch") -> None:
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (0..100); exact min/max at the edges."""
        if self.count == 0:
            return 0.0
        if q <= 0:
            return self.minimum
        if q >= 100:
            return self.maximum
        estimate = percentile_from_buckets(self.buckets, q)
        # The sketch cannot know more than the true extremes.
        return min(max(estimate, self.minimum), self.maximum)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(50.0),
            "p90": self.quantile(90.0),
            "p99": self.quantile(99.0),
            "max": self.maximum if self.count else 0.0,
        }


class WindowAggregator:
    """Counters and sketches over a sliding time window.

    The window is ``buckets`` fixed slices of ``window_s / buckets``
    seconds each, keyed by monotonic time; recording into the current
    slice is O(1) and expiry is implicit (old slices fall out of the
    considered range at read time, and are pruned on write).  Reads
    merge the live slices, optionally restricted to a shorter horizon
    -- which is what lets the SLO evaluator compare a short burn
    window against the longer baseline window without keeping two
    aggregators in lockstep.
    """

    def __init__(self, window_s: float = 60.0, buckets: int = 12):
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        self.window_s = window_s
        self.bucket_s = window_s / buckets
        self._slices: Dict[int, Dict[str, Any]] = {}
        self.started_at = time.monotonic()

    # -- recording ---------------------------------------------------------

    def _slice(self, now: Optional[float]) -> Dict[str, Any]:
        if now is None:
            now = time.monotonic()
        key = int(now // self.bucket_s)
        current = self._slices.get(key)
        if current is None:
            current = self._slices[key] = {"counters": {}, "sketches": {}}
            horizon = key - int(self.window_s // self.bucket_s) - 1
            for stale in [k for k in self._slices if k < horizon]:
                del self._slices[stale]
        return current

    def inc(self, name: str, value: int = 1, now: Optional[float] = None) -> None:
        counters = self._slice(now)["counters"]
        counters[name] = counters.get(name, 0) + value

    def observe(self, name: str, value: float, now: Optional[float] = None) -> None:
        sketches = self._slice(now)["sketches"]
        sketch = sketches.get(name)
        if sketch is None:
            sketch = sketches[name] = QuantileSketch()
        sketch.add(value)

    # -- reads -------------------------------------------------------------

    def _live_keys(self, now: float, horizon_s: Optional[float]) -> List[int]:
        span = self.window_s if horizon_s is None else min(horizon_s, self.window_s)
        newest = int(now // self.bucket_s)
        oldest = int((now - span) // self.bucket_s)
        return [k for k in self._slices if oldest <= k <= newest]

    def totals(
        self, horizon_s: Optional[float] = None, now: Optional[float] = None
    ) -> Tuple[Dict[str, int], Dict[str, QuantileSketch], float]:
        """``(counters, sketches, elapsed_s)`` over the live window.

        ``elapsed_s`` is the effective observation span -- the window
        length capped by how long the aggregator has existed -- so
        rates computed from a young aggregator are not diluted.
        """
        if now is None:
            now = time.monotonic()
        counters: Dict[str, int] = {}
        sketches: Dict[str, QuantileSketch] = {}
        for key in self._live_keys(now, horizon_s):
            data = self._slices[key]
            for name, value in data["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for name, sketch in data["sketches"].items():
                mine = sketches.get(name)
                if mine is None:
                    mine = sketches[name] = QuantileSketch()
                mine.merge(sketch)
        span = self.window_s if horizon_s is None else min(horizon_s, self.window_s)
        elapsed = max(min(span, now - self.started_at), 1e-9)
        return counters, sketches, elapsed

    def summary(
        self, horizon_s: Optional[float] = None, now: Optional[float] = None
    ) -> Dict[str, Any]:
        """JSON-able window digest: totals, per-second rates, quantiles."""
        counters, sketches, elapsed = self.totals(horizon_s, now)
        return {
            "window_s": round(elapsed, 3),
            "counters": dict(sorted(counters.items())),
            "rates": {
                name: round(value / elapsed, 4)
                for name, value in sorted(counters.items())
            },
            "quantiles": {
                name: {
                    key: round(value, 6) for key, value in sketch.summary().items()
                }
                for name, sketch in sorted(sketches.items())
            },
        }


# -- the `repro top` dashboard -------------------------------------------------


def _rate(stats: Dict[str, Any], name: str) -> float:
    return float(((stats.get("window") or {}).get("rates") or {}).get(name, 0.0))


def render_dashboard(stats: Dict[str, Any]) -> List[str]:
    """Render one ``repro top`` frame from an enriched ``stats`` result.

    Pure formatting over the ``stats`` op's JSON -- the dashboard never
    computes its own aggregates, so it can never disagree with
    ``--metrics-out`` or ``loadgen`` (they all read the same snapshot).
    """
    lines: List[str] = []
    window = stats.get("window") or {}
    counters = window.get("counters") or {}
    requests = counters.get("requests", 0)
    errors = counters.get("errors", 0)
    error_rate = (errors / requests) if requests else 0.0
    lines.append(
        f"repro serve @ {stats.get('endpoint', '?')} -- "
        f"up {stats.get('uptime_s', 0):.0f}s, "
        f"{stats.get('workers', 0)} worker(s), "
        f"{stats.get('worker_restarts', 0)} restart(s), "
        f"{stats.get('inflight', 0)} in flight"
    )
    lines.append(
        f"window {window.get('window_s', 0):.0f}s: "
        f"{_rate(stats, 'requests'):6.1f} req/s  "
        f"errors {100 * error_rate:5.1f}%  "
        f"coalesced {counters.get('coalesced', 0)}  "
        f"traps {counters.get('traps', 0)}"
    )
    latency = stats.get("latency_ms") or {}
    if latency:
        lines.append(f"  {'op':10s} {'n':>7s} {'p50ms':>9s} {'p90ms':>9s} {'p99ms':>9s}")
        for op in sorted(latency):
            row = latency[op]
            lines.append(
                f"  {op:10s} {row.get('count', 0):7d} "
                f"{row.get('p50', 0.0):9.1f} {row.get('p90', 0.0):9.1f} "
                f"{row.get('p99', 0.0):9.1f}"
            )
    trap_rows = sorted(
        (name[len("traps."):], value)
        for name, value in counters.items()
        if name.startswith("traps.")
    )
    if trap_rows:
        rendered = "  ".join(f"{scheme}={count}" for scheme, count in trap_rows)
        lines.append(f"  traps/scheme: {rendered}")
    events = stats.get("events") or {}
    if events:
        lines.append(
            f"  events: {events.get('emitted', 0)} emitted, "
            f"{events.get('buffered', 0)} buffered, "
            f"{events.get('dropped', 0)} dropped"
        )
    return lines
