"""Counters, gauges, and histograms with one JSON snapshot format.

A :class:`MetricsRegistry` is a process-local bag of named metrics:

- **counters** -- monotonically increasing integers (cache hits,
  executed PAC instructions, quarantined tasks);
- **gauges** -- last-written values (effective job fan-out, whether the
  compilation cache degraded to off);
- **histograms** -- running ``count/sum/min/max`` summaries of repeated
  observations (compile phase seconds, per-run wall time), plus
  log-spaced bucket counts (:func:`bucket_index`) so consumers can
  render p50/p90/p99 from the snapshot alone -- ``serve stats``,
  ``repro top``, and ``loadgen`` all read the same buckets, which is
  what keeps their percentiles one source of truth.  The bucketing
  lives here rather than beside the dashboard's sketches
  (:mod:`.aggregate`), so recording a histogram never loads the
  dashboard code.

Snapshots serialize to a single schema (:data:`METRICS_SCHEMA`) that
the CLI ``--metrics-out`` flag, the suite failure manifest, and the CI
checker all share, and snapshots from worker processes merge
associatively (counters and histogram summaries add; gauges keep the
incoming write), so a parallel suite aggregates to the same totals a
serial one records directly.

Updates are plain dict operations on the process-global registry, and
every call site sits on a compile/measure boundary rather than in an
interpreter loop, so keeping collection always-on costs nothing
measurable; "disabled" simply means the snapshot is never exported.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Tuple

#: Schema tag stamped into every snapshot (validated by the checker).
METRICS_SCHEMA = "repro-metrics-v1"

#: Geometric ratio between adjacent bucket upper bounds.  2**(1/8)
#: keeps worst-case relative error under ~4.5% (half a bucket) while a
#: nanosecond..hour range still fits in ~350 buckets.
BUCKET_BASE = 2.0 ** 0.125

_LOG_BASE = math.log(BUCKET_BASE)

#: Bucket index reserved for zero and negative values.
ZERO_BUCKET = -(10 ** 6)


def bucket_index(value: float) -> int:
    """The sketch bucket holding ``value`` (seconds, bytes, ...)."""
    if value <= 0.0:
        return ZERO_BUCKET
    return int(math.ceil(math.log(value) / _LOG_BASE - 1e-9))


def bucket_value(index: int) -> float:
    """A representative value for one bucket (geometric midpoint)."""
    if index == ZERO_BUCKET:
        return 0.0
    upper = BUCKET_BASE ** index
    return upper / math.sqrt(BUCKET_BASE)


def percentile_from_buckets(buckets: Dict[Any, int], q: float) -> float:
    """Estimate the ``q``-th percentile (0..100) from bucket counts.

    Accepts int or string bucket keys (JSON round-trips dict keys to
    strings), so it can read sketches straight out of a
    ``repro-metrics-v1`` snapshot.
    """
    total = 0
    pairs: List[Tuple[int, int]] = []
    for key, count in buckets.items():
        index = int(key)
        count = int(count)
        if count <= 0:
            continue
        pairs.append((index, count))
        total += count
    if total == 0:
        return 0.0
    pairs.sort()
    rank = max(1, math.ceil((q / 100.0) * total))
    seen = 0
    for index, count in pairs:
        seen += count
        if seen >= rank:
            return bucket_value(index)
    return bucket_value(pairs[-1][0])


class MetricsRegistry:
    """One process's named counters, gauges, and histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self):
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        #: name -> [count, total, minimum, maximum]
        self.histograms: Dict[str, list] = {}

    # -- updates -----------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        stats = self.histograms.get(name)
        if stats is None:
            self.histograms[name] = [1, value, value, value, {bucket_index(value): 1}]
            return
        stats[0] += 1
        stats[1] += value
        if value < stats[2]:
            stats[2] = value
        if value > stats[3]:
            stats[3] = value
        index = bucket_index(value)
        stats[4][index] = stats[4].get(index, 0) + 1

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The canonical JSON-able snapshot of this registry."""
        histograms = {}
        for name, (count, total, minimum, maximum, buckets) in self.histograms.items():
            histograms[name] = {
                "count": count,
                "sum": total,
                "min": minimum,
                "max": maximum,
                "mean": total / count if count else 0.0,
                "buckets": {str(index): n for index, n in sorted(buckets.items())},
            }
        return {
            "schema": METRICS_SCHEMA,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": histograms,
        }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram summaries add; gauges take the incoming
        value (the merged order is the suite's completion order, and
        gauges record "latest state" by definition).
        """
        for name, value in (snapshot.get("counters") or {}).items():
            self.inc(name, value)
        for name, value in (snapshot.get("gauges") or {}).items():
            self.set_gauge(name, value)
        for name, stats in (snapshot.get("histograms") or {}).items():
            # Pre-sketch snapshots lack "buckets"; fold what's there.
            incoming = {
                int(index): count
                for index, count in (stats.get("buckets") or {}).items()
            }
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = [
                    stats["count"],
                    stats["sum"],
                    stats["min"],
                    stats["max"],
                    incoming,
                ]
            else:
                mine[0] += stats["count"]
                mine[1] += stats["sum"]
                mine[2] = min(mine[2], stats["min"])
                mine[3] = max(mine[3], stats["max"])
                for index, count in incoming.items():
                    mine[4][index] = mine[4].get(index, 0) + count


def validate_snapshot(snapshot: Any) -> Optional[str]:
    """First problem with a metrics snapshot, or ``None`` when valid.

    Shared by the in-repo tests and ``tools/check_observability.py`` so
    the CI gate and the unit tests cannot drift apart.
    """
    if not isinstance(snapshot, dict):
        return "snapshot is not an object"
    if snapshot.get("schema") != METRICS_SCHEMA:
        return f"schema is {snapshot.get('schema')!r}, expected {METRICS_SCHEMA!r}"
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(section), dict):
            return f"{section!r} missing or not an object"
    for name, value in snapshot["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            return f"counter {name!r} is not a non-negative integer: {value!r}"
    for name, value in snapshot["gauges"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return f"gauge {name!r} is not numeric: {value!r}"
        if isinstance(value, float) and not math.isfinite(value):
            return f"gauge {name!r} is not finite: {value!r}"
    for name, stats in snapshot["histograms"].items():
        if not isinstance(stats, dict):
            return f"histogram {name!r} is not an object"
        for key in ("count", "sum", "min", "max", "mean"):
            if not isinstance(stats.get(key), (int, float)):
                return f"histogram {name!r} lacks numeric {key!r}"
        if stats["count"] < 1:
            return f"histogram {name!r} has empty count"
        if stats["min"] > stats["max"]:
            return f"histogram {name!r} has min > max"
        buckets = stats.get("buckets")
        if buckets is not None:
            if not isinstance(buckets, dict):
                return f"histogram {name!r} 'buckets' is not an object"
            for index, count in buckets.items():
                if (
                    not isinstance(count, int)
                    or isinstance(count, bool)
                    or count < 0
                ):
                    return (
                        f"histogram {name!r} bucket {index!r} is not a "
                        f"non-negative integer: {count!r}"
                    )
                try:
                    int(index)
                except (TypeError, ValueError):
                    return f"histogram {name!r} has non-integer bucket key {index!r}"
    return None


def histogram_percentiles(
    stats: Dict[str, Any], scale: float = 1.0
) -> Optional[Dict[str, float]]:
    """p50/p90/p99 of one snapshot histogram, or ``None`` without buckets.

    Estimates come from the sketch buckets but are clamped to the
    exact recorded min/max, then scaled (``1e3`` renders seconds as
    milliseconds).  Consumers that render latency tables -- ``serve
    stats``, ``repro top`` -- all go through here.
    """
    buckets = stats.get("buckets")
    if not buckets:
        return None

    def clamp(value: float) -> float:
        return min(max(value, stats["min"]), stats["max"]) * scale

    return {
        "count": stats["count"],
        "mean": stats["mean"] * scale,
        "p50": clamp(percentile_from_buckets(buckets, 50.0)),
        "p90": clamp(percentile_from_buckets(buckets, 90.0)),
        "p99": clamp(percentile_from_buckets(buckets, 99.0)),
        "max": stats["max"] * scale,
    }


def write_metrics(path: str, snapshot: Dict[str, Any]) -> None:
    """Write one snapshot as JSON at ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def publish_execution(registry: MetricsRegistry, result: Any, scheme: str = "") -> None:
    """Fold one execution's architectural counters into ``registry``.

    ``result`` is duck-typed on :class:`repro.hardware.cpu.ExecutionResult`
    so this module stays import-free of the hardware layer.
    """
    counts = result.opcode_counts
    registry.inc("exec.runs")
    registry.inc("exec.steps", result.steps)
    registry.inc("exec.instructions", result.instructions)
    registry.inc("exec.pac_sign", counts.get("pac.sign", 0))
    registry.inc("exec.pac_auth", counts.get("pac.auth", 0))
    registry.inc("exec.dfi_setdef", counts.get("dfi.setdef", 0))
    registry.inc("exec.dfi_chkdef", counts.get("dfi.chkdef", 0))
    registry.inc("exec.sec_assert", counts.get("sec.assert", 0))
    if result.status != "ok":
        registry.inc(f"exec.trap.{result.status}")
    registry.observe("exec.cycles", result.cycles)
    registry.observe("exec.wall_seconds", result.wall_seconds)
    if scheme:
        registry.inc(f"exec.scheme.{scheme}.steps", result.steps)
