"""Pure measurement helpers: percentiles, host calibration, metric rows.

Nothing here imports the package under test, so these helpers cost the
same on every commit and the self-tests can exercise them in isolation.

Host calibration: between ops the benchmark times fixed work that lives
outside ``src/``, so no change to the package can speed it up or slow it
down, and scales timings by ``reference / trimmed_mean(samples of this
run)``.
Two calibrators, each matched to the kind of work it scales:

- ``kernel``: a fixed pure-Python loop; scales compile-cold and
  serve-warm, whose ops are mostly Python execution (in the benchmark
  process, or in the daemon's worker on the same CPU).  Over ten
  serve-warm runs it took the spread of raw throughput from 13% to 3%.
- ``start``: a bare ``python -c pass`` child; scales cli-cold, whose ops
  are mostly process start-up and import, and every ``setup_s``.
  Against windows of cold ``repro run`` ops it left 4% variation where
  the loop left 7%.

A run's per-layer timings use the same scale as its ops.

The estimator is a trimmed mean, not a median.  The host switches
between a fast and a slow state and spends a varying share of each run
in each; a median of tightly clustered samples jumps from one state's
value to the other's, and a plain mean follows the occasional very slow
process start.  Three serve-warm runs with raw p50 within 2% of each
other had start-sample medians 13% apart; their means were 4% apart.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

#: Passes of the calibration kernel (about 3 ms per sample on the
#: reference host).
CALIBRATION_ROUNDS = 170

#: Median samples on the reference host (2-vCPU VM, CPython 3.11), in
#: seconds.  Timings are reported as if measured there.
KERNEL_REFERENCE_S = 0.003
START_REFERENCE_S = 0.045

#: Share of calibration samples dropped at each end before averaging.
TRIM = 0.2


def calibration_kernel(rounds: int = CALIBRATION_ROUNDS) -> int:
    """Fixed interpreter-bound work that allocates nothing.

    Every value stays a cached small int and the list is built once, so
    the kernel's speed does not depend on the state of the process heap
    (an allocating kernel ran up to 1.7x slower after a few compiles in
    the same process, on the same host) -- only on how fast the host is
    running Python.
    """
    data = list(range(256))
    acc = 0
    for _ in range(rounds):
        for value in data:
            acc = (acc + value * 3) & 255
            data[value] = acc ^ value
    return acc


def calibrate() -> float:
    """Seconds one calibration kernel takes on this host, right now."""
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def trimmed_mean(samples: Sequence[float], cut: float = TRIM) -> float:
    """Mean of ``samples`` without the lowest and highest ``cut`` share."""
    if not samples:
        raise ValueError("no calibration samples")
    ordered = sorted(samples)
    drop = int(len(ordered) * cut)
    return statistics.mean(ordered[drop:len(ordered) - drop])


def host_scale(samples: Sequence[float], reference: float = KERNEL_REFERENCE_S) -> float:
    """Factor that maps this run's timings onto the reference host."""
    return reference / trimmed_mean(samples)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass
class RunRecord:
    """Everything one run measured, raw (unscaled) and in seconds."""

    workload: str
    #: wall seconds of each timed op, in the order sent
    latencies_s: List[float] = field(default_factory=list)
    #: wall seconds of each repeated set-up
    setup_s: List[float] = field(default_factory=list)
    #: calibration kernel samples taken between ops
    calibration_s: List[float] = field(default_factory=list)
    #: bare interpreter start samples, taken beside every set-up (and,
    #: on cli-cold, before every op)
    start_calibration_s: List[float] = field(default_factory=list)
    #: which calibrator scales the ops: ``kernel`` or ``start``
    op_calibrator: str = "kernel"
    attempted: int = 0
    #: ops that errored, plus ops whose result differed from the oracle
    failed: int = 0
    peak_rss_mb: float = 0.0
    #: per-layer metrics of a traced run, already in their final units
    layers: Dict[str, float] = field(default_factory=dict)
    #: free-form context for the detail line (counts, oracle findings)
    detail: Dict[str, Any] = field(default_factory=dict)

    def op_scale(self) -> float:
        if self.op_calibrator == "start":
            return host_scale(self.start_calibration_s, START_REFERENCE_S)
        return host_scale(self.calibration_s)

    def setup_scale(self) -> float:
        return host_scale(self.start_calibration_s, START_REFERENCE_S)

    def fail(self, reason: str) -> None:
        """Count one failed op and keep the first few reasons."""
        self.failed += 1
        reasons = self.detail.setdefault("failures", [])
        if len(reasons) < 10:
            reasons.append(reason)


def success_rate(attempted: int, failed: int) -> float:
    """Share of attempted ops that completed and matched the oracle."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return (attempted - failed) / attempted


def end_to_end(record: RunRecord) -> Dict[str, float]:
    """The end-to-end metrics of one run, host-calibrated.

    Timing metrics are multiplied by the run's scale; throughput is
    divided by it.  Throughput counts only the timed ops' wall time, so
    calibration samples and oracle checks between ops do not dilute it.
    """
    if not record.latencies_s:
        raise ValueError("no timed ops")
    scale = record.op_scale()
    busy = sum(record.latencies_s)
    return {
        "latency_p50_ms": percentile(record.latencies_s, 50) * 1e3 * scale,
        "latency_p90_ms": percentile(record.latencies_s, 90) * 1e3 * scale,
        "throughput_per_s": len(record.latencies_s) / busy / scale,
        "peak_rss_mb": record.peak_rss_mb,
        "success_rate": success_rate(record.attempted, record.failed),
        "setup_s": statistics.median(record.setup_s) * record.setup_scale(),
    }


def raw_summary(record: RunRecord) -> Dict[str, Any]:
    """Unscaled figures and the calibration, for the detail line."""
    latencies = record.latencies_s
    p90 = percentile(latencies, 90)
    return {
        "ops": len(latencies),
        "latency_p50_ms_raw": percentile(latencies, 50) * 1e3,
        "latency_p90_ms_raw": p90 * 1e3,
        "samples_beyond_p90": sum(1 for value in latencies if value > p90),
        "throughput_per_s_raw": len(latencies) / sum(latencies),
        "setup_s_raw": list(record.setup_s),
        "op_calibrator": record.op_calibrator,
        "kernel_samples_s": list(record.calibration_s),
        "start_samples_s": list(record.start_calibration_s),
        "kernel_trimmed_mean_s": trimmed_mean(record.calibration_s or [0.0]),
        "start_trimmed_mean_s": trimmed_mean(record.start_calibration_s or [0.0]),
        "op_scale": record.op_scale(),
        "setup_scale": record.setup_scale(),
        "error_rate": record.failed / record.attempted,
    }
