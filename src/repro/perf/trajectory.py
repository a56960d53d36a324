"""Append-only performance trajectory files (``BENCH_*.json``).

Each benchmark run appends one entry so performance can be tracked
across commits -- ``BENCH_interp.json`` carries interpreter throughput,
``BENCH_serve.json`` carries the serve daemon's request latency.  A
file is a single JSON object::

    {"entries": [{"label": ..., "steps_per_second": ..., ...}, ...]}

Entries are free-form dicts; :func:`append_entry` only enforces the
envelope so unrelated tools (CI, plots) can parse the file blindly.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple


def load_entries(path: str) -> List[Dict[str, Any]]:
    """Read the trajectory entries, tolerating a missing file."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    entries = payload.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'entries' must be a list")
    return entries


def safe_load_entries(path: str) -> Optional[List[Dict[str, Any]]]:
    """Read the trajectory entries, tolerating a corrupt file too.

    Returns ``None`` when the file exists but cannot be parsed (broken
    JSON, wrong envelope shape, unreadable).  :func:`load_entries` stays
    strict on purpose: the *append* path must crash rather than quietly
    rewrite a corrupt trajectory with only the new entry.
    """
    try:
        return load_entries(path)
    except (OSError, ValueError):
        return None


def append_entry(path: str, entry: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Append ``entry`` to the trajectory file, returning all entries."""
    entries = load_entries(path)
    entries.append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"entries": entries}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return entries


def _tier_throughput(entry: Dict[str, Any], field: str) -> Optional[float]:
    """Geomean of a per-scheme steps/s field across an entry's schemes."""
    schemes = entry.get("schemes")
    if not isinstance(schemes, dict):
        return None
    rates = [
        scheme.get(field)
        for scheme in schemes.values()
        if isinstance(scheme, dict)
    ]
    rates = [rate for rate in rates if isinstance(rate, (int, float)) and rate > 0]
    if not rates:
        return None
    return math.exp(sum(math.log(rate) for rate in rates) / len(rates))


def block_throughput(entry: Dict[str, Any]) -> Optional[float]:
    """Geomean block-tier steps/s across an entry's schemes.

    Returns ``None`` for entries without block-tier data (written
    before the block interpreter existed, or by other benchmarks).
    """
    return _tier_throughput(entry, "block_steps_per_second")


def trace_throughput(entry: Dict[str, Any]) -> Optional[float]:
    """Geomean trace-tier steps/s across an entry's schemes.

    Returns ``None`` for entries without trace-tier data (written
    before the trace interpreter existed, or by other benchmarks).
    """
    return _tier_throughput(entry, "trace_steps_per_second")


#: (display name, per-entry geomean extractor) for every gated tier.
_GATED_TIERS = (
    ("block", block_throughput),
    ("trace", trace_throughput),
)


def _same_host(
    entries: Sequence[Dict[str, Any]], entry: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """The ``entries`` measured where ``entry`` was: same CPU count and Python."""
    host = (entry.get("cpu_count"), entry.get("python"))
    return [e for e in entries if (e.get("cpu_count"), e.get("python")) == host]


def check_block_regression(
    entries: Sequence[Dict[str, Any]],
    entry: Dict[str, Any],
    tolerance: float = 0.10,
) -> Optional[str]:
    """Compare ``entry``'s compiled-tier throughputs to the trajectory.

    Gates every tier in ``_GATED_TIERS`` (block and trace).  For each,
    returns a human-readable failure message when the new entry's
    geomean steps/s falls more than ``tolerance`` below the most recent
    prior entry from the same host (``cpu_count`` and ``python``)
    carrying that tier's data; tiers missing on either side are skipped,
    so entries written before a tier existed never fail its gate.
    Multiple regressions join into one message; ``None`` means no
    regression (or nothing to compare against).
    """
    entries = _same_host(entries, entry)
    failures = []
    for name, throughput in _GATED_TIERS:
        current = throughput(entry)
        if current is None:
            continue
        baseline = None
        for previous in reversed(entries):
            baseline = throughput(previous)
            if baseline is not None:
                break
        if baseline is None:
            continue
        if current < baseline * (1.0 - tolerance):
            failures.append(
                f"{name} tier regressed: {current:,.0f} steps/s vs "
                f"{baseline:,.0f} baseline ({current / baseline - 1.0:+.1%}, "
                f"tolerance -{tolerance:.0%})"
            )
    if failures:
        return "; ".join(failures)
    return None


def check_block_regression_file(
    path: str,
    entry: Dict[str, Any],
    tolerance: float = 0.10,
) -> Tuple[Optional[str], Optional[str]]:
    """Gate ``entry`` against the trajectory at ``path``, never crashing.

    Returns ``(failure, skip_note)``.  ``failure`` is the regression
    message from :func:`check_block_regression` (``None`` when the
    check passed).  When no comparison is possible -- the file is
    missing, empty, corrupt, or no entry on either side carries
    block-tier fields, prior entries from other hosts not counting --
    the check is *skipped* and ``skip_note`` says why and names the
    host; a fresh checkout or a new machine must not fail its first
    benchmark run over an absent baseline.
    """
    skip = "no baseline, skipping block-regression check"
    entries = safe_load_entries(path)
    if entries is None:
        return None, f"{skip} ({path}: unreadable or corrupt)"
    if not entries:
        return None, f"{skip} ({path}: missing or empty)"
    entries = _same_host(entries, entry)
    # Comparable when *some* tier has data on both sides; a tier absent
    # from either side (e.g. pre-trace entries) silently skips its gate
    # inside check_block_regression instead of blocking the others.
    comparable = any(
        throughput(entry) is not None
        and any(throughput(previous) is not None for previous in entries)
        for _, throughput in _GATED_TIERS
    )
    if not comparable:
        if all(throughput(entry) is None for _, throughput in _GATED_TIERS):
            return None, f"{skip} (new entry lacks block-tier fields)"
        return None, (
            f"{skip} ({path}: no prior entry from this host "
            f"(cpu_count={entry.get('cpu_count')}, "
            f"python={entry.get('python')}) has block-tier fields)"
        )
    return check_block_regression(entries, entry, tolerance), None


# -- serve-daemon latency gate (BENCH_serve.json) ------------------------------


def serve_p99(entry: Dict[str, Any]) -> Optional[float]:
    """The warm p99 request latency (ms) of one serve-trajectory entry.

    Returns ``None`` for entries without serve data (other benchmarks
    sharing the envelope, or pre-daemon history).
    """
    serve = entry.get("serve")
    if not isinstance(serve, dict):
        return None
    p99 = serve.get("p99_ms")
    if isinstance(p99, (int, float)) and p99 > 0:
        return float(p99)
    return None


def check_serve_regression(
    entries: Sequence[Dict[str, Any]],
    entry: Dict[str, Any],
    tolerance: float = 0.10,
) -> Optional[str]:
    """Compare ``entry``'s serve p99 latency to the trajectory.

    Latency gates in the opposite direction from throughput: a failure
    message is returned when the new entry's p99 rises more than
    ``tolerance`` *above* the most recent prior entry carrying serve
    data.  ``None`` means no regression (or nothing to compare).
    """
    current = serve_p99(entry)
    if current is None:
        return None
    baseline = None
    for previous in reversed(entries):
        baseline = serve_p99(previous)
        if baseline is not None:
            break
    if baseline is None:
        return None
    if current > baseline * (1.0 + tolerance):
        return (
            f"serve p99 latency regressed: {current:.2f}ms vs "
            f"{baseline:.2f}ms baseline ({current / baseline - 1.0:+.1%}, "
            f"tolerance +{tolerance:.0%})"
        )
    return None


def check_serve_regression_file(
    path: str,
    entry: Dict[str, Any],
    tolerance: float = 0.10,
) -> Tuple[Optional[str], Optional[str]]:
    """Gate ``entry`` against the serve trajectory, never crashing.

    Same contract as :func:`check_block_regression_file`: returns
    ``(failure, skip_note)``, skipping (with a reason) when the file is
    missing, corrupt, or no entry on either side carries serve fields.
    """
    skip = "no baseline, skipping serve-regression check"
    entries = safe_load_entries(path)
    if entries is None:
        return None, f"{skip} ({path}: unreadable or corrupt)"
    if not entries:
        return None, f"{skip} ({path}: missing or empty)"
    if serve_p99(entry) is None:
        return None, f"{skip} (new entry lacks serve fields)"
    if all(serve_p99(previous) is None for previous in entries):
        return None, f"{skip} ({path}: no prior entry has serve fields)"
    return check_serve_regression(entries, entry, tolerance), None
