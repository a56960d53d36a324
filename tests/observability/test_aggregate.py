"""Rolling-window aggregation: buckets, sketches, windows, the dashboard."""

from __future__ import annotations

import json

import pytest

from repro.observability import (
    QuantileSketch,
    WindowAggregator,
    bucket_index,
    percentile_from_buckets,
    render_dashboard,
)
from repro.observability.metrics import BUCKET_BASE, ZERO_BUCKET, bucket_value


class TestBuckets:
    def test_zero_and_negative_share_the_sentinel(self):
        assert bucket_index(0.0) == ZERO_BUCKET
        assert bucket_index(-3.0) == ZERO_BUCKET
        assert bucket_value(ZERO_BUCKET) == 0.0

    def test_representative_value_lands_in_its_bucket(self):
        for value in (1e-9, 0.003, 1.0, 17.2, 3600.0):
            index = bucket_index(value)
            assert bucket_index(bucket_value(index)) == index

    def test_relative_error_is_bounded_by_half_a_bucket(self):
        for value in (0.0001, 0.37, 42.0):
            approx = bucket_value(bucket_index(value))
            ratio = approx / value
            assert 1 / BUCKET_BASE <= ratio <= BUCKET_BASE

    def test_percentile_accepts_string_keys(self):
        # JSON round-trips dict keys to strings.
        buckets = {bucket_index(0.010): 99, bucket_index(1.0): 1}
        via_json = json.loads(json.dumps(buckets))
        assert percentile_from_buckets(via_json, 50.0) == pytest.approx(
            0.010, rel=0.10
        )
        assert percentile_from_buckets(via_json, 100.0) == pytest.approx(
            1.0, rel=0.10
        )

    def test_percentile_of_empty_is_zero(self):
        assert percentile_from_buckets({}, 99.0) == 0.0


class TestQuantileSketch:
    def test_quantiles_track_the_distribution(self):
        sketch = QuantileSketch()
        for ms in range(1, 101):
            sketch.add(ms / 1000.0)
        assert sketch.count == 100
        assert sketch.quantile(50.0) == pytest.approx(0.050, rel=0.10)
        assert sketch.quantile(99.0) == pytest.approx(0.099, rel=0.10)

    def test_edges_are_exact(self):
        sketch = QuantileSketch()
        for value in (0.013, 0.5, 2.75):
            sketch.add(value)
        assert sketch.quantile(0.0) == 0.013
        assert sketch.quantile(100.0) == 2.75
        # interior estimates are clamped to the true extremes
        assert 0.013 <= sketch.quantile(99.0) <= 2.75

    def test_merge_equals_single_sketch(self):
        left, right, union = QuantileSketch(), QuantileSketch(), QuantileSketch()
        for value in (0.001, 0.01, 0.1):
            left.add(value)
            union.add(value)
        for value in (1.0, 10.0):
            right.add(value)
            union.add(value)
        left.merge(right)
        assert left.buckets == union.buckets
        assert left.count == union.count
        assert left.summary() == union.summary()

    def test_empty_summary_is_all_zero(self):
        assert QuantileSketch().summary() == {
            "count": 0,
            "mean": 0.0,
            "p50": 0.0,
            "p90": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }


class TestWindowAggregator:
    def test_counters_expire_as_the_window_slides(self):
        window = WindowAggregator(window_s=10.0, buckets=10)
        window.inc("requests", 5, now=100.0)
        counters, _, _ = window.totals(now=105.0)
        assert counters["requests"] == 5
        counters, _, _ = window.totals(now=120.0)
        assert counters.get("requests", 0) == 0

    def test_horizon_restricts_the_read(self):
        window = WindowAggregator(window_s=60.0, buckets=12)
        window.inc("requests", now=100.0)  # old
        window.inc("requests", now=130.0)  # recent
        counters, _, _ = window.totals(now=131.0)
        assert counters["requests"] == 2
        counters, _, _ = window.totals(horizon_s=10.0, now=131.0)
        assert counters["requests"] == 1

    def test_observations_merge_across_slices(self):
        window = WindowAggregator(window_s=60.0, buckets=12)
        window.observe("latency", 0.010, now=100.0)
        window.observe("latency", 0.020, now=110.0)
        _, sketches, _ = window.totals(now=111.0)
        assert sketches["latency"].count == 2

    def test_stale_slices_are_pruned_on_write(self):
        window = WindowAggregator(window_s=10.0, buckets=5)
        window.inc("requests", now=100.0)
        window.inc("requests", now=500.0)
        assert len(window._slices) == 1

    def test_summary_shape_and_rates(self):
        window = WindowAggregator(window_s=10.0, buckets=10)
        window.started_at = 90.0
        for _ in range(20):
            window.inc("requests", now=100.0)
        window.observe("latency", 0.05, now=100.0)
        summary = window.summary(now=100.0)
        assert summary["counters"]["requests"] == 20
        assert summary["rates"]["requests"] == pytest.approx(2.0)
        assert summary["quantiles"]["latency"]["count"] == 1
        assert json.loads(json.dumps(summary)) == summary

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            WindowAggregator(window_s=0.0)
        with pytest.raises(ValueError):
            WindowAggregator(window_s=10.0, buckets=0)


class TestDashboard:
    STATS = {
        "endpoint": "/tmp/serve.sock",
        "uptime_s": 12.0,
        "workers": 2,
        "worker_restarts": 1,
        "inflight": 0,
        "window": {
            "window_s": 60.0,
            "counters": {
                "requests": 100,
                "errors": 5,
                "coalesced": 3,
                "traps": 2,
                "traps.pythia": 2,
            },
            "rates": {"requests": 1.7},
        },
        "latency_ms": {"run": {"count": 90, "p50": 4.0, "p90": 9.0, "p99": 20.0}},
        "events": {"emitted": 7, "buffered": 7, "dropped": 0},
    }

    def test_renders_every_section(self):
        text = "\n".join(render_dashboard(self.STATS))
        assert "2 worker(s), 1 restart(s)" in text
        assert "1.7 req/s" in text
        assert "errors   5.0%" in text
        assert "run" in text and "20.0" in text
        assert "traps/scheme: pythia=2" in text
        assert "events: 7 emitted, 7 buffered, 0 dropped" in text

    def test_tolerates_a_bare_stats_payload(self):
        # Older daemons (or `stats` before any traffic) omit the
        # enriched keys entirely.
        lines = render_dashboard({"endpoint": "x", "workers": 0})
        assert any("repro serve @ x" in line for line in lines)
