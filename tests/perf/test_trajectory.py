"""The trajectory file and the tolerant block-regression gate."""

from __future__ import annotations

import json

import pytest

from repro.perf import (
    append_entry,
    block_throughput,
    check_block_regression,
    check_block_regression_file,
    check_serve_regression,
    check_serve_regression_file,
    load_entries,
    profile_digest,
    safe_load_entries,
    serve_p99,
    trace_throughput,
)


def entry(rate=1000.0, trace_rate=None):
    schemes = {
        "vanilla": {"block_steps_per_second": rate},
        "pythia": {"block_steps_per_second": rate * 0.8},
    }
    if trace_rate is not None:
        for name, scheme in schemes.items():
            scheme["trace_steps_per_second"] = (
                trace_rate if name == "vanilla" else trace_rate * 0.8
            )
    return {"label": "interp-throughput", "schemes": schemes}


def legacy_entry():
    """Written before the block tier existed: no block fields at all."""
    return {"label": "interp-throughput", "schemes": {"vanilla": {"speedup": 3.0}}}


class TestLoadEntries:
    def test_missing_file_is_empty(self, tmp_path):
        assert load_entries(str(tmp_path / "none.json")) == []

    def test_strict_load_raises_on_corrupt_json(self, tmp_path):
        path = tmp_path / "BENCH_interp.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_entries(str(path))

    def test_safe_load_returns_none_on_corrupt_json(self, tmp_path):
        path = tmp_path / "BENCH_interp.json"
        path.write_text("{not json")
        assert safe_load_entries(str(path)) is None

    def test_safe_load_returns_none_on_wrong_envelope(self, tmp_path):
        path = tmp_path / "BENCH_interp.json"
        path.write_text(json.dumps({"entries": "oops"}))
        assert safe_load_entries(str(path)) is None

    def test_append_still_refuses_to_clobber_corrupt_file(self, tmp_path):
        path = tmp_path / "BENCH_interp.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            append_entry(str(path), entry())
        assert path.read_text() == "{not json"  # nothing rewritten


class TestCheckBlockRegressionFile:
    def test_missing_file_skips_with_note(self, tmp_path):
        failure, note = check_block_regression_file(
            str(tmp_path / "BENCH_interp.json"), entry()
        )
        assert failure is None
        assert "no baseline, skipping" in note

    def test_empty_file_skips_with_note(self, tmp_path):
        path = tmp_path / "BENCH_interp.json"
        path.write_text(json.dumps({"entries": []}))
        failure, note = check_block_regression_file(str(path), entry())
        assert failure is None
        assert "no baseline, skipping" in note

    def test_corrupt_file_skips_with_note(self, tmp_path):
        path = tmp_path / "BENCH_interp.json"
        path.write_text("{not json")
        failure, note = check_block_regression_file(str(path), entry())
        assert failure is None
        assert "no baseline, skipping" in note

    def test_entry_without_block_fields_skips_with_note(self, tmp_path):
        path = tmp_path / "BENCH_interp.json"
        append_entry(str(path), entry())
        failure, note = check_block_regression_file(str(path), legacy_entry())
        assert failure is None
        assert "no baseline, skipping" in note

    def test_baseline_without_block_fields_skips_with_note(self, tmp_path):
        path = tmp_path / "BENCH_interp.json"
        append_entry(str(path), legacy_entry())
        failure, note = check_block_regression_file(str(path), entry())
        assert failure is None
        assert "no baseline, skipping" in note

    def test_regression_still_detected(self, tmp_path):
        path = tmp_path / "BENCH_interp.json"
        append_entry(str(path), entry(1000.0))
        failure, note = check_block_regression_file(
            str(path), entry(500.0), tolerance=0.10
        )
        assert note is None
        assert "block tier regressed" in failure

    def test_within_tolerance_passes(self, tmp_path):
        path = tmp_path / "BENCH_interp.json"
        append_entry(str(path), entry(1000.0))
        failure, note = check_block_regression_file(
            str(path), entry(950.0), tolerance=0.10
        )
        assert failure is None and note is None


def on_host(payload, cpu_count=2, python="3.11.7"):
    return dict(payload, cpu_count=cpu_count, python=python)


class TestHostKeyedGate:
    def test_same_host_drop_still_fails(self, tmp_path):
        path = tmp_path / "BENCH_interp.json"
        append_entry(str(path), on_host(entry(1000.0, trace_rate=4000.0)))
        failure, note = check_block_regression_file(
            str(path), on_host(entry(800.0, trace_rate=3200.0)), tolerance=0.10
        )
        assert note is None
        assert "block tier regressed" in failure
        assert "trace tier regressed" in failure

    def test_other_host_is_never_the_baseline(self, tmp_path):
        # a faster box's numbers, appended last, must not gate this one
        path = tmp_path / "BENCH_interp.json"
        append_entry(str(path), on_host(entry(1000.0)))
        append_entry(str(path), on_host(entry(5000.0), cpu_count=16))
        append_entry(str(path), on_host(entry(5000.0), python="3.12.1"))
        current = on_host(entry(950.0))
        assert check_block_regression_file(str(path), current) == (None, None)
        # ...and a same-host drop is measured against the same-host entry
        failure = check_block_regression(
            load_entries(str(path)), on_host(entry(800.0))
        )
        assert "vs 894 baseline" in failure

    def test_no_same_host_entry_skips_naming_the_host(self, tmp_path):
        path = tmp_path / "BENCH_interp.json"
        append_entry(str(path), on_host(entry(5000.0), cpu_count=16))
        failure, note = check_block_regression_file(
            str(path), on_host(entry(100.0))
        )
        assert failure is None
        assert "no baseline, skipping" in note
        assert "cpu_count=2" in note and "python=3.11.7" in note
        assert check_block_regression(
            load_entries(str(path)), on_host(entry(100.0))
        ) is None


class TestBlockThroughput:
    def test_geomean_over_schemes(self):
        value = block_throughput(entry(1000.0))
        assert value == pytest.approx((1000.0 * 800.0) ** 0.5)

    def test_none_without_block_fields(self):
        assert block_throughput(legacy_entry()) is None

    def test_sequence_api_still_skips_quietly(self):
        # the low-level check keeps its old contract for callers that
        # already hold entries in memory
        assert check_block_regression([legacy_entry()], entry()) is None


class TestTraceTierGate:
    def test_trace_throughput_geomean(self):
        value = trace_throughput(entry(1000.0, trace_rate=4000.0))
        assert value == pytest.approx((4000.0 * 3200.0) ** 0.5)

    def test_none_for_pre_trace_entries(self):
        # entries written before the trace tier existed never gate it
        assert trace_throughput(entry(1000.0)) is None
        assert trace_throughput(legacy_entry()) is None

    def test_trace_regression_detected(self):
        baseline = entry(1000.0, trace_rate=4000.0)
        failure = check_block_regression(
            [baseline], entry(1000.0, trace_rate=2000.0), tolerance=0.10
        )
        assert "trace tier regressed" in failure

    def test_block_and_trace_regressions_join(self):
        baseline = entry(1000.0, trace_rate=4000.0)
        failure = check_block_regression(
            [baseline], entry(500.0, trace_rate=2000.0), tolerance=0.10
        )
        assert "block tier regressed" in failure
        assert "trace tier regressed" in failure

    def test_pre_trace_baseline_skips_trace_gate_only(self):
        # new entry carries trace data but no prior entry does: the
        # trace gate skips while the block gate still fires
        failure = check_block_regression(
            [entry(1000.0)], entry(500.0, trace_rate=4000.0), tolerance=0.10
        )
        assert "block tier regressed" in failure
        assert "trace" not in failure

    def test_file_gate_covers_trace(self, tmp_path):
        path = tmp_path / "BENCH_interp.json"
        append_entry(str(path), entry(1000.0, trace_rate=4000.0))
        failure, note = check_block_regression_file(
            str(path), entry(1000.0, trace_rate=2000.0), tolerance=0.10
        )
        assert note is None
        assert "trace tier regressed" in failure


def serve_entry(p99=20.0):
    return {
        "label": "serve-latency",
        "serve": {"p50_ms": p99 / 3.0, "p99_ms": p99, "throughput_rps": 100.0},
    }


class TestServeLatencyGate:
    def test_serve_p99_extraction(self):
        assert serve_p99(serve_entry(42.5)) == 42.5
        assert serve_p99(entry()) is None  # interp entries never gate serve
        assert serve_p99({"serve": {"p99_ms": 0}}) is None
        assert serve_p99({"serve": "oops"}) is None

    def test_latency_gates_upward(self):
        baseline = serve_entry(20.0)
        # faster is never a regression
        assert check_serve_regression([baseline], serve_entry(10.0)) is None
        # within tolerance passes
        assert (
            check_serve_regression([baseline], serve_entry(21.9), tolerance=0.10)
            is None
        )
        failure = check_serve_regression(
            [baseline], serve_entry(30.0), tolerance=0.10
        )
        assert "serve p99 latency regressed" in failure

    def test_baseline_is_most_recent_serve_entry(self):
        history = [serve_entry(10.0), entry(), serve_entry(40.0)]
        # gated against 40ms (the latest serve entry), not 10ms
        assert check_serve_regression(history, serve_entry(43.0)) is None

    def test_file_gate_skips_without_baseline(self, tmp_path):
        path = str(tmp_path / "BENCH_serve.json")
        failure, note = check_serve_regression_file(path, serve_entry())
        assert failure is None and "no baseline, skipping" in note

        append_entry(path, entry())  # only non-serve entries on disk
        failure, note = check_serve_regression_file(path, serve_entry())
        assert failure is None and "no prior entry has serve fields" in note

        failure, note = check_serve_regression_file(path, entry())
        assert failure is None and "lacks serve fields" in note

    def test_file_gate_detects_regression(self, tmp_path):
        path = str(tmp_path / "BENCH_serve.json")
        append_entry(path, serve_entry(20.0))
        failure, note = check_serve_regression_file(
            path, serve_entry(30.0), tolerance=0.10
        )
        assert note is None
        assert "serve p99 latency regressed" in failure

    def test_file_gate_tolerates_corrupt_file(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text("{not json")
        failure, note = check_serve_regression_file(str(path), serve_entry())
        assert failure is None and "unreadable or corrupt" in note


class TestProfileDigest:
    def test_none_profile_digests_to_none(self):
        assert profile_digest(None) is None

    def test_equal_counts_equal_digest(self):
        counts = {"main:entry": 100, "main:loop": 5000}
        assert profile_digest(counts) == profile_digest(dict(counts))

    def test_int_float_json_round_trip_stable(self):
        # counts re-read from a --profile-out JSON file may come back
        # as floats; that must not split the compiled-region cache
        assert profile_digest({"main:loop": 5000}) == profile_digest(
            {"main:loop": 5000.0}
        )

    def test_zero_and_junk_counts_ignored(self):
        base = {"main:loop": 5000}
        noisy = {"main:loop": 5000, "main:cold": 0, "main:bad": "n/a"}
        assert profile_digest(base) == profile_digest(noisy)

    def test_different_counts_different_digest(self):
        assert profile_digest({"main:loop": 5000}) != profile_digest(
            {"main:loop": 6000}
        )
