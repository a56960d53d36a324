"""Self-tests of the benchmark: helpers, tiny smoke runs, oracle teeth.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import measure, oracle, workloads  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402

# -- helpers ---------------------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert measure.percentile(values, 0) == 1.0
    assert measure.percentile(values, 100) == 4.0
    assert measure.percentile(values, 50) == 2.5
    assert measure.percentile(list(range(1, 11)), 90) == pytest.approx(9.1)
    assert measure.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


def _record(kernel, start=(measure.START_REFERENCE_S,)):
    record = measure.RunRecord("unit")
    record.latencies_s = [0.1, 0.2, 0.3, 0.4]
    record.setup_s = [1.0, 3.0, 2.0]
    record.calibration_s = list(kernel)
    record.start_calibration_s = list(start)
    record.attempted = 4
    record.peak_rss_mb = 50.0
    return record


def test_calibration_scales_timings_onto_the_reference_host():
    ref = measure.KERNEL_REFERENCE_S
    at_reference = measure.end_to_end(_record([ref * 0.5, ref, ref, ref, ref * 3]))
    assert at_reference["latency_p50_ms"] == pytest.approx(250.0)
    assert at_reference["setup_s"] == pytest.approx(2.0)
    assert at_reference["throughput_per_s"] == pytest.approx(4.0)
    # The same raw timings on a host running twice as slow read twice as fast.
    slow = measure.end_to_end(_record([ref * 2] * 3))
    assert slow["latency_p50_ms"] == pytest.approx(125.0)
    assert slow["latency_p90_ms"] == pytest.approx(at_reference["latency_p90_ms"] / 2)
    assert slow["throughput_per_s"] == pytest.approx(8.0)
    assert slow["peak_rss_mb"] == 50.0
    # Set-up is scaled by interpreter start, whatever scales the ops.
    assert slow["setup_s"] == pytest.approx(2.0)
    slow_start = _record([ref], start=[measure.START_REFERENCE_S * 2])
    assert measure.end_to_end(slow_start)["setup_s"] == pytest.approx(1.0)
    assert measure.end_to_end(slow_start)["latency_p50_ms"] == pytest.approx(250.0)
    slow_start.op_calibrator = "start"
    assert measure.end_to_end(slow_start)["latency_p50_ms"] == pytest.approx(125.0)
    with pytest.raises(ValueError):
        measure.host_scale([])


def test_trimmed_mean_ignores_the_tails():
    assert measure.trimmed_mean([1.0, 2.0, 3.0, 4.0, 100.0]) == pytest.approx(3.0)
    assert measure.trimmed_mean([5.0]) == 5.0
    # Two host states: the estimate follows the share of each.
    assert measure.trimmed_mean([1.0] * 5 + [2.0] * 5) == pytest.approx(1.5)


def test_calibrate_times_the_fixed_kernel():
    assert measure.calibration_kernel(3) == measure.calibration_kernel(3)
    assert measure.calibrate() > 0


def test_failures_count_against_attempted_ops():
    record = _record([measure.KERNEL_REFERENCE_S])
    assert measure.end_to_end(record)["success_rate"] == 1.0
    record.fail("first")
    assert measure.end_to_end(record)["success_rate"] == 0.75
    assert measure.raw_summary(record)["error_rate"] == 0.25
    for index in range(20):
        record.fail(str(index))
    assert len(record.detail["failures"]) == 10
    with pytest.raises(ValueError):
        measure.success_rate(4, 5)
    with pytest.raises(ValueError):
        measure.success_rate(0, 0)


def test_span_self_time_excludes_children_and_idle_calls():
    recorder = SpanRecorder()

    def leaf():
        return 1

    def outer():
        return recorder.call("leaf", "inner", None, leaf, (), {})

    assert recorder.call("outer", "outer", None, outer, (), {}) == 1
    assert recorder.spans == []  # no open op: nothing recorded
    recorder.begin_op("op")
    recorder.call("outer", "outer", None, outer, (), {})
    recorder.end_op()
    (_, leaf_id, *_, leaf_parent), (_, outer_id, *_, outer_parent) = recorder.spans
    assert (leaf_parent, outer_parent) == (outer_id, -1)
    outer_s = recorder.spans[1][5] - recorder.spans[1][4]
    leaf_s = recorder.spans[0][5] - recorder.spans[0][4]
    assert recorder.self_s["outer"] == pytest.approx(outer_s - leaf_s)
    assert recorder.covered_s["op"] == pytest.approx(outer_s)


# -- smoke runs ------------------------------------------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    """One round over two small profiles, one set-up, in the checkout."""
    monkeypatch.setattr(workloads, "PROFILE_NAMES", ("505.mcf_r", "519.lbm_r"))
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.chdir(ROOT)
    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench-work"))
    yield work
    shutil.rmtree(work, ignore_errors=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct(tiny, name, trace):
    record = workloads.WORKLOADS[name](7, 0, trace, tiny)
    assert record.failed == 0, record.detail.get("failures")
    assert record.attempted == len(record.latencies_s) > 0
    metrics = measure.end_to_end(record)
    assert metrics["success_rate"] == 1.0
    assert all(value > 0 for value in metrics.values())
    if trace:
        assert record.layers["hardware.steps"] > 0
        assert record.layers["hardware.execute_ms"] > 0
        assert 0 < record.layers["trace.span_coverage"] <= 1.0 + 1e-9
    if name == "serve-warm":
        assert record.detail["registry_hit_ratio"] == 1.0


def test_traced_counts_repeat_for_a_seed(tiny):
    runs = []
    for name in ("first", "second"):
        work = os.path.join(tiny, name)  # a fresh compile cache per run
        os.makedirs(work)
        runs.append(workloads.compile_cold(7, 0, True, work).layers)
    first, second = runs
    for name in ("core.pa_static", "hardware.steps", "frontend.ir_instructions"):
        assert first[name] == second[name] > 0


@pytest.mark.parametrize("name", ["cli-cold", "compile-cold", "serve-warm"])
def test_corrupted_oracle_expectation_counts_as_failure(tiny, monkeypatch, name):
    real = oracle.reference_run

    def off_by_one(module, inputs, seed=oracle.CPU_SEED):
        result = real(module, inputs, seed)
        return dataclasses.replace(result, cycles=result.cycles + 1)

    monkeypatch.setattr(oracle, "reference_run", off_by_one)
    record = workloads.WORKLOADS[name](7, 0, False, tiny)
    assert record.failed > 0
    assert measure.end_to_end(record)["success_rate"] < 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
