"""Crash containment in the suite runner's task engine."""

import os
import signal
import time

import pytest

from repro.perf.runner import (
    SuiteError,
    SuiteResult,
    TaskFailure,
    backoff_delay,
    run_tasks,
)


def ok_worker(payload):
    return f"done-{payload}"


def boom_worker(payload):
    if payload == "bad":
        raise RuntimeError("injected failure")
    return f"done-{payload}"


def crash_worker(payload):
    if payload == "bad":
        os._exit(41)
    return f"done-{payload}"


def hang_worker(payload):
    if payload == "bad":
        time.sleep(60)
    return f"done-{payload}"


def sigterm_proof_worker(payload):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(20)
    return f"late-{payload}"


class FlakyWorker:
    """Fails the first ``failures`` attempts, then succeeds.

    Cross-process attempt counting goes through a marker directory so
    the forked attempts of one task see each other.
    """

    def __init__(self, root, failures):
        self.root = str(root)
        self.failures = failures

    def __call__(self, payload):
        marker = os.path.join(self.root, f"attempts-{payload}")
        os.makedirs(marker, exist_ok=True)
        attempt = len(os.listdir(marker)) + 1
        open(os.path.join(marker, str(attempt)), "w").close()
        if attempt <= self.failures:
            raise RuntimeError(f"attempt {attempt} fails")
        return f"recovered-{payload}"


class TestInjectedException:
    def test_other_tasks_survive_with_keep_going(self):
        results, failures = run_tasks(
            [("a", "a"), ("b", "bad"), ("c", "c")],
            boom_worker,
            jobs=2,
            timeout=30.0,
            keep_going=True,
        )
        assert results == {"a": "done-a", "c": "done-c"}
        assert set(failures) == {"b"}
        failure = failures["b"]
        assert failure.status == "error"
        assert failure.exc_type == "RuntimeError"
        assert "injected failure" in failure.message

    def test_inline_path_matches(self):
        results, failures = run_tasks(
            [("a", "a"), ("b", "bad")], boom_worker, keep_going=True
        )
        assert results == {"a": "done-a"}
        assert failures["b"].status == "error"

    def test_without_keep_going_raises_suite_error(self):
        with pytest.raises(SuiteError, match="'bad'"):
            run_tasks(
                [("bad", "bad"), ("a", "a")],
                boom_worker,
                jobs=2,
                timeout=30.0,
            )


class TestHardCrash:
    def test_dead_worker_is_contained(self):
        results, failures = run_tasks(
            [("a", "a"), ("b", "bad")],
            crash_worker,
            jobs=2,
            timeout=30.0,
            keep_going=True,
        )
        assert results == {"a": "done-a"}
        failure = failures["b"]
        assert failure.status == "crash"
        assert "41" in failure.message


class TestTimeout:
    def test_hang_is_terminated_and_others_finish(self):
        start = time.monotonic()
        results, failures = run_tasks(
            [("a", "a"), ("b", "bad"), ("c", "c")],
            hang_worker,
            jobs=3,
            timeout=1.0,
            keep_going=True,
        )
        assert time.monotonic() - start < 20
        assert results == {"a": "done-a", "c": "done-c"}
        assert failures["b"].status == "timeout"
        assert failures["b"].attempts == 1

    def test_sigterm_ignoring_worker_is_killed_at_its_deadline(self):
        start = time.monotonic()
        results, failures = run_tasks(
            [("stubborn", "stubborn")],
            sigterm_proof_worker,
            timeout=1.0,
            keep_going=True,
        )
        assert time.monotonic() - start < 5
        assert results == {}
        assert failures["stubborn"].status == "timeout"


class TestRetryAndQuarantine:
    def test_retry_recovers_a_flaky_task(self, tmp_path):
        worker = FlakyWorker(tmp_path, failures=2)
        results, failures = run_tasks(
            [("t", "t")],
            worker,
            jobs=2,
            timeout=30.0,
            retries=2,
            backoff_base=0.01,
        )
        assert results == {"t": "recovered-t"}
        assert failures == {}
        # exactly 3 attempts ran: two failures plus the success
        assert len(os.listdir(tmp_path / "attempts-t")) == 3

    def test_exhausted_retries_quarantine_with_attempt_count(self, tmp_path):
        worker = FlakyWorker(tmp_path, failures=10)
        results, failures = run_tasks(
            [("t", "t")],
            worker,
            jobs=2,
            timeout=30.0,
            retries=1,
            keep_going=True,
            backoff_base=0.01,
        )
        assert results == {}
        assert failures["t"].attempts == 2
        assert failures["t"].quarantined
        assert len(os.listdir(tmp_path / "attempts-t")) == 2


class TestBackoff:
    def test_deterministic_for_same_seed_task_attempt(self):
        args = (7, "bench", 2, 0.25, 8.0)
        assert backoff_delay(*args) == backoff_delay(*args)

    def test_stays_within_the_exponential_envelope(self):
        for attempt in range(1, 8):
            step = min(2.0, 0.25 * 2 ** (attempt - 1))
            delay = backoff_delay(7, "bench", attempt, 0.25, 2.0)
            assert 0.5 * step <= delay <= step

    def test_jitter_varies_across_tasks(self):
        assert backoff_delay(7, "a", 1, 0.25, 8.0) != backoff_delay(
            7, "b", 1, 0.25, 8.0
        )

    def test_huge_attempt_numbers_stay_capped(self):
        # 2.0 ** attempt overflows a float past attempt ~1024; the
        # clamped exponent keeps the delay finite and <= cap forever.
        for attempt in (64, 1025, 10**6):
            delay = backoff_delay(7, "bench", attempt, 0.25, 2.0)
            assert 1.0 <= delay <= 2.0

    def test_clamp_does_not_change_small_attempts(self):
        # The clamp only matters once the step has saturated the cap.
        for attempt in range(1, 12):
            assert backoff_delay(7, "x", attempt, 0.25, 8.0) == (
                backoff_delay(7, "x", attempt, 0.25, 8.0)
            )


class TestBackoffAccounting:
    def test_quarantined_task_records_total_backoff(self, tmp_path):
        worker = FlakyWorker(tmp_path, failures=10)
        _, failures = run_tasks(
            [("t", "t")],
            worker,
            jobs=2,
            timeout=30.0,
            retries=2,
            keep_going=True,
            backoff_base=0.01,
            seed=7,
        )
        failure = failures["t"]
        assert failure.attempts == 3
        # two sleeps happened (between the three attempts), and their
        # durations are exactly the deterministic backoff schedule
        expected = sum(
            backoff_delay(7, "t", attempt, 0.01, 8.0) for attempt in (1, 2)
        )
        assert failure.backoff_total_s == pytest.approx(expected)

    def test_inline_path_accounts_identically(self, tmp_path):
        worker = FlakyWorker(tmp_path, failures=10)
        _, failures = run_tasks(
            [("t", "t")],
            worker,
            jobs=1,
            retries=2,
            keep_going=True,
            backoff_base=0.01,
            seed=7,
        )
        expected = sum(
            backoff_delay(7, "t", attempt, 0.01, 8.0) for attempt in (1, 2)
        )
        assert failures["t"].backoff_total_s == pytest.approx(expected)

    def test_manifest_carries_backoff_total(self):
        failure = TaskFailure(
            name="bad",
            status="error",
            attempts=3,
            message="boom",
            backoff_total_s=0.125,
        )
        assert failure.to_dict()["backoff_total_s"] == 0.125

    def test_no_retries_means_zero_backoff(self, tmp_path):
        worker = FlakyWorker(tmp_path, failures=10)
        _, failures = run_tasks(
            [("t", "t")],
            worker,
            jobs=2,
            timeout=30.0,
            keep_going=True,
        )
        assert failures["t"].backoff_total_s == 0.0


class TestFailureManifest:
    def test_manifest_names_completed_and_quarantined(self):
        result = SuiteResult(
            programs={},
            schemes=("vanilla", "pythia"),
            jobs=2,
            failures={
                "bad": TaskFailure(
                    name="bad",
                    status="timeout",
                    attempts=3,
                    message="attempt exceeded the 1.0s task timeout",
                )
            },
        )
        manifest = result.failure_manifest()
        assert manifest["quarantined"] == ["bad"]
        assert manifest["failures"][0]["status"] == "timeout"
        assert manifest["failures"][0]["attempts"] == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            run_tasks([], ok_worker, jobs=0)
        with pytest.raises(ValueError, match="retries"):
            run_tasks([], ok_worker, retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            run_tasks([], ok_worker, timeout=0)
