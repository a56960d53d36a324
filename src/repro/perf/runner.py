"""Parallel, crash-resilient benchmark-suite runner.

The evaluation measures 16 workload profiles x 4 schemes; serially that
is by far the longest part of a full reproduction run.  Profiles are
independent, so this runner fans :func:`repro.metrics.overhead.measure_program`
out across worker processes -- one process *per attempt*
(:mod:`repro.perf.workers`), not a shared pool, so a worker that
crashes, wedges, or leaks poisons only its own task:

- **per-task timeout**: a hung worker is killed and the task counts as
  a ``timeout`` attempt;
- **bounded retries** with exponential backoff and deterministic
  jitter (seeded per task+attempt, so reruns pace identically);
- **quarantine**: a task that fails every attempt is recorded in the
  failure manifest instead of taking the suite down;
- **``keep_going``**: with it, the suite reports every successful
  task's results plus a manifest of the quarantined ones; without it,
  the first quarantined task raises :class:`SuiteError` (after
  killing in-flight work).

Workers exchange only plain-data summaries (:class:`SchemeSummary` /
:class:`ProgramSummary`), never IR object graphs: a module's def-use
web is cyclic and large, so each worker regenerates its program from
the (deterministic, seeded) workload profile and sends back numbers.
``jobs=1`` without a timeout runs everything in-process, which the
tests use to check that fan-out changes wall-clock but not results.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import BASELINE, SCHEMES
from ..hardware.errors import ReproError
from ..metrics.overhead import BenchmarkMeasurement, measure_program, relative
from ..observability import adopt, capture, current_tracer, get_metrics
from ..robustness.triage import fingerprint_from_frames, repro_frames
from ..workloads.generator import generate_program
from ..workloads.profiles import get_profile, profile_names
from .workers import Worker, wait_any


class SuiteError(ReproError):
    """A task exhausted its attempts and ``keep_going`` was off."""

    exit_code = 2


@dataclass(frozen=True)
class SchemeSummary:
    """Picklable digest of one scheme's protection + execution."""

    scheme: str
    status: str
    cycles: float
    instructions: int
    ipc: float
    steps: int
    wall_seconds: float
    decode_seconds: float
    interpreter: str
    pa_static: int
    pa_dynamic: int
    binary_bytes: int
    canary_count: int
    isolated_allocations: int
    cache_hit: bool = False


@dataclass(frozen=True)
class ProgramSummary:
    """Picklable digest of one benchmark across all measured schemes."""

    name: str
    schemes: Tuple[SchemeSummary, ...]
    wall_seconds: float

    def scheme(self, name: str) -> SchemeSummary:
        for summary in self.schemes:
            if summary.scheme == name:
                return summary
        raise KeyError(f"scheme {name!r} was not measured for {self.name}")

    def runtime_overhead(self, scheme: str) -> float:
        return relative(self.scheme(BASELINE).cycles, self.scheme(scheme).cycles)

    def binary_increase(self, scheme: str) -> float:
        return relative(
            self.scheme(BASELINE).binary_bytes, self.scheme(scheme).binary_bytes
        )


@dataclass(frozen=True)
class TaskFailure:
    """One task's terminal failure record (for the failure manifest).

    ``status`` is the *last* attempt's failure mode: ``error`` (the
    worker raised), ``crash`` (the worker process died without
    reporting), or ``timeout`` (the worker was killed at the per-task
    deadline).
    """

    name: str
    status: str
    attempts: int
    message: str
    exc_type: str = ""
    fingerprint: str = ""
    quarantined: bool = True
    #: total seconds spent sleeping between this task's attempts --
    #: lets the manifest distinguish "failed fast" from "burned the
    #: whole retry budget pacing out backoff"
    backoff_total_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "attempts": self.attempts,
            "message": self.message,
            "exc_type": self.exc_type,
            "fingerprint": self.fingerprint,
            "quarantined": self.quarantined,
            "backoff_total_s": round(self.backoff_total_s, 6),
        }


@dataclass
class SuiteResult:
    """All programs' summaries plus suite-level throughput numbers."""

    programs: Dict[str, ProgramSummary] = field(default_factory=dict)
    schemes: Tuple[str, ...] = ()
    #: the *requested* fan-out (what the caller asked for)
    jobs: int = 1
    #: the fan-out actually used after :func:`plan_jobs` (see
    #: ``degraded`` for why it differs from ``jobs`` when it does)
    jobs_effective: int = 1
    #: human-readable reason the fan-out was reduced, or None
    degraded: Optional[str] = None
    interpreter: Optional[str] = None
    wall_seconds: float = 0.0
    cache_dir: Optional[str] = None
    #: quarantined tasks by name (empty unless ``keep_going`` saved a
    #: partially failing run)
    failures: Dict[str, TaskFailure] = field(default_factory=dict)
    #: merged metrics snapshot (schema ``repro-metrics-v1``): every
    #: completed worker's counters/gauges/histograms folded together
    #: plus the suite-level ``suite.*`` entries.  Survives cache
    #: degradation -- the final cache.* counters land here even when
    #: the cache turned itself off mid-run.
    metrics: Optional[Dict[str, Any]] = None
    #: trace events merged from every worker (empty unless the suite
    #: ran with tracing enabled); Chrome-trace-shaped dicts with ns
    #: timestamps, exported via ``repro.observability.write_trace``
    trace_events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def quarantined(self) -> List[str]:
        """Names of the tasks that failed every attempt."""
        return sorted(self.failures)

    def failure_manifest(self) -> Dict[str, object]:
        """JSON-able digest of what completed and what was quarantined."""
        return {
            "schemes": list(self.schemes),
            "jobs": self.jobs,
            "jobs_effective": self.jobs_effective,
            "degraded": self.degraded,
            "completed": sorted(self.programs),
            "quarantined": self.quarantined,
            "failures": [
                self.failures[name].to_dict() for name in self.quarantined
            ],
            "metrics": self.metrics,
        }

    @property
    def cache_hits(self) -> int:
        """Scheme compilations served from the compilation cache."""
        return sum(
            1
            for program in self.programs.values()
            for scheme in program.schemes
            if scheme.cache_hit
        )

    @property
    def cache_misses(self) -> int:
        """Scheme compilations that had to run (and were cached)."""
        return sum(
            1
            for program in self.programs.values()
            for scheme in program.schemes
            if not scheme.cache_hit
        )

    @property
    def total_steps(self) -> int:
        return sum(
            scheme.steps
            for program in self.programs.values()
            for scheme in program.schemes
        )

    @property
    def steps_per_second(self) -> float:
        """Aggregate interpreter throughput over the suite wall-clock."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_steps / self.wall_seconds

    @property
    def decode_seconds(self) -> float:
        return sum(
            scheme.decode_seconds
            for program in self.programs.values()
            for scheme in program.schemes
        )


def summarize_measurement(
    measurement: BenchmarkMeasurement, wall_seconds: float = 0.0
) -> ProgramSummary:
    """Digest a full measurement into its picklable summary."""
    schemes = []
    for scheme, run in measurement.runs.items():
        execution = run.execution
        schemes.append(
            SchemeSummary(
                scheme=scheme,
                status=execution.status,
                cycles=execution.cycles,
                instructions=execution.instructions,
                ipc=execution.ipc,
                steps=execution.steps,
                wall_seconds=execution.wall_seconds,
                decode_seconds=execution.decode_seconds,
                interpreter=execution.interpreter,
                pa_static=run.protection.pa_static,
                pa_dynamic=execution.pa_dynamic,
                binary_bytes=run.protection.binary_bytes,
                canary_count=run.protection.canary_count,
                isolated_allocations=execution.isolated_allocations,
                cache_hit=run.cache_hit,
            )
        )
    return ProgramSummary(
        name=measurement.name, schemes=tuple(schemes), wall_seconds=wall_seconds
    )


def _measure_one(task: Tuple) -> Tuple[ProgramSummary, Dict[str, Any]]:
    """Worker entry point: regenerate one benchmark and measure it.

    Module-level (and tuple-argumented) so it pickles under the default
    process-pool start methods.

    Returns ``(summary, telemetry)``: the attempt runs under a fresh
    :class:`~repro.observability.capture` (with a tracer when the suite
    traces), and ``telemetry`` is its snapshot -- metrics, span events
    and security events -- for the parent to
    :func:`~repro.observability.adopt`.
    """
    name, schemes, seed, interpreter, cache_dir = task[:5]
    trace = bool(task[5]) if len(task) > 5 else False
    with capture(trace) as telemetry:
        start = time.perf_counter()
        with current_tracer().span(f"task:{name}", "suite"):
            program = generate_program(get_profile(name))
            measurement = measure_program(
                program,
                schemes=schemes,
                seed=seed,
                interpreter=interpreter,
                cache_dir=cache_dir,
            )
        summary = summarize_measurement(measurement, time.perf_counter() - start)
    return summary, telemetry.snapshot()


def plan_jobs(
    jobs: int, n_tasks: int, timeout: Optional[float] = None
) -> Tuple[int, Optional[str]]:
    """Clamp a requested fan-out to what can actually run in parallel.

    Forked workers only pay off when they overlap on real CPUs: on a
    single-CPU host (or with more jobs than CPUs) the fork/pipe overhead
    is pure loss -- measured at ~40% extra wall-clock for ``jobs=2`` on
    one CPU.  Returns ``(effective_jobs, reason)`` where ``reason`` is
    ``None`` when nothing was reduced, else a human-readable sentence
    recorded in the suite's failure manifest.

    ``effective_jobs == 1`` with no ``timeout`` makes :func:`run_tasks`
    run attempts in-process; with a ``timeout`` it still forks (one
    worker at a time) because per-task deadlines need a process to
    kill.
    """
    effective = min(jobs, n_tasks) if n_tasks else jobs
    if effective <= 1:
        if jobs > 1:
            return effective, (
                f"requested {jobs} job(s) for {n_tasks} task(s); "
                "nothing to overlap"
            )
        return effective, None
    cpus = os.cpu_count() or 1
    if effective > cpus:
        clamped = max(1, cpus)
        return clamped, (
            f"requested {jobs} job(s) for {n_tasks} task(s) on {cpus} "
            f"CPU(s); degraded to {clamped} to avoid fork overhead "
            "without parallelism"
        )
    return effective, None


# -- the crash-resilient task engine --------------------------------------------


def backoff_delay(
    seed: int, name: str, attempt: int, base: float, cap: float
) -> float:
    """Exponential backoff with deterministic jitter.

    The jitter factor (0.5x-1.0x of the exponential step) comes from a
    string-seeded RNG over ``(seed, task, attempt)``, so two runs of
    the same suite pace their retries identically -- chaos runs stay
    reproducible down to the scheduling.

    The exponent is clamped before exponentiation: by attempt 64 the
    step has saturated any realistic ``cap`` anyway, and an unclamped
    ``2.0 ** attempt`` raises ``OverflowError`` past attempt ~1024.
    """
    import random

    step = min(cap, base * (2.0 ** min(attempt - 1, 63)))
    return step * (0.5 + 0.5 * random.Random(f"{seed}:{name}:{attempt}").random())


def _run_attempt(worker: Callable[[Any], Any], payload: Any) -> Tuple:
    """Run one attempt in this process and return its outcome.

    ``("ok", result)``, or ``("error", type name, message, repro
    frames)`` when the worker raised -- picklable, so a forked attempt
    sends this same tuple over its pipe, and exactly what the parent
    needs to build a triage fingerprint.
    """
    try:
        return "ok", worker(payload)
    except Exception as exc:  # noqa: BLE001 - quarantine, don't die
        # Drop this harness frame so the fingerprint names the worker.
        frames = [f for f in repro_frames(exc) if f != "_run_attempt"]
        return "error", type(exc).__name__, str(exc), frames


def _child_main(conn, worker: Callable[[Any], Any], payload: Any) -> None:
    """Forked-attempt entry: run the attempt, send its outcome.

    A child that dies before sending (hard crash, ``os._exit``) is
    classified by the parent from its exit code.
    """
    try:
        conn.send(_run_attempt(worker, payload))
    except (BrokenPipeError, OSError):
        pass
    finally:
        conn.close()


@dataclass
class _Attempt:
    """One in-flight forked attempt."""

    worker: Worker
    payload: Any
    number: int
    deadline: Optional[float]


def _failure(
    name: str,
    number: int,
    outcome: Tuple,
    timeout: Optional[float],
    backoff_total_s: float,
) -> TaskFailure:
    """The failure record of an attempt whose outcome is not ``ok``."""
    status, exc_type, fingerprint = outcome[0], "", ""
    if status == "error":
        _status, exc_type, text, frames = outcome
        message = f"{exc_type}: {text}"
        fingerprint = fingerprint_from_frames(exc_type, frames)
    elif status == "crash":
        message = f"worker exited with code {outcome[1]} before reporting"
    else:
        message = f"attempt exceeded the {timeout}s task timeout"
    return TaskFailure(
        name=name,
        status=status,
        attempts=number,
        message=message,
        exc_type=exc_type,
        fingerprint=fingerprint,
        backoff_total_s=backoff_total_s,
    )


def run_tasks(
    tasks: Sequence[Tuple[str, Any]],
    worker: Callable[[Any], Any],
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    keep_going: bool = False,
    seed: int = 0,
    backoff_base: float = 0.25,
    backoff_cap: float = 8.0,
) -> Tuple[Dict[str, Any], Dict[str, TaskFailure]]:
    """Run named tasks through ``worker`` with containment guarantees.

    Returns ``(results, failures)``: results by task name for every
    attempt that succeeded, and a :class:`TaskFailure` per quarantined
    task.  With ``keep_going=False`` (the default) the first
    quarantined task raises :class:`SuiteError` instead -- but other
    tasks' completed results are still lost only for the caller that
    didn't ask to keep going; in-flight workers are killed either way.

    One retry loop serves two kinds of attempt, which report the same
    outcome tuple:

    - ``jobs == 1`` and no ``timeout``: in-process (fast path; a crash
      of the Python process itself is obviously not survivable);
    - otherwise: **one forked process per attempt**
      (:class:`repro.perf.workers.Worker`).  Fork (not spawn) so
      arbitrary worker callables -- including test closures -- need no
      pickling; only results cross the pipe.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    forked = jobs > 1 or timeout is not None
    if forked:
        # Import what measure_program attempts load lazily before
        # forking, so every attempt shares it copy-on-write instead of
        # importing it.
        from ..core.framework import preload_passes
        from ..hardware import tracec  # noqa: F401
        from . import cache  # noqa: F401

        preload_passes()

    results: Dict[str, Any] = {}
    failures: Dict[str, TaskFailure] = {}
    #: (name, payload, attempt number, not-before monotonic time)
    pending: deque = deque((name, payload, 1, 0.0) for name, payload in tasks)
    running: Dict[str, _Attempt] = {}
    #: cumulative backoff slept per task, for the failure manifest
    backoff_spent: Dict[str, float] = {}

    def settle(name: str, payload: Any, number: int, outcome: Tuple) -> None:
        """Record a result, requeue a failed attempt, or quarantine."""
        if outcome[0] == "ok":
            results[name] = outcome[1]
            return
        if number <= retries:
            delay = backoff_delay(seed, name, number, backoff_base, backoff_cap)
            backoff_spent[name] = backoff_spent.get(name, 0.0) + delay
            pending.append((name, payload, number + 1, time.monotonic() + delay))
            return
        failure = _failure(
            name, number, outcome, timeout, backoff_spent.get(name, 0.0)
        )
        failures[name] = failure
        if not keep_going:
            raise SuiteError(
                f"task {name!r} quarantined after {number} attempt(s) "
                f"({failure.status}): {failure.message}"
            )

    try:
        while pending or running:
            # Start every ready task while a slot is free.
            now = time.monotonic()
            for _ in range(len(pending)):
                if len(running) >= jobs:
                    break
                name, payload, number, not_before = pending.popleft()
                if not_before > now:
                    pending.append((name, payload, number, not_before))
                elif forked:
                    deadline = now + timeout if timeout is not None else None
                    running[name] = _Attempt(
                        Worker(_child_main, worker, payload), payload, number, deadline
                    )
                else:
                    settle(name, payload, number, _run_attempt(worker, payload))
            # Sleep until a reply, an exit, a deadline, or a backoff ends.
            wake = [a.deadline for a in running.values() if a.deadline is not None]
            if pending and len(running) < jobs:
                wake.append(min(entry[3] for entry in pending))
            until = min(wake) if wake else None
            if not running:
                if until is not None:
                    time.sleep(max(0.0, until - time.monotonic()))
                continue
            ready = wait_any([attempt.worker for attempt in running.values()], until)
            now = time.monotonic()
            for name, attempt in list(running.items()):
                if attempt.worker in ready:
                    status, value = attempt.worker.wait(attempt.deadline)
                    outcome = value if status == "ok" else (status, value)
                elif attempt.deadline is not None and now >= attempt.deadline:
                    outcome = ("timeout", None)
                else:
                    continue
                del running[name]
                attempt.worker.kill()
                settle(name, attempt.payload, attempt.number, outcome)
    finally:
        for attempt in running.values():
            attempt.worker.kill()
    return results, failures


def run_suite(
    names: Optional[Sequence[str]] = None,
    schemes: Sequence[str] = SCHEMES,
    seed: int = 2024,
    jobs: int = 1,
    interpreter: Optional[str] = None,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    keep_going: bool = False,
) -> SuiteResult:
    """Measure ``names`` (default: every profile) under ``schemes``.

    ``jobs > 1`` distributes whole benchmarks across worker processes;
    results are identical to a serial run because every worker
    regenerates its program deterministically from the profile seed.

    ``cache_dir`` enables the on-disk compilation cache (workers share
    it safely: entry writes are atomic renames, and a racing write of
    the same key lands the same content either way).

    ``timeout``/``retries``/``keep_going`` configure the resilience
    engine (:func:`run_tasks`): a benchmark whose attempts all fail is
    quarantined into ``result.failures`` when ``keep_going`` is set,
    and raises :class:`SuiteError` otherwise.

    The requested ``jobs`` is a ceiling, not a promise: it is clamped
    by :func:`plan_jobs` to the host's real parallelism (and to the
    task count), and the decision is recorded on the result
    (``jobs_effective``, ``degraded``) and in the failure manifest.
    """
    if names is None:
        names = profile_names()
    names = list(names)
    trace = current_tracer().enabled
    tasks = [
        (name, (name, tuple(schemes), seed, interpreter, cache_dir, trace))
        for name in names
    ]
    effective, degraded = plan_jobs(jobs, len(tasks), timeout)
    start = time.perf_counter()
    results, failures = run_tasks(
        tasks,
        _measure_one,
        jobs=effective,
        timeout=timeout,
        retries=retries,
        keep_going=keep_going,
        seed=seed,
    )
    wall = time.perf_counter() - start

    # Merge worker telemetry: metrics snapshots, span events (fork
    # shares the monotonic epoch, so worker timestamps land on one
    # timeline) and security events.  The suite's own capture is the
    # suite-level aggregate behind ``SuiteResult.metrics``; it is then
    # folded into the caller's telemetry for the ``--*-out`` exports.
    programs: Dict[str, ProgramSummary] = {}
    with capture() as suite:
        for name in names:
            if name not in results:
                continue
            summary, telemetry = results[name]
            programs[name] = summary
            adopt(telemetry)
        metrics = get_metrics()
        metrics.inc("suite.tasks_completed", len(programs))
        metrics.inc("suite.tasks_quarantined", len(failures))
        metrics.set_gauge("suite.jobs_effective", effective)
    telemetry = suite.snapshot()
    adopt(telemetry)

    return SuiteResult(
        programs=programs,
        schemes=tuple(schemes),
        jobs=jobs,
        jobs_effective=effective,
        degraded=degraded,
        interpreter=interpreter,
        wall_seconds=wall,
        cache_dir=cache_dir,
        failures=failures,
        metrics=telemetry["metrics"],
        trace_events=telemetry["events"],
    )
