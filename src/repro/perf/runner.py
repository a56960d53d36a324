"""Parallel, crash-resilient benchmark-suite runner.

The evaluation measures 16 workload profiles x 4 schemes; serially that
is by far the longest part of a full reproduction run.  Profiles are
independent, so this runner fans :func:`repro.metrics.overhead.measure_program`
out across worker processes -- one process *per attempt*, not a shared
pool, so a worker that crashes, wedges, or leaks poisons only its own
task:

- **per-task timeout**: a hung worker is terminated and the task
  counts as a ``timeout`` attempt;
- **bounded retries** with exponential backoff and deterministic
  jitter (seeded per task+attempt, so reruns pace identically);
- **quarantine**: a task that fails every attempt is recorded in the
  failure manifest instead of taking the suite down;
- **``keep_going``**: with it, the suite reports every successful
  task's results plus a manifest of the quarantined ones; without it,
  the first quarantined task raises :class:`SuiteError` (after
  terminating in-flight work).

Workers exchange only plain-data summaries (:class:`SchemeSummary` /
:class:`ProgramSummary`), never IR object graphs: a module's def-use
web is cyclic and large, so each worker regenerates its program from
the (deterministic, seeded) workload profile and sends back numbers.
``jobs=1`` without a timeout runs everything in-process, which the
tests use to check that fan-out changes wall-clock but not results.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import SCHEMES
from ..hardware.errors import ReproError
from ..metrics.overhead import BenchmarkMeasurement, measure_program, mean
from ..observability import (
    MetricsRegistry,
    Tracer,
    current_tracer,
    get_metrics,
    install_metrics,
    install_tracer,
)
from ..robustness.triage import crash_fingerprint, fingerprint_from_frames
from ..workloads.generator import generate_program
from ..workloads.profiles import get_profile, profile_names


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
        base = self.scheme("vanilla").cycles
        if base <= 0:
            return 0.0
        return self.scheme(scheme).cycles / base - 1.0

    def binary_increase(self, scheme: str) -> float:
        base = self.scheme("vanilla").binary_bytes
        if base <= 0:
            return 0.0
        return self.scheme(scheme).binary_bytes / base - 1.0


@dataclass(frozen=True)
class TaskFailure:
    """One task's terminal failure record (for the failure manifest).

    ``status`` is the *last* attempt's failure mode: ``error`` (the
    worker raised), ``crash`` (the worker process died without
    reporting), or ``timeout`` (the worker was terminated at the
    per-task deadline).
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

    def mean_runtime_overhead(self, scheme: str) -> float:
        return mean(
            program.runtime_overhead(scheme) for program in self.programs.values()
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

    Returns ``(summary, telemetry)``: the telemetry dict carries the
    attempt's metrics snapshot and (when the suite traces) its span
    events.  A **fresh** local tracer and metrics registry are
    installed for the attempt and restored afterwards -- forked workers
    inherit the parent's globals and inline (``jobs=1``) workers *are*
    the parent process, so recording into the inherited objects would
    double-count once the parent merges the returned telemetry.
    """
    name, schemes, seed, interpreter, cache_dir = task[:5]
    trace = bool(task[5]) if len(task) > 5 else False
    registry = MetricsRegistry()
    previous_metrics = install_metrics(registry)
    previous_tracer = install_tracer(Tracer(f"task:{name}")) if trace else None
    try:
        tracer = current_tracer()
        start = time.perf_counter()
        with tracer.span(f"task:{name}", "suite"):
            program = generate_program(get_profile(name))
            measurement = measure_program(
                program,
                schemes=schemes,
                seed=seed,
                interpreter=interpreter,
                cache_dir=cache_dir,
            )
        summary = summarize_measurement(measurement, time.perf_counter() - start)
        telemetry = {
            "metrics": registry.snapshot(),
            "events": list(tracer.events) if trace else [],
        }
        return summary, telemetry
    finally:
        install_metrics(previous_metrics)
        if previous_tracer is not None:
            install_tracer(previous_tracer)


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
    take the in-process serial path; with a ``timeout`` it still forks
    (one worker at a time) because per-task deadlines need a process to
    terminate.
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


def _child_main(conn, worker: Callable[[Any], Any], payload: Any) -> None:
    """Worker-process entry: run one attempt, report over the pipe.

    Exceptions are flattened to ``(type name, message, repro frames)``
    -- picklable, and exactly what the parent needs to build a triage
    fingerprint.  A worker that dies before sending anything (hard
    crash, ``os._exit``) is detected by the parent via its exit code.
    """
    try:
        result = worker(payload)
    except BaseException as exc:  # noqa: BLE001 - the whole point is containment
        from ..robustness.triage import repro_frames

        # Drop this harness frame so cross-process fingerprints match
        # what an in-process run of the same worker would produce.
        frames = [f for f in repro_frames(exc) if f != "_child_main"]
        try:
            conn.send(("error", type(exc).__name__, str(exc), frames))
        except (BrokenPipeError, OSError):
            pass
    else:
        try:
            conn.send(("ok", result))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


@dataclass
class _Attempt:
    """One in-flight subprocess attempt."""

    process: multiprocessing.Process
    conn: Any
    payload: Any
    attempt: int
    deadline: Optional[float]


def _failure(
    name: str,
    status: str,
    attempt: int,
    message: str,
    exc_type: str = "",
    fingerprint: str = "",
    backoff_total_s: float = 0.0,
) -> TaskFailure:
    return TaskFailure(
        name=name,
        status=status,
        attempts=attempt,
        message=message,
        exc_type=exc_type,
        fingerprint=fingerprint,
        backoff_total_s=backoff_total_s,
    )


def _run_tasks_inline(
    tasks: Sequence[Tuple[str, Any]],
    worker: Callable[[Any], Any],
    retries: int,
    keep_going: bool,
    seed: int,
    backoff_base: float,
    backoff_cap: float,
) -> Tuple[Dict[str, Any], Dict[str, TaskFailure]]:
    """Serial in-process execution (no timeout enforcement possible)."""
    results: Dict[str, Any] = {}
    failures: Dict[str, TaskFailure] = {}
    for name, payload in tasks:
        last: Optional[BaseException] = None
        waited = 0.0
        for attempt in range(1, retries + 2):
            try:
                results[name] = worker(payload)
                last = None
                break
            except Exception as exc:  # noqa: BLE001 - quarantine, don't die
                last = exc
                if attempt <= retries:
                    delay = backoff_delay(
                        seed, name, attempt, backoff_base, backoff_cap
                    )
                    waited += delay
                    time.sleep(delay)
        if last is not None:
            failures[name] = _failure(
                name,
                "error",
                retries + 1,
                f"{type(last).__name__}: {last}",
                exc_type=type(last).__name__,
                fingerprint=crash_fingerprint(last),
                backoff_total_s=waited,
            )
            if not keep_going:
                raise SuiteError(
                    f"task {name!r} failed after {retries + 1} attempt(s): "
                    f"{type(last).__name__}: {last}"
                ) from last
    return results, failures


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
    didn't ask to keep going; in-flight workers are terminated cleanly
    either way.

    Execution modes:

    - ``jobs == 1`` and no ``timeout``: in-process (fast path; a crash
      of the Python process itself is obviously not survivable);
    - otherwise: **one forked process per attempt**.  Fork (not spawn)
      so arbitrary worker callables -- including test closures -- need
      no pickling; only results cross the pipe.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    tasks = list(tasks)
    if jobs == 1 and timeout is None:
        return _run_tasks_inline(
            tasks, worker, retries, keep_going, seed, backoff_base, backoff_cap
        )

    # Import what measure_program attempts load lazily before forking,
    # so every attempt shares it copy-on-write instead of importing it.
    from ..hardware import tracec  # noqa: F401
    from . import cache  # noqa: F401

    ctx = multiprocessing.get_context("fork")
    results: Dict[str, Any] = {}
    failures: Dict[str, TaskFailure] = {}
    #: (name, payload, attempt, not-before monotonic time)
    pending: deque = deque((name, payload, 1, 0.0) for name, payload in tasks)
    running: Dict[str, _Attempt] = {}
    #: cumulative backoff slept per task, for the failure manifest
    backoff_spent: Dict[str, float] = {}

    def launch(name: str, payload: Any, attempt: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_child_main, args=(child_conn, worker, payload), daemon=True
        )
        process.start()
        child_conn.close()
        deadline = time.monotonic() + timeout if timeout is not None else None
        running[name] = _Attempt(process, parent_conn, payload, attempt, deadline)

    def reap(name: str) -> None:
        attempt = running.pop(name)
        attempt.conn.close()
        if attempt.process.is_alive():
            attempt.process.terminate()
        attempt.process.join()

    def settle(name: str, failure: TaskFailure, payload: Any, attempt: int) -> None:
        """Requeue a failed attempt or quarantine the task."""
        if attempt <= retries:
            delay = backoff_delay(seed, name, attempt, backoff_base, backoff_cap)
            backoff_spent[name] = backoff_spent.get(name, 0.0) + delay
            pending.append((name, payload, attempt + 1, time.monotonic() + delay))
            return
        failures[name] = replace(
            failure, backoff_total_s=backoff_spent.get(name, 0.0)
        )
        if not keep_going:
            for other in list(running):
                reap(other)
            pending.clear()
            raise SuiteError(
                f"task {name!r} quarantined after {attempt} attempt(s) "
                f"({failure.status}): {failure.message}"
            )

    try:
        while pending or running:
            now = time.monotonic()
            # Launch every ready task while worker slots are free.
            if pending and len(running) < jobs:
                for _ in range(len(pending)):
                    name, payload, attempt, ready = pending.popleft()
                    if ready <= now and len(running) < jobs:
                        launch(name, payload, attempt)
                    else:
                        pending.append((name, payload, attempt, ready))
                    if len(running) >= jobs:
                        break
            # Sweep the in-flight attempts.
            for name in list(running):
                attempt = running[name]
                message = None
                if attempt.conn.poll():
                    try:
                        message = attempt.conn.recv()
                    except (EOFError, OSError):
                        message = None
                if message is not None:
                    payload, number = attempt.payload, attempt.attempt
                    reap(name)
                    if message[0] == "ok":
                        results[name] = message[1]
                    else:
                        _tag, exc_type, text, frames = message
                        settle(
                            name,
                            _failure(
                                name,
                                "error",
                                number,
                                f"{exc_type}: {text}",
                                exc_type=exc_type,
                                fingerprint=fingerprint_from_frames(exc_type, frames),
                            ),
                            payload,
                            number,
                        )
                elif not attempt.process.is_alive():
                    payload, number = attempt.payload, attempt.attempt
                    code = attempt.process.exitcode
                    reap(name)
                    settle(
                        name,
                        _failure(
                            name,
                            "crash",
                            number,
                            f"worker exited with code {code} before reporting",
                        ),
                        payload,
                        number,
                    )
                elif attempt.deadline is not None and now >= attempt.deadline:
                    payload, number = attempt.payload, attempt.attempt
                    reap(name)
                    settle(
                        name,
                        _failure(
                            name,
                            "timeout",
                            number,
                            f"attempt exceeded the {timeout}s task timeout",
                        ),
                        payload,
                        number,
                    )
            if pending or running:
                time.sleep(0.005)
    finally:
        for name in list(running):
            reap(name)
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

    # Merge worker telemetry: span events into the parent tracer (one
    # coherent timeline -- fork shares the monotonic epoch) and metrics
    # snapshots into one suite-level aggregate, which is also folded
    # into the process-global registry for ``--metrics-out``.
    tracer = current_tracer()
    aggregate = MetricsRegistry()
    programs: Dict[str, ProgramSummary] = {}
    trace_events: List[Dict[str, Any]] = []
    for name in names:
        if name not in results:
            continue
        summary, telemetry = results[name]
        programs[name] = summary
        aggregate.merge_snapshot(telemetry["metrics"])
        if telemetry["events"]:
            tracer.adopt(telemetry["events"])
            trace_events.extend(telemetry["events"])
    aggregate.inc("suite.tasks_completed", len(programs))
    aggregate.inc("suite.tasks_quarantined", len(failures))
    aggregate.set_gauge("suite.jobs_effective", effective)
    snapshot = aggregate.snapshot()
    get_metrics().merge_snapshot(snapshot)

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
        metrics=snapshot,
        trace_events=trace_events,
    )
