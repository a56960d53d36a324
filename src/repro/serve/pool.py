"""Sharded persistent worker pool for the serve daemon.

The pool forks N :func:`repro.serve.worker.worker_main` processes (fork,
not spawn, matching ``perf/runner.py``: no pickling of entry points,
and a forked worker inherits the already-imported compiler) and keeps
them alive across requests -- that persistence *is* the optimization,
because each worker's :class:`~repro.serve.registry.WarmRegistry`
amortizes parse/analysis/compile across every request it ever sees.

**Sharding.**  Requests are routed by content digest
(:func:`repro.serve.protocol.shard_digest` modulo pool size), so one
module's warm state lives in exactly one worker instead of being
rebuilt N times.  A worker handles one request at a time (an asyncio
lock per worker); concurrency comes from having many workers, and
same-module bursts are collapsed upstream by the front-end's
single-flight dedup before they ever queue here.

**Containment.**  A request that outruns ``timeout`` or whose worker
dies mid-flight produces a structured error response (status code 1,
type ``WorkerTimeout``/``WorkerCrash``) -- never a wedged client -- and
the worker is terminated and respawned cold.  The blocking pipe I/O
runs on a dedicated thread pool sized to the worker count; the reader
thread polls with a deadline, so no thread is ever parked on a pipe
that will not answer.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..observability import get_event_log, get_metrics
from .protocol import CODE_INTERNAL, error_response, shard_digest
from .worker import worker_main

#: seconds between liveness/readability polls while awaiting a worker
_POLL_S = 0.02


@dataclass
class _Worker:
    """One persistent worker process and its parent-side pipe end."""

    index: int
    process: multiprocessing.Process
    conn: Any
    restarts: int = 0


class WorkerPool:
    """Fixed-size pool of persistent, digest-sharded workers."""

    def __init__(
        self,
        workers: int = 2,
        capacity: int = 32,
        cache_dir: Optional[str] = None,
        timeout: Optional[float] = 60.0,
        trace: bool = False,
        debug_ops: bool = False,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.size = workers
        self.capacity = capacity
        self.cache_dir = cache_dir
        self.timeout = timeout
        self.trace = trace
        #: allow the test-only ``_debug_crash`` op through to workers
        self.debug_ops = debug_ops
        self.restarts = 0
        self._ctx = multiprocessing.get_context("fork")
        self._workers: Dict[int, _Worker] = {}
        self._locks: Dict[int, asyncio.Lock] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Fork every worker.  Call before the event loop starts."""
        # Import what worker ops load lazily before forking, so every
        # worker shares it copy-on-write instead of importing it on its
        # first request.
        from ..attacks import scenarios  # noqa: F401
        from ..hardware import tracec  # noqa: F401
        from ..perf import cache  # noqa: F401

        self._executor = ThreadPoolExecutor(
            max_workers=self.size, thread_name_prefix="serve-pipe"
        )
        for index in range(self.size):
            self._workers[index] = self._spawn(index)
        get_metrics().set_gauge("serve.workers", self.size)

    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, index),
            kwargs={
                "capacity": self.capacity,
                "cache_dir": self.cache_dir,
                "trace": self.trace,
            },
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(index=index, process=process, conn=parent_conn)

    def _restart(self, index: int) -> None:
        worker = self._workers[index]
        worker.conn.close()
        if worker.process.is_alive():
            # SIGKILL, not SIGTERM: workers ignore termination signals
            # (shutdown is pipe-coordinated), and a stalled worker must
            # not stall its own replacement.
            worker.process.kill()
        worker.process.join()
        replacement = self._spawn(index)
        replacement.restarts = worker.restarts + 1
        self._workers[index] = replacement
        self.restarts += 1
        get_metrics().inc("serve.worker_restarts")
        get_event_log().emit(
            "worker-restart", shard=index, restarts=replacement.restarts
        )

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Shut every worker down: sentinel, join, then terminate."""
        if self._stopped:
            return
        self._stopped = True
        for worker in self._workers.values():
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + drain_timeout
        for worker in self._workers.values():
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()  # workers ignore SIGTERM by design
                worker.process.join()
            worker.conn.close()
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    # -- dispatch ----------------------------------------------------------------

    def shard_for(self, request: Dict[str, Any]) -> int:
        return int(shard_digest(request)[:16], 16) % self.size

    def _lock(self, index: int) -> asyncio.Lock:
        lock = self._locks.get(index)
        if lock is None:
            lock = self._locks[index] = asyncio.Lock()
        return lock

    def _exchange(self, index: int, request: Dict[str, Any]) -> Tuple[str, Any]:
        """Blocking send/recv with a deadline; runs on the pipe executor.

        Returns ``("ok", (response, telemetry))``, ``("timeout", None)``
        or ``("crash", exitcode)``.
        """
        worker = self._workers[index]
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        try:
            worker.conn.send(request)
        except (BrokenPipeError, OSError):
            return "crash", worker.process.exitcode
        while True:
            try:
                if worker.conn.poll(_POLL_S):
                    return "ok", worker.conn.recv()
            except (EOFError, OSError):
                return "crash", worker.process.exitcode
            if not worker.process.is_alive() and not worker.conn.poll():
                return "crash", worker.process.exitcode
            if deadline is not None and time.monotonic() >= deadline:
                return "timeout", None

    async def submit(
        self, request: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
        """Route one request to its shard; returns (response, telemetry).

        Timeout and crash yield a structured error response (and
        ``None`` telemetry) after the shard has been respawned, so the
        next request to that shard meets a healthy -- if cold -- worker.
        """
        if request.get("op") == "_debug_crash" and not self.debug_ops:
            return (
                error_response(
                    request.get("id"),
                    CODE_INTERNAL,
                    "DebugOpsDisabled",
                    "start the daemon with --debug-ops to use _debug_crash",
                ),
                None,
            )
        index = self.shard_for(request)
        loop = asyncio.get_running_loop()
        async with self._lock(index):
            outcome, payload = await loop.run_in_executor(
                self._executor, self._exchange, index, request
            )
            if outcome == "ok":
                response, telemetry = payload
                return response, telemetry
            self._restart(index)
            correlation = {
                "request_id": request.get("id"),
                "rid": request.get("rid"),
            }
            if outcome == "timeout":
                message = (
                    f"request exceeded the {self.timeout}s worker timeout; "
                    f"shard {index} was restarted (registry is cold)"
                )
                error_type = "WorkerTimeout"
                get_metrics().inc("serve.worker_timeouts")
                get_event_log().emit(
                    "worker-timeout",
                    shard=index,
                    op=request.get("op"),
                    timeout_s=self.timeout,
                    **correlation,
                )
            else:
                message = (
                    f"worker shard {index} exited with code {payload} "
                    "before responding; it was restarted (registry is cold)"
                )
                error_type = "WorkerCrash"
                get_metrics().inc("serve.worker_crashes")
                get_event_log().emit(
                    "worker-crash",
                    shard=index,
                    op=request.get("op"),
                    exitcode=payload,
                    **correlation,
                )
            return (
                error_response(
                    request.get("id"), CODE_INTERNAL, error_type, message
                ),
                None,
            )
