"""Sharded persistent worker pool for the serve daemon.

The pool forks N :func:`repro.serve.worker.worker_main` processes
through :class:`repro.perf.workers.Worker` (the fork, wait, crash
classification and kill shared with the suite runner) and keeps them
alive across requests -- that persistence *is* the optimization,
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
the worker is killed and respawned cold.  The blocking pipe I/O runs
on a dedicated thread pool sized to the worker count; the reader
thread waits on the pipe and the process sentinel with a deadline, so
no thread is ever parked on a pipe that will not answer.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from ..observability import get_event_log, get_metrics
from ..perf.workers import Worker
from .protocol import CODE_INTERNAL, error_response, shard_digest
from .worker import worker_main


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
        self._workers: Dict[int, Worker] = {}
        #: respawns per shard
        self._shard_restarts: Dict[int, int] = {}
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
        from ..core.framework import preload_passes
        from ..hardware import tracec  # noqa: F401
        from ..perf import cache  # noqa: F401

        preload_passes()

        self._executor = ThreadPoolExecutor(
            max_workers=self.size, thread_name_prefix="serve-pipe"
        )
        for index in range(self.size):
            self._workers[index] = self._spawn(index)
        get_metrics().set_gauge("serve.workers", self.size)

    def _spawn(self, index: int) -> Worker:
        return Worker(
            worker_main,
            index,
            capacity=self.capacity,
            cache_dir=self.cache_dir,
            trace=self.trace,
        )

    def _restart(self, index: int) -> None:
        # Workers ignore termination signals (shutdown is
        # pipe-coordinated); the shared kill is SIGKILL, so a stalled
        # worker cannot stall its own replacement.
        self._workers[index].kill()
        self._workers[index] = self._spawn(index)
        restarts = self._shard_restarts.get(index, 0) + 1
        self._shard_restarts[index] = restarts
        self.restarts += 1
        get_metrics().inc("serve.worker_restarts")
        get_event_log().emit("worker-restart", shard=index, restarts=restarts)

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Shut every worker down: sentinel, join, then kill."""
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
            worker.kill()
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    # -- dispatch ----------------------------------------------------------------

    def shard_for(self, request: Dict[str, Any], digest: Optional[str] = None) -> int:
        """The worker for ``request``; ``digest`` is its
        :func:`shard_digest` when the caller has it."""
        if digest is None:
            digest = shard_digest(request)
        return int(digest[:16], 16) % self.size

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
        return worker.wait(deadline)

    async def submit(
        self, request: Dict[str, Any], digest: Optional[str] = None
    ) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
        """Route one request to its shard; returns (response, telemetry).
        ``digest`` is the request's :func:`shard_digest`, when known.

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
        index = self.shard_for(request, digest)
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
