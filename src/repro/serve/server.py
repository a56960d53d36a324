"""Asyncio front-end of the serve daemon.

Accepts JSON-lines requests over a Unix-domain socket (or loopback
TCP), validates them, answers ``ping``/``stats``/``shutdown`` itself,
and dispatches the deterministic ops to the sharded
:class:`~repro.serve.pool.WorkerPool` behind **single-flight dedup**:
requests whose :func:`~repro.serve.protocol.request_key` matches an
in-flight computation await that computation's future instead of
re-submitting it, so N identical concurrent compiles cost exactly one
compilation (and produce exactly one ``compile.phase.*`` span set in
the merged trace).  Each follower still gets its own response envelope
(its own ``id``), byte-identical in the body.

**Correlation.**  The front-end stamps a unique ``rid`` into every
request before dispatch and opens a ``serve:op`` span around the whole
request; for worker ops it also starts a Chrome-trace *flow* under
that span which the worker finishes inside its own span, so the merged
trace draws one arrow following the request across the fork boundary.
Worker telemetry comes back with the response -- metrics snapshots,
trace events, and security events all stamped with the same ``rid`` --
and is merged into the daemon's process-global registries.

**Aggregation.**  Every request also lands in a rolling
:class:`~repro.observability.aggregate.WindowAggregator` (requests,
errors, per-scheme traps, latency sketch) powering the enriched
``stats`` op, the ``repro top`` dashboard, and -- when a policy is
installed -- the background SLO burn-rate loop, which emits one
``slo-breach`` event per target transition into breach.

Shutdown is graceful on SIGTERM/SIGINT and on the ``shutdown`` op:
stop accepting, let in-flight requests drain (bounded by
``drain_timeout``), then stop the workers.  A socket path or TCP port
already in use raises :class:`ServeSocketError` -- exit code 3 with a
one-line diagnostic, matching the CLI's I/O taxonomy.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import signal
import socket as socket_module
import time
from typing import Any, Dict, Optional, Set, Tuple

from ..hardware.errors import ReproError
from ..observability import (
    EVENTS_SCHEMA,
    SloPolicy,
    WindowAggregator,
    adopt,
    current_tracer,
    evaluate_window,
    get_event_log,
    get_metrics,
    histogram_percentiles,
)
from .pool import WorkerPool
from .protocol import (
    CODE_BAD_REQUEST,
    PROTOCOL,
    WORKER_OPS,
    decode_line,
    encode,
    error_response,
    ok_response,
    request_key,
    shard_digest,
    validate_request,
    with_id,
)

#: Maximum request-line length (sources are a few tens of KB; 8 MiB
#: leaves room without letting one client balloon the reader buffer).
MAX_LINE_BYTES = 8 * 1024 * 1024


class ServeSocketError(ReproError):
    """The listen endpoint is unavailable (in use, unbindable)."""

    exit_code = 3


class ReproServer:
    """One daemon instance: listener, dedup map, pool, lifecycle."""

    def __init__(
        self,
        pool: WorkerPool,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        drain_timeout: float = 30.0,
        slo_policy: Optional[SloPolicy] = None,
        window_s: float = 60.0,
    ):
        if (socket_path is None) == (port is None):
            raise ValueError("pass exactly one of socket_path or port")
        self.pool = pool
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self.slo_policy = slo_policy
        self.started_at = time.monotonic()
        self.window = WindowAggregator(window_s=window_s)
        self._server: Optional[asyncio.AbstractServer] = None
        #: single-flight map: request key -> (leader future, leader rid)
        self._inflight: Dict[str, Tuple[asyncio.Future, str]] = {}
        self._active: Set[asyncio.Task] = set()
        self._connections: Set[asyncio.Task] = set()
        self._draining = False
        self._stopped = asyncio.Event()
        self._slo_task: Optional[asyncio.Task] = None
        self._burning: Set[str] = set()
        self._rid_counter = itertools.count(1)
        self.requests = 0
        self.errors = 0
        self.coalesced = 0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def endpoint(self) -> str:
        if self.socket_path is not None:
            return self.socket_path
        return f"{self.host}:{self.port}"

    def _check_unix_path(self) -> None:
        """Refuse a live socket; silently reclaim a stale one."""
        path = self.socket_path
        if path is None or not os.path.exists(path):
            return
        probe = socket_module.socket(socket_module.AF_UNIX)
        probe.settimeout(0.25)
        try:
            probe.connect(path)
        except (ConnectionRefusedError, FileNotFoundError, socket_module.timeout, OSError):
            # Nobody answers: a previous daemon died without cleanup.
            try:
                os.unlink(path)
            except OSError as exc:
                raise ServeSocketError(
                    f"cannot reclaim stale socket {path}: {exc}"
                ) from exc
            return
        finally:
            probe.close()
        raise ServeSocketError(f"socket {path} is already in use")

    async def start(self) -> None:
        if self.socket_path is not None:
            self._check_unix_path()
            try:
                self._server = await asyncio.start_unix_server(
                    self._handle_connection,
                    path=self.socket_path,
                    limit=MAX_LINE_BYTES,
                )
            except OSError as exc:
                raise ServeSocketError(
                    f"cannot bind socket {self.socket_path}: {exc}"
                ) from exc
        else:
            try:
                self._server = await asyncio.start_server(
                    self._handle_connection,
                    host=self.host,
                    port=self.port,
                    limit=MAX_LINE_BYTES,
                )
            except OSError as exc:
                raise ServeSocketError(
                    f"cannot bind {self.host}:{self.port}: {exc}"
                ) from exc

    async def serve_until_stopped(self, install_signals: bool = True) -> None:
        """Run until :meth:`initiate_shutdown` (signal or op) completes."""
        await self.start()
        loop = asyncio.get_running_loop()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.initiate_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass
        if self.slo_policy is not None:
            self._slo_task = loop.create_task(self._slo_loop())
        await self._stopped.wait()

    def initiate_shutdown(self) -> None:
        """Begin a graceful drain; idempotent, callable from handlers."""
        if self._draining:
            return
        self._draining = True
        asyncio.get_running_loop().create_task(self._shutdown())

    async def _shutdown(self) -> None:
        if self._slo_task is not None:
            self._slo_task.cancel()
            try:
                await self._slo_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = {task for task in self._active if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=self.drain_timeout)
        # Responses are out; unblock handlers parked in readline() so the
        # event loop shuts down without stray CancelledError logs.
        connections = {task for task in self._connections if not task.done()}
        for task in connections:
            task.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        self.pool.stop()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self._stopped.set()

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(
                        writer,
                        write_lock,
                        error_response(
                            None,
                            CODE_BAD_REQUEST,
                            "BadRequest",
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock)
                )
                self._active.add(task)
                task.add_done_callback(self._active.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Shutdown unparked us from readline(); finish normally so
            # the stream protocol's done-callback sees a clean task.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (
                asyncio.CancelledError,
                ConnectionResetError,
                BrokenPipeError,
                OSError,
            ):
                pass

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        response: Dict[str, Any],
    ) -> None:
        async with lock:
            try:
                writer.write(encode(response))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        start = time.perf_counter()
        metrics = get_metrics()
        try:
            request = decode_line(line)
        except ValueError as exc:
            self.errors += 1
            metrics.inc("serve.errors")
            self.window.inc("errors")
            await self._write(
                writer,
                write_lock,
                error_response(
                    None, CODE_BAD_REQUEST, "BadRequest", f"malformed request: {exc}"
                ),
            )
            return
        # The daemon-side correlation id: unique per received request,
        # stamped into the request so worker spans/events/metrics tie
        # back to this front-end span (and to the caller's own id).
        rid = f"r{next(self._rid_counter)}"
        request["rid"] = rid
        op = request.get("op", "?")
        tracer = current_tracer()
        with tracer.span(
            f"serve:{op}", "serve", rid=rid, request_id=request.get("id")
        ):
            if op in WORKER_OPS:
                # Flow start under the front-end span; the worker
                # finishes it inside its own span, joining the two
                # processes with one arrow in the exported trace.
                tracer.flow("serve:request", rid, "s", op=op)
            response = await self._dispatch(request)
        self.requests += 1
        metrics.inc("serve.requests")
        metrics.inc(f"serve.requests.{op}")
        self.window.inc("requests")
        if response.get("status") != "ok":
            self.errors += 1
            metrics.inc("serve.errors")
            self.window.inc("errors")
        latency = time.perf_counter() - start
        metrics.observe(f"serve.latency.{op}", latency)
        self.window.observe("latency", latency)
        await self._write(writer, write_lock, response)

    # -- dispatch ----------------------------------------------------------------

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        request_id = request.get("id")
        problem = validate_request(request)
        if problem is not None:
            if request.get("op") == "_debug_crash" and self.pool.debug_ops:
                return await self._submit_deduped(request)
            return error_response(request_id, CODE_BAD_REQUEST, "BadRequest", problem)
        op = request["op"]
        if self._draining and op in WORKER_OPS:
            return error_response(
                request_id, CODE_BAD_REQUEST, "Draining", "daemon is shutting down"
            )
        if op == "ping":
            return ok_response(request_id, {"pong": True, "protocol": PROTOCOL})
        if op == "stats":
            return ok_response(request_id, self._stats())
        if op == "events":
            log = get_event_log()
            return ok_response(
                request_id,
                {
                    "schema": EVENTS_SCHEMA,
                    "emitted": log.emitted,
                    "dropped": log.dropped,
                    "events": log.snapshot(request.get("limit")),
                },
            )
        if op == "shutdown":
            self.initiate_shutdown()
            return ok_response(request_id, {"stopping": True})
        return await self._submit_deduped(request)

    def _stats(self) -> Dict[str, Any]:
        log = get_event_log()
        latency_ms: Dict[str, Any] = {}
        histograms = get_metrics().snapshot()["histograms"]
        prefix = "serve.latency."
        for name, stats in histograms.items():
            if name.startswith(prefix):
                rendered = histogram_percentiles(stats, scale=1e3)
                if rendered is not None:
                    latency_ms[name[len(prefix):]] = {
                        key: round(value, 3) for key, value in rendered.items()
                    }
        return {
            "protocol": PROTOCOL,
            "endpoint": self.endpoint,
            "workers": self.pool.size,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "requests": self.requests,
            "errors": self.errors,
            "dedup_coalesced": self.coalesced,
            "worker_restarts": self.pool.restarts,
            "inflight": len(self._inflight),
            "window": self.window.summary(),
            "latency_ms": latency_ms,
            "events": {
                "emitted": log.emitted,
                "buffered": len(log.events),
                "dropped": log.dropped,
            },
            "slo": self.slo_policy.to_dict() if self.slo_policy else None,
        }

    def _adopt_telemetry(self, telemetry: Dict[str, Any]) -> None:
        """Fold one worker's per-request telemetry into the daemon."""
        adopt(telemetry)
        for record in telemetry["security_events"]:
            if record.get("type") == "trap":
                self.window.inc("traps")
                scheme = record.get("scheme")
                if scheme:
                    self.window.inc(f"traps.{scheme}")

    async def _submit_deduped(self, request: Dict[str, Any]) -> Dict[str, Any]:
        shard = shard_digest(request)
        key = request_key(request, shard)
        inflight = self._inflight.get(key)
        if inflight is not None:
            # Follower: share the leader's computation, own envelope.
            leader_future, leader_rid = inflight
            self.coalesced += 1
            get_metrics().inc("serve.dedup.coalesced")
            self.window.inc("coalesced")
            get_event_log().emit(
                "dedup-coalesce",
                request_id=request.get("id"),
                rid=request.get("rid"),
                leader_rid=leader_rid,
                op=request.get("op"),
            )
            response = await asyncio.shield(leader_future)
            return with_id(response, request.get("id"))
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = (future, str(request.get("rid")))
        try:
            response, telemetry = await self.pool.submit(request, shard)
            if telemetry is not None:
                self._adopt_telemetry(telemetry)
            future.set_result(response)
            return response
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Awaited by followers (if any); don't warn when not.
                future.exception()
            raise
        finally:
            self._inflight.pop(key, None)

    # -- SLO burn-rate loop --------------------------------------------------------

    async def _slo_loop(self) -> None:
        """Periodically compare the burn window against the baseline.

        An ``slo-breach`` event is emitted once per target *transition*
        into breach (re-armed when the target recovers), so a sustained
        burn does not flood the ring with one record per evaluation.
        """
        policy = self.slo_policy
        assert policy is not None
        interval = max(1.0, policy.burn_window_s / 3.0)
        while True:
            await asyncio.sleep(interval)
            burn = self.window.summary(horizon_s=policy.burn_window_s)
            baseline = self.window.summary()
            breaches = evaluate_window(policy, burn, baseline)
            current = {breach.target for breach in breaches}
            for breach in breaches:
                if breach.target in self._burning:
                    continue
                get_metrics().inc("serve.slo_breaches")
                get_event_log().emit("slo-breach", **breach.to_dict())
            self._burning = current
