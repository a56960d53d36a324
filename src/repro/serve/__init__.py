"""Persistent compile-and-execute daemon (``python -m repro serve``).

The ROADMAP's "millions of users" scenario made concrete: a long-lived
asyncio front-end (:mod:`repro.serve.server`) accepting JSON-lines
compile/run/attack/profile requests (:mod:`repro.serve.protocol`) over
a local socket, dispatching to persistent forked workers
(:mod:`repro.serve.pool`, :mod:`repro.serve.worker`) that keep a warm
module registry (:mod:`repro.serve.registry`) -- parsed IR, shared
analysis results, per-scheme protected modules, and the interpreter
tiers' code caches -- so thousands of requests amortize one
compilation.  :mod:`repro.serve.client` and :mod:`repro.serve.loadgen`
drive it; ``benchmarks/bench_serve_latency.py`` measures it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "client": ("ServeClient", "ServeClientError", "wait_for_server"),
        "loadgen": ("LoadReport", "RequestRecord", "percentile", "run_load"),
        "pool": ("WorkerPool",),
        "protocol": (
            "PROTOCOL",
            "classify_exception",
            "error_response",
            "ok_response",
            "request_key",
            "shard_digest",
            "validate_request",
        ),
        "registry": ("RegistryStats", "WarmRegistry", "source_digest"),
        "server": ("ReproServer", "ServeSocketError"),
    },
)

__all__ = [
    "LoadReport",
    "PROTOCOL",
    "RegistryStats",
    "ReproServer",
    "RequestRecord",
    "ServeClient",
    "ServeClientError",
    "ServeSocketError",
    "WarmRegistry",
    "WorkerPool",
    "classify_exception",
    "error_response",
    "ok_response",
    "percentile",
    "request_key",
    "run_load",
    "shard_digest",
    "source_digest",
    "validate_request",
    "wait_for_server",
]
