#!/usr/bin/env python3
"""Serve-daemon latency: warm registry vs cold single-shot CLI.

Boots ``python -m repro serve`` as a subprocess, then measures three
things against the same nginx-shaped workload programs the load
generator uses:

1. **Cold baseline** -- wall clock of a fresh ``python -m repro run``
   subprocess (interpreter start, imports, parse, analyze, protect,
   execute), min over ``--cold-runs`` runs.  This is what every request
   costs without a daemon.
2. **Warm latency** -- per-request latency of the same program through
   an already-warm daemon worker (registry hit: no parse, no analysis,
   no re-protection, hot code caches), reported as p50/p99 over
   ``--warm-runs`` requests.  The warm-vs-cold ratio is the daemon's
   reason to exist; the run fails if it drops below
   ``--min-warm-speedup``.
3. **Saturation throughput** -- the deterministic
   :func:`~repro.workloads.nginx.build_request_mix` fired at increasing
   concurrency; the reported figure is the best requests/s observed.

Appends one entry to ``BENCH_serve.json`` (same envelope as
``BENCH_interp.json``, see :mod:`repro.perf.trajectory`), recording the
host's CPU count and Python version beside the numbers, and fails when
the mixed-load p99 rises more than ``--max-p99-regression`` above the
trajectory's previous serve entry.

Usage::

    python benchmarks/bench_serve_latency.py
    python benchmarks/bench_serve_latency.py --requests 100 \
        --warm-runs 50 --cold-runs 2 --concurrency 1 2 4   # CI smoke
"""

from __future__ import annotations

import argparse
import datetime
import os
import platform
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.serve import ServeClient, percentile, run_load, wait_for_server
from repro.perf import append_entry, check_serve_regression_file
from repro.workloads.nginx import build_request_mix, _mix_programs


def start_daemon(socket_path: str, workers: int, cache_dir: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            socket_path,
            "--workers",
            str(workers),
            "--cache-dir",
            cache_dir,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def measure_cold(source_path: str, inputs, seed: int, runs: int) -> float:
    """Min wall-clock of a fresh single-shot CLI run (seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable,
        "-m",
        "repro",
        "run",
        source_path,
        "--scheme",
        "pythia",
        "--interpreter",
        "block",
        "--seed",
        str(seed),
    ]
    for line in inputs:
        command.extend(["--input", line])
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        completed = subprocess.run(
            command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        elapsed = time.perf_counter() - start
        if completed.returncode != 0:
            raise RuntimeError(
                f"cold run failed with exit code {completed.returncode}"
            )
        best = min(best, elapsed)
    return best


def measure_warm(client: ServeClient, request: dict, runs: int):
    """Per-request latencies (seconds) of one hot request, post-warmup."""
    for _ in range(3):  # warm the shard's registry and code caches
        response = client.request(**request)
        if response.get("status") != "ok":
            raise RuntimeError(f"warmup request failed: {response}")
    latencies = []
    for _ in range(runs):
        start = time.perf_counter()
        response = client.request(**request)
        elapsed = time.perf_counter() - start
        if response.get("status") != "ok":
            raise RuntimeError(f"warm request failed: {response}")
        latencies.append(elapsed)
    return latencies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--requests", type=int, default=200,
                        help="mixed-load requests per concurrency level")
    parser.add_argument("--variants", type=int, default=3,
                        help="distinct nginx-shaped programs in the mix")
    parser.add_argument("--cold-runs", type=int, default=3)
    parser.add_argument("--warm-runs", type=int, default=100)
    parser.add_argument("--concurrency", type=int, nargs="+",
                        default=[1, 2, 4, 8],
                        help="concurrency sweep for saturation throughput")
    parser.add_argument("--min-warm-speedup", type=float, default=5.0,
                        help="fail if warm daemon requests are not at least "
                        "this many times faster than a cold CLI run")
    parser.add_argument("--max-p99-regression", type=float, default=0.10,
                        help="fail if mixed-load p99 rises more than this "
                        "fraction above the trajectory baseline (negative "
                        "disables the check)")
    parser.add_argument("--baseline", default=None,
                        help="trajectory file to gate against (defaults to --out)")
    parser.add_argument("--out", default=os.path.join(REPO_ROOT, "BENCH_serve.json"))
    args = parser.parse_args(argv)

    programs = _mix_programs(args.variants, "3s")
    program = programs[0]
    inputs = [data.decode("utf-8") for data in program.inputs]

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as workdir:
        source_path = os.path.join(workdir, f"{program.profile.name}.c")
        with open(source_path, "w", encoding="utf-8") as handle:
            handle.write(program.source)

        print(f"cold baseline: python -m repro run x{args.cold_runs} "
              f"({program.profile.name}, pythia, block tier)")
        cold_seconds = measure_cold(source_path, inputs, args.seed, args.cold_runs)
        print(f"  cold min: {cold_seconds * 1e3:.1f}ms")

        socket_path = os.path.join(workdir, "serve.sock")
        cache_dir = os.path.join(workdir, "cache")
        daemon = start_daemon(socket_path, args.workers, cache_dir)
        try:
            wait_for_server(socket_path=socket_path, deadline_s=30)

            warm_request = {
                "op": "run",
                "source": program.source,
                "name": program.profile.name,
                "scheme": "pythia",
                "seed": args.seed,
                "inputs": inputs,
                "interpreter": "block",
            }
            with ServeClient(socket_path=socket_path) as client:
                warm_latencies = measure_warm(client, warm_request, args.warm_runs)
            warm_p50 = percentile([s * 1e3 for s in warm_latencies], 50.0)
            warm_p99 = percentile([s * 1e3 for s in warm_latencies], 99.0)
            warm_speedup = cold_seconds / (warm_p50 / 1e3)
            print(f"warm daemon:   p50 {warm_p50:.2f}ms, p99 {warm_p99:.2f}ms "
                  f"over {args.warm_runs} requests "
                  f"-> {warm_speedup:.1f}x vs cold CLI")

            mix = build_request_mix(
                args.requests,
                seed=args.seed,
                variants=args.variants,
                interpreter="block",
            )
            sweep = []
            best = None
            for concurrency in args.concurrency:
                report = run_load(
                    list(mix), concurrency=concurrency, socket_path=socket_path
                )
                if report.failures:
                    raise RuntimeError(
                        f"{report.failures} failed request(s) at "
                        f"concurrency {concurrency}"
                    )
                sweep.append(
                    {
                        "concurrency": concurrency,
                        "throughput_rps": round(report.throughput_rps, 1),
                        "p50_ms": round(report.p50_ms(), 3),
                        "p99_ms": round(report.p99_ms(), 3),
                    }
                )
                if best is None or report.throughput_rps > best.throughput_rps:
                    best = report
                print(f"  load c={concurrency:2d}: "
                      f"{report.throughput_rps:8,.1f} req/s, "
                      f"p50 {report.p50_ms():6.2f}ms, "
                      f"p99 {report.p99_ms():6.2f}ms "
                      f"({report.requests} requests, 0 failed)")

            with ServeClient(socket_path=socket_path) as client:
                client.request("shutdown")
            daemon.wait(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.terminate()
                try:
                    daemon.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    daemon.kill()

    saturation = max(level["throughput_rps"] for level in sweep)
    print(f"saturation: {saturation:,.1f} req/s "
          f"(best of concurrency sweep {args.concurrency})")

    entry = {
        "label": "serve-latency",
        "date": datetime.date.today().isoformat(),
        "workers": args.workers,
        "requests": args.requests,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "serve": {
            "cold_ms": round(cold_seconds * 1e3, 3),
            "warm_p50_ms": round(warm_p50, 3),
            "warm_p99_ms": round(warm_p99, 3),
            "warm_speedup": round(warm_speedup, 2),
            # The gated figure: p99 under the mixed load at the best
            # throughput's concurrency.
            "p50_ms": best.to_dict()["p50_ms"],
            "p99_ms": best.to_dict()["p99_ms"],
            "throughput_rps": round(saturation, 1),
            "sweep": sweep,
        },
    }

    regression = None
    if args.max_p99_regression >= 0:
        regression, skip_note = check_serve_regression_file(
            args.baseline or args.out, entry, tolerance=args.max_p99_regression
        )
        if skip_note is not None:
            print(skip_note)

    append_entry(args.out, entry)
    print(f"appended trajectory entry to {args.out}")

    failed = False
    if warm_speedup < args.min_warm_speedup:
        print(f"FAIL: warm speedup {warm_speedup:.1f}x below threshold "
              f"{args.min_warm_speedup:.1f}x", file=sys.stderr)
        failed = True
    if regression is not None:
        print(f"FAIL: {regression}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
