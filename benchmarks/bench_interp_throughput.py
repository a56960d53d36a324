#!/usr/bin/env python3
"""Interpreter throughput: the four execution tiers compared.

Runs one generated benchmark under every scheme with all four CPU
backends (reference isinstance loop, pre-decoded dispatch, the
block-compiled tier, and the profile-guided trace tier), verifies
their architectural counters are bit-identical, and reports the
decoded/reference, block/decoded, and trace/decoded speedups.  The
trace tier is measured end-to-end through its profile-guided path: a
profiled block-tier warmup run supplies the per-block counts that
drive region selection.  Also times a small suite serially vs with two
worker processes to exercise the ``repro.perf`` fan-out.

Wall-clock in shared containers is noisy (same code can swing tens of
percent between batches), so each scheme is measured as *interleaved*
reference/decoded pairs and the speedup is the ratio of the per-side
minima -- the minimum estimates the noise-free cost, and interleaving
keeps slow phases from landing on one side only.

Appends one entry to ``BENCH_interp.json`` (see repro.perf.trajectory)
so throughput can be tracked across commits, and fails when the block
tier's geomean steps/s regresses more than ``--max-block-regression``
below the trajectory's previous block-tier entry.

Usage::

    python benchmarks/bench_interp_throughput.py
    python benchmarks/bench_interp_throughput.py --profile 505.mcf_r \
        --repeat 3 --min-speedup 1.0 --skip-suite   # CI smoke
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import platform
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.config import SCHEMES
from repro.core.framework import protect
from repro.hardware import CPU, decode_module, trace_compile
from repro.observability import ExecutionProfiler
from repro.perf import append_entry, check_block_regression_file, run_suite
from repro.workloads import generate_program, get_profile, profile_names

#: Architectural counters that must match between backends exactly.
COMPARED_FIELDS = (
    "status",
    "return_value",
    "cycles",
    "instructions",
    "ipc",
    "steps",
    "output",
    "pac_sign_count",
    "pac_auth_count",
    "isolated_allocations",
)


def _check_identical(name, reference, other, tier):
    for field in COMPARED_FIELDS:
        ref_value = getattr(reference, field)
        other_value = getattr(other, field)
        if ref_value != other_value:
            raise AssertionError(
                f"{name}: {field} diverged: reference={ref_value!r} "
                f"{tier}={other_value!r}"
            )
    if reference.opcode_counts != other.opcode_counts:
        raise AssertionError(f"{name}: opcode_counts diverged ({tier})")


TIERS = ("reference", "decoded", "block", "trace")


def measure_scheme(module, inputs, seed, repeat):
    """Interleaved min-of-``repeat`` timing of all four backends.

    The trace tier is exercised through its profile-guided path: a
    profiled warmup run under the block tier collects per-block
    execution counts, and those counts seed region selection.  The
    warmup and ``trace_compile`` happen before the timed loop, so the
    reported ``trace_seconds`` is pure execution (compile time is
    reported separately, like ``decode_seconds``).  The block tier is
    the same compiler with no regions selected.  Each compiled tier's
    emitted Python is also measured, in bytes per IR instruction and in
    the seconds CPython's ``compile()`` took of its compile time.
    """
    module.invalidate_derived()
    _, decode_seconds = decode_module(module)
    block_program, block_seconds = trace_compile(module, regions=False)

    profiler = ExecutionProfiler()
    CPU(module, seed=seed, interpreter="block", profiler=profiler).run(
        inputs=list(inputs)
    )
    trace_profile = profiler.block_counts()
    trace_program, trace_seconds = trace_compile(module, trace_profile)
    instructions = module.instruction_count()
    codegen = {}
    for tier, program in (("block", block_program), ("trace", trace_program)):
        source_bytes = sum(len(source) for source in program.sources.values())
        codegen[f"{tier}_source_bytes_per_inst"] = round(
            source_bytes / instructions, 1
        )
        codegen[f"{tier}_python_compile_seconds"] = round(
            program.python_compile_seconds, 6
        )

    best = {tier: math.inf for tier in TIERS}
    results = {}
    for _ in range(repeat):
        for interpreter in TIERS:
            cpu = CPU(
                module,
                seed=seed,
                interpreter=interpreter,
                trace_profile=trace_profile if interpreter == "trace" else None,
            )
            start = time.perf_counter()
            result = cpu.run(inputs=list(inputs))
            elapsed = time.perf_counter() - start
            best[interpreter] = min(best[interpreter], elapsed)
            results[interpreter] = result
    return best, results, decode_seconds, block_seconds, trace_seconds, codegen


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="502.gcc_r", choices=profile_names())
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--out", default=os.path.join(REPO_ROOT, "BENCH_interp.json")
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail if the geomean decoded/reference speedup falls below this",
    )
    parser.add_argument(
        "--min-block-speedup",
        type=float,
        default=1.8,
        help="fail if the geomean block/decoded speedup falls below this",
    )
    parser.add_argument(
        "--min-trace-speedup",
        type=float,
        default=2.5,
        help="fail if the geomean trace/decoded speedup falls below this "
        "(measured ~3.2-3.4x on 502.gcc_r; the floor sits below the "
        "shared-runner noise band, like the block tier's 1.8 vs ~2.3)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="trajectory file to check block-tier regression against "
        "(defaults to --out)",
    )
    parser.add_argument(
        "--max-block-regression",
        type=float,
        default=0.10,
        help="fail if block-tier steps/s drops more than this fraction "
        "below the baseline trajectory's last block entry (negative "
        "disables the check)",
    )
    parser.add_argument(
        "--suite-size",
        type=int,
        default=6,
        help="profiles in the serial-vs-parallel suite comparison",
    )
    parser.add_argument(
        "--skip-suite",
        action="store_true",
        help="skip the serial-vs-parallel suite timing",
    )
    args = parser.parse_args(argv)

    program = generate_program(get_profile(args.profile))
    module = program.compile()
    print(f"{args.profile}: {module.instruction_count()} IR instructions, "
          f"repeat={args.repeat} (interleaved, min per side)")

    scheme_entries = {}
    speedups = []
    block_speedups = []
    trace_speedups = []
    for scheme in SCHEMES:
        protected = protect(module, scheme=scheme)
        (
            best, results, decode_seconds, block_seconds, trace_seconds,
            codegen,
        ) = measure_scheme(protected.module, program.inputs, args.seed, args.repeat)
        name = f"{args.profile}/{scheme}"
        _check_identical(name, results["reference"], results["decoded"], "decoded")
        _check_identical(name, results["reference"], results["block"], "block")
        _check_identical(name, results["reference"], results["trace"], "trace")
        speedup = best["reference"] / best["decoded"]
        block_speedup = best["decoded"] / best["block"]
        trace_speedup = best["decoded"] / best["trace"]
        steps = results["decoded"].steps
        steps_per_second = steps / best["decoded"]
        block_steps_per_second = steps / best["block"]
        trace_steps_per_second = steps / best["trace"]
        speedups.append(speedup)
        block_speedups.append(block_speedup)
        trace_speedups.append(trace_speedup)
        scheme_entries[scheme] = {
            "reference_seconds": round(best["reference"], 6),
            "decoded_seconds": round(best["decoded"], 6),
            "block_seconds": round(best["block"], 6),
            "trace_seconds": round(best["trace"], 6),
            "decode_seconds": round(decode_seconds, 6),
            "block_compile_seconds": round(block_seconds, 6),
            "trace_compile_seconds": round(trace_seconds, 6),
            **codegen,
            "speedup": round(speedup, 3),
            "block_speedup": round(block_speedup, 3),
            "trace_speedup": round(trace_speedup, 3),
            "steps": steps,
            "steps_per_second": round(steps_per_second, 1),
            "block_steps_per_second": round(block_steps_per_second, 1),
            "trace_steps_per_second": round(trace_steps_per_second, 1),
        }
        print(
            f"  {scheme:8s} reference={best['reference'] * 1e3:8.2f}ms "
            f"decoded={best['decoded'] * 1e3:8.2f}ms "
            f"block={best['block'] * 1e3:8.2f}ms "
            f"trace={best['trace'] * 1e3:8.2f}ms "
            f"decoded/ref={speedup:5.2f}x block/decoded={block_speedup:5.2f}x "
            f"trace/decoded={trace_speedup:5.2f}x "
            f"({trace_steps_per_second:,.0f} steps/s trace) counters identical"
        )

    geomean_speedup = geomean(speedups)
    geomean_block = geomean(block_speedups)
    geomean_trace = geomean(trace_speedups)
    print(
        f"geomean decoded/reference: {geomean_speedup:.2f}x "
        f"(min {min(speedups):.2f}x); "
        f"geomean block/decoded: {geomean_block:.2f}x "
        f"(min {min(block_speedups):.2f}x); "
        f"geomean trace/decoded: {geomean_trace:.2f}x "
        f"(min {min(trace_speedups):.2f}x)"
    )

    entry = {
        "label": "interp-throughput",
        "date": datetime.date.today().isoformat(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "profile": args.profile,
        "repeat": args.repeat,
        "schemes": scheme_entries,
        "geomean_speedup": round(geomean_speedup, 3),
        "min_speedup": round(min(speedups), 3),
        "geomean_block_speedup": round(geomean_block, 3),
        "min_block_speedup": round(min(block_speedups), 3),
        "geomean_trace_speedup": round(geomean_trace, 3),
        "min_trace_speedup": round(min(trace_speedups), 3),
    }

    if not args.skip_suite:
        names = profile_names()[: args.suite_size]
        serial = run_suite(names=names, seed=args.seed, jobs=1)
        parallel = run_suite(names=names, seed=args.seed, jobs=2)
        if serial.total_steps != parallel.total_steps:
            raise AssertionError("suite step totals diverged across jobs")
        if (os.cpu_count() or 1) < 2:
            print("note: single-CPU host; fan-out cannot beat serial here")
        print(
            f"suite ({len(names)} benchmarks x {len(SCHEMES)} schemes): "
            f"serial {serial.wall_seconds:.2f}s, "
            f"2 jobs {parallel.wall_seconds:.2f}s "
            f"({serial.wall_seconds / parallel.wall_seconds:.2f}x), "
            f"{serial.steps_per_second:,.0f} steps/s serial"
        )
        entry["suite"] = {
            "names": names,
            "cpu_count": os.cpu_count(),
            "serial_wall_seconds": round(serial.wall_seconds, 3),
            "parallel_wall_seconds": round(parallel.wall_seconds, 3),
            "parallel_jobs": 2,
            "total_steps": serial.total_steps,
            "steps_per_second": round(serial.steps_per_second, 1),
            "decode_seconds": round(serial.decode_seconds, 6),
        }

    regression = None
    if args.max_block_regression >= 0:
        regression, skip_note = check_block_regression_file(
            args.baseline or args.out, entry, tolerance=args.max_block_regression
        )
        if skip_note is not None:
            print(skip_note)

    append_entry(args.out, entry)
    print(f"appended trajectory entry to {args.out}")

    failed = False
    if geomean_speedup < args.min_speedup:
        print(
            f"FAIL: geomean decoded speedup {geomean_speedup:.2f}x below "
            f"threshold {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if geomean_block < args.min_block_speedup:
        print(
            f"FAIL: geomean block speedup {geomean_block:.2f}x below "
            f"threshold {args.min_block_speedup:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if geomean_trace < args.min_trace_speedup:
        print(
            f"FAIL: geomean trace speedup {geomean_trace:.2f}x below "
            f"threshold {args.min_trace_speedup:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if regression is not None:
        print(f"FAIL: {regression}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
