#!/usr/bin/env python3
"""Compile-pipeline throughput: shared analysis and the compilation cache.

Two phases:

1. **Shared analysis vs per-scheme compilation.**  Every workload
   profile is protected under every scheme three ways:

   - the shared-analysis pipeline (verify/mem2reg/analyze once, clone +
     remap per scheme);
   - the per-scheme *recompute oracle* (today's ``shared_analysis=False``
     path, which re-analyzes per scheme but already uses the once-per-
     stage verification schedule);
   - the *pre-rework baseline*: per-scheme clone + analysis with the old
     verify-the-input-and-after-every-pass schedule, i.e. the pipeline
     exactly as it stood before the shared-analysis rework.

   All three are asserted to produce bit-identical instrumented modules
   before anything is timed.  The end-to-end speedup (and the gate) is
   baseline/shared; the oracle ratio is recorded alongside it so the
   trajectory separates "analysis sharing" from "verifier scheduling".

2. **Cold vs warm compilation cache.**  A suite runs twice against a
   fresh cache directory: the cold pass must miss and fill every
   (program, scheme) entry, the warm pass must hit all of them and
   reproduce the cold pass's architectural numbers exactly.

Wall-clock in shared containers is noisy, so phase 1 times CPU seconds
(``time.process_time``) with a ``gc.collect()`` barrier before each
run, interleaves the two sides so slow machine phases land on both, and
takes the minimum per side as the noise-free estimate.

Appends one entry to ``BENCH_compile.json`` (see repro.perf.trajectory)
so compile throughput can be tracked across commits.

Usage::

    python benchmarks/bench_compile_pipeline.py
    python benchmarks/bench_compile_pipeline.py --repeat 3 \
        --suite-size 3 --min-speedup 1.2   # CI smoke
"""

from __future__ import annotations

import argparse
import datetime
import gc
import os
import platform
import shutil
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.config import DefenseConfig, SCHEMES
from repro.core.framework import _build_passes, clone_module, protect_all
from repro.core.vulnerability import VulnerabilityAnalysis
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.perf import append_entry, run_suite
from repro.transforms.mem2reg import Mem2Reg
from repro.transforms.pass_manager import PassManager
from repro.workloads import generate_program, get_profile, profile_names

#: SchemeSummary fields that must match between suite runs exactly
#: (timing fields excluded, they measure the host, not the program).
COMPARED_FIELDS = (
    "scheme",
    "status",
    "cycles",
    "instructions",
    "ipc",
    "steps",
    "pa_static",
    "pa_dynamic",
    "binary_bytes",
    "canary_count",
    "isolated_allocations",
)


def baseline_protect_all(module):
    """The compile pipeline as it stood before the shared-analysis rework.

    Per scheme: clone the pristine module, verify, promote, verify,
    re-run the full vulnerability analysis, then drive the passes with
    the old verify-the-input-and-after-every-pass schedule.  This is the
    end-to-end comparison point for the rework; contrast with
    ``protect_all(shared_analysis=False)``, which also re-analyzes per
    scheme but already verifies once per pipeline stage.
    """
    results = {}
    for scheme in SCHEMES:
        target = clone_module(module)
        verify_module(target)
        Mem2Reg().run(target)
        verify_module(target)
        if scheme == "vanilla":
            results[scheme] = target
            continue
        report = VulnerabilityAnalysis(target).analyze()
        passes = _build_passes(DefenseConfig(scheme=scheme), report)
        PassManager(passes, verify_input=True, verify_each=True).run(target)
        results[scheme] = target
    return results


def check_bit_identity(modules):
    """Every scheme module must print identically under all three paths."""
    for name, module in modules:
        shared = protect_all(clone_module(module), shared_analysis=True)
        recomputed = protect_all(clone_module(module), shared_analysis=False)
        baseline = baseline_protect_all(module)
        for scheme in SCHEMES:
            shared_text = print_module(shared[scheme].module)
            if shared_text != print_module(recomputed[scheme].module):
                raise AssertionError(
                    f"{name}/{scheme}: shared-analysis module diverged "
                    "from the per-scheme recompute oracle"
                )
            if shared_text != print_module(baseline[scheme]):
                raise AssertionError(
                    f"{name}/{scheme}: shared-analysis module diverged "
                    "from the pre-rework baseline pipeline"
                )


def time_compiles(modules, compile_one):
    """CPU seconds for ``compile_one`` over every module, all schemes."""
    # Clones are made outside the timed region: all sides consume
    # identical fresh inputs and the copy cost is not what's compared.
    fresh = [clone_module(module) for _, module in modules]
    gc.collect()
    start = time.process_time()
    for module in fresh:
        compile_one(module)
    return time.process_time() - start


def compare_suites(cold, warm):
    for name in cold.programs:
        cold_schemes = cold.programs[name].schemes
        warm_schemes = warm.programs[name].schemes
        for cold_s, warm_s in zip(cold_schemes, warm_schemes):
            for field in COMPARED_FIELDS:
                cold_value = getattr(cold_s, field)
                warm_value = getattr(warm_s, field)
                if cold_value != warm_value:
                    raise AssertionError(
                        f"{name}/{cold_s.scheme}: {field} diverged between "
                        f"cold ({cold_value!r}) and warm ({warm_value!r}) "
                        "cache runs"
                    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--out", default=os.path.join(REPO_ROOT, "BENCH_compile.json")
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="fail if the end-to-end (baseline/shared) speedup falls below this",
    )
    parser.add_argument(
        "--suite-size",
        type=int,
        default=6,
        help="profiles in the cold-vs-warm cache suite",
    )
    parser.add_argument(
        "--skip-cache",
        action="store_true",
        help="skip the cold-vs-warm cache phase",
    )
    args = parser.parse_args(argv)

    names = profile_names()
    modules = [
        (name, generate_program(get_profile(name)).compile()) for name in names
    ]
    total_instructions = sum(m.instruction_count() for _, m in modules)
    print(
        f"{len(modules)} profiles x {len(SCHEMES)} schemes "
        f"({total_instructions} IR instructions), repeat={args.repeat} "
        "(interleaved, min per side, CPU seconds)"
    )

    check_bit_identity(modules)
    print(
        "bit-identity: shared-analysis modules == recompute oracle "
        "== pre-rework baseline"
    )

    sides = {
        "shared": lambda m: protect_all(m, shared_analysis=True, consume=True),
        "recompute": lambda m: protect_all(m, shared_analysis=False),
        "baseline": baseline_protect_all,
    }
    best = {name: float("inf") for name in sides}
    for _ in range(args.repeat):
        for name, compile_one in sides.items():
            best[name] = min(best[name], time_compiles(modules, compile_one))
    speedup = best["baseline"] / best["shared"]
    recompute_speedup = best["recompute"] / best["shared"]
    print(
        f"shared analysis {best['shared']:.3f}s, per-scheme recompute "
        f"{best['recompute']:.3f}s ({recompute_speedup:.2f}x), pre-rework "
        f"baseline {best['baseline']:.3f}s -> {speedup:.2f}x end-to-end"
    )

    entry = {
        "label": "compile-pipeline",
        "date": datetime.date.today().isoformat(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "profiles": len(modules),
        "schemes": list(SCHEMES),
        "repeat": args.repeat,
        "shared_seconds": round(best["shared"], 6),
        "recompute_seconds": round(best["recompute"], 6),
        "baseline_seconds": round(best["baseline"], 6),
        "speedup": round(speedup, 3),
        "recompute_speedup": round(recompute_speedup, 3),
    }

    if not args.skip_cache:
        suite_names = names[: args.suite_size]
        expected = len(suite_names) * len(SCHEMES)
        cache_dir = tempfile.mkdtemp(prefix="repro-compile-cache-")
        try:
            cold = run_suite(
                names=suite_names, seed=args.seed, cache_dir=cache_dir
            )
            warm = run_suite(
                names=suite_names, seed=args.seed, cache_dir=cache_dir
            )
            if cold.cache_hits != 0 or cold.cache_misses != expected:
                raise AssertionError(
                    f"cold run expected 0 hits / {expected} misses, got "
                    f"{cold.cache_hits} / {cold.cache_misses}"
                )
            if warm.cache_hits != expected or warm.cache_misses != 0:
                raise AssertionError(
                    f"warm run expected {expected} hits / 0 misses, got "
                    f"{warm.cache_hits} / {warm.cache_misses}"
                )
            compare_suites(cold, warm)
            print(
                f"cache suite ({len(suite_names)} benchmarks): cold "
                f"{cold.wall_seconds:.2f}s ({cold.cache_misses} misses), "
                f"warm {warm.wall_seconds:.2f}s ({warm.cache_hits} hits, "
                "architectural numbers identical)"
            )
            entry["cache"] = {
                "names": list(suite_names),
                "entries": expected,
                "cold_wall_seconds": round(cold.wall_seconds, 3),
                "warm_wall_seconds": round(warm.wall_seconds, 3),
                "warm_hits": warm.cache_hits,
            }
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    append_entry(args.out, entry)
    print(f"appended trajectory entry to {args.out}")

    if speedup < args.min_speedup:
        print(
            f"FAIL: end-to-end shared-analysis speedup {speedup:.2f}x "
            f"below threshold {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
