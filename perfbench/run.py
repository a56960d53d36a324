#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload {cli-cold,compile-cold,serve-warm} \
        --seed N --seconds S --trace {0,1}

Runs one workload from the checkout this file lives in, checks every op
against the reference interpreter, and prints two JSON lines: a detail
record (raw timings, calibration, machine, oracle findings, traced
end-to-end numbers), then the result line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, and the run's spans are written to
``.perfbench-out/<workload>-seed<N>.trace.json``.

Exits 2 without a result when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The host these numbers come from cannot support a parallelism claim,
#: which is why suite fan-out and multi-connection serving are left out.
HOST_NOTE = (
    "single-client closed loops on a 2-vCPU host; numbers support no "
    "parallelism claim"
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "compile-cold", "serve-warm"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and generate inputs (one set-up sample)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    sys.path[:1] = [os.path.join(ROOT, "src"), ROOT]
    os.chdir(ROOT)
    # One CPU for the benchmark and everything it starts (children
    # inherit the mask).  The workloads are single-client closed loops,
    # so this costs them no parallelism, and the calibration samples then
    # run on the same CPU as the ops they scale: unpinned, a serve-warm
    # worker slowed 1.6x on one vCPU while the client's samples on the
    # other did not move.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from perfbench import workloads

    if args.setup_probe:
        workloads.setup_probe(args.workload, args.seed)
        return 0

    from perfbench.measure import end_to_end, raw_summary

    os.makedirs(".perfbench-work", exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".perfbench-work"))
    try:
        record = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spans = record.detail.pop("spans", None)
    replay_spans = record.detail.pop("replay_spans", None)
    e2e = end_to_end(record)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "note": HOST_NOTE,
        },
        "raw": raw_summary(record),
        "end_to_end": e2e,
        **record.detail,
    }
    if args.trace:
        os.makedirs(".perfbench-out", exist_ok=True)
        base = os.path.join(".perfbench-out", f"{args.workload}-seed{args.seed}")
        spans.write(base + ".trace.json")
        if replay_spans is not None:
            replay_spans.write(base + ".replay.trace.json")
        metrics = dict(sorted(record.layers.items()))
    else:
        metrics = e2e
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        units = json.load(handle)
    unit_of = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
