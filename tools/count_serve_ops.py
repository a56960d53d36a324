"""Count the Python bytecodes and calls serve-warm's ``run`` requests
spend per step.

The default nginx mix has 12 distinct ``run`` request bodies (3
programs x 4 schemes).  Each is sent once to an in-process
``RequestHandler`` on a fresh ``WarmRegistry`` to warm it (protection
and the eager trace compile), then counted twice around
``serve.worker.handle_request``: its bytecodes with
``repro.perf.count_python_ops``, and its Python calls with
``repro.perf.count_python_calls``.  Both counts are deterministic
(bytecodes for one Python version, calls on every version); wall clock
plays no part.  The totals print per scheme and over all 12 requests.

Run from the repository root::

    python tools/count_serve_ops.py
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.perf import count_python_calls, count_python_ops  # noqa: E402
from repro.serve.registry import WarmRegistry  # noqa: E402
from repro.serve.worker import RequestHandler, handle_request  # noqa: E402
from repro.workloads.nginx import build_request_mix  # noqa: E402


def main() -> int:
    bodies = {}
    for request in build_request_mix(200, mix={"run": 1}):
        bodies.setdefault((request["name"], request["scheme"]), request)
    handler = RequestHandler(WarmRegistry(capacity=len(bodies)))
    totals = {}  # scheme -> [ops, calls, steps]
    for key in sorted(bodies):
        request = bodies[key]
        handle_request(handler, request, False)
        (response, _), ops = count_python_ops(handle_request, handler, request, False)
        _, calls = count_python_calls(handle_request, handler, request, False)
        steps = response["result"]["steps"]
        for total in (totals.setdefault(key[1], [0, 0, 0]), totals.setdefault("all", [0, 0, 0])):
            total[0] += ops
            total[1] += calls
            total[2] += steps
        print(f"{key[0]:10s} {key[1]:8s} ops {ops:9d} calls {calls:7d} steps {steps:7d}")
    for scheme, (ops, calls, steps) in totals.items():
        if scheme != "all":
            print(f"{scheme:8s} {ops / steps:6.2f} ops per step {calls / steps:.3f} calls per step")
    ops, calls, steps = totals["all"]
    print(
        f"{len(bodies)} requests: {ops} ops / {steps} steps = {ops / steps:.2f} ops per step; "
        f"{calls} calls = {calls / steps:.3f} calls per step"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
