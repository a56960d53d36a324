"""Count the Python bytecodes serve-warm's ``run`` requests spend per step.

The default nginx mix has 12 distinct ``run`` request bodies (3
programs x 4 schemes).  Each is sent once to an in-process
``RequestHandler`` on a fresh ``WarmRegistry`` to warm it (protection
and the eager trace compile), then counted once with
``repro.perf.count_python_ops`` wrapped around
``serve.worker.handle_request``.  The count is deterministic for one
Python version; wall clock plays no part.

Run from the repository root::

    python tools/count_serve_ops.py
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.perf import count_python_ops  # noqa: E402
from repro.serve.registry import WarmRegistry  # noqa: E402
from repro.serve.worker import RequestHandler, handle_request  # noqa: E402
from repro.workloads.nginx import build_request_mix  # noqa: E402


def main() -> int:
    bodies = {}
    for request in build_request_mix(200, mix={"run": 1}):
        bodies.setdefault((request["name"], request["scheme"]), request)
    handler = RequestHandler(WarmRegistry(capacity=len(bodies)))
    ops = steps = 0
    for key in sorted(bodies):
        request = bodies[key]
        handle_request(handler, request, False)
        (response, _), count = count_python_ops(handle_request, handler, request, False)
        result = response["result"]
        ops += count
        steps += result["steps"]
        print(f"{key[0]:10s} {key[1]:8s} ops {count:9d} steps {result['steps']:7d}")
    print(f"{len(bodies)} requests: {ops} ops / {steps} steps = {ops / steps:.2f} ops per step")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
