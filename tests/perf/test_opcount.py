"""The Python opcode counter: deterministic, and it counts what runs."""

from __future__ import annotations

import sys

from repro.core import protect
from repro.hardware import CPU
from repro.perf import count_python_calls, count_python_ops
from repro.workloads import generate_program, get_profile


def spin(n):
    total = 0
    for i in range(n):
        total += i
    return total


def test_count_grows_with_the_work_and_returns_the_result():
    result, small = count_python_ops(spin, 10)
    assert result == 45
    _, large = count_python_ops(spin, 100)
    assert 0 < small < large


def test_two_counted_runs_give_the_same_count():
    program = generate_program(get_profile("505.mcf_r"))
    module = protect(program.compile(), scheme="pythia").module
    # An uncounted run fills the caches a first run builds.
    CPU(module, interpreter="decoded").run(inputs=list(program.inputs))
    counts = []
    for _ in range(2):
        cpu = CPU(module, interpreter="decoded")
        result, ops = count_python_ops(cpu.run, inputs=list(program.inputs))
        assert result.ok
        counts.append(ops)
    assert counts[0] == counts[1]
    assert counts[0] > result.steps


def test_restores_the_previous_trace_function():
    def tracer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        count_python_ops(spin, 3)
        assert sys.gettrace() is tracer
    finally:
        sys.settrace(previous)


#: Python calls per simulated step of a decoded run of 505.mcf_r under
#: pythia: 0.656 when the decoded tier's handlers did their own integer
#: arithmetic and its blocks left through fused compare-and-branch exits
#: (1.696 before), plus 2%.  Unlike bytecodes per step, which
#: ``benchmarks/bench_interp_throughput.py`` gates only against entries
#: of the same Python, a call count holds on every supported version.
DECODED_CALLS_PER_STEP = 0.669


def test_decoded_calls_per_step_stay_under_their_ceiling():
    program = generate_program(get_profile("505.mcf_r"))
    module = protect(program.compile(), scheme="pythia").module
    CPU(module, interpreter="decoded").run(inputs=list(program.inputs))
    cpu = CPU(module, interpreter="decoded")
    result, calls = count_python_calls(cpu.run, inputs=list(program.inputs))
    assert result.ok
    assert calls / result.steps <= DECODED_CALLS_PER_STEP, calls / result.steps


#: Python calls per simulated step of the nginx mix's 12 distinct
#: serve ``run`` requests (3 programs x 4 schemes), eagerly compiled
#: trace runs through an in-process handler, each warmed once first:
#: 0.0937 once compiled code did its sized loads and stores inline and
#: entered compiled callees without ``CPU._call`` (0.196 before), plus
#: 2%.  ``tools/count_serve_ops.py`` prints the same count per scheme.
TRACE_SERVE_CALLS_PER_STEP = 0.0956


def test_serve_trace_calls_per_step_stay_under_their_ceiling():
    from repro.serve.registry import WarmRegistry
    from repro.serve.worker import RequestHandler, handle_request
    from repro.workloads.nginx import build_request_mix

    bodies = {}
    for request in build_request_mix(200, mix={"run": 1}):
        bodies.setdefault((request["name"], request["scheme"]), request)
    assert len(bodies) == 12
    handler = RequestHandler(WarmRegistry(capacity=len(bodies)))
    calls = steps = 0
    for request in bodies.values():
        assert request["interpreter"] == "trace"
        handle_request(handler, request, False)
        (response, _), count = count_python_calls(
            handle_request, handler, request, False
        )
        calls += count
        steps += response["result"]["steps"]
    assert calls / steps <= TRACE_SERVE_CALLS_PER_STEP, calls / steps


def test_call_count_counts_each_call_and_restores_the_profiler():
    def profiler(frame, event, arg):
        return None

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result, calls = count_python_calls(lambda: [spin(3) for _ in range(4)])
        assert result == [3] * 4
        assert calls == 5  # the lambda and four spins; not the listcomp
        assert sys.getprofile() is profiler
    finally:
        sys.setprofile(previous)
