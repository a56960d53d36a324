"""Differential checks of the decoded loop's per-chunk accounting.

The decoded interpreter charges a whole chunk (a run of ops ending at a
call, a fallback or the terminator) before running its handlers, and
takes back the charges of the ops after one that traps.  Every
observable must still match the reference interpreter, which charges
each op just before running it: at every step-limit stop, at a trap in
every position of a chunk and from every entry issue residue, below a
call that ends a chunk, at every call boundary (where a profiler
reads them), and on the per-op path a non-default timing model takes.
"""

from __future__ import annotations

import pytest

from repro.core import SCHEMES, protect
from repro.hardware import CPU
from repro.ir import I1, I64, Function, FunctionType, IRBuilder, Module, pointer
from repro.ir.values import Constant
from repro.observability import ExecutionProfiler
from repro.workloads import generate_program
from repro.workloads.profiles import BenchmarkProfile

#: A generated program small enough to stop at every one of its steps
#: (~700-800 steps per scheme), with calls, loops, phis and IC handlers.
TINY = BenchmarkProfile(
    name="tiny",
    language="c",
    hot_functions=1,
    tainted_functions=1,
    pointer_functions=1,
    field_functions=1,
    ic_handlers=1,
    opaque_functions=1,
    heap_workers=1,
    outer_iterations=1,
    inner_iterations=2,
    array_size=4,
    ic_sites_per_handler=1,
    seed=7,
)


def observed(result):
    """Everything the two loops must agree on, traps included."""
    trap = result.trap
    return (
        result.status,
        None if trap is None else (type(trap).__name__, str(trap)),
        result.return_value,
        result.output,
        result.steps,
        result.cycles,
        result.instructions,
        result.opcode_counts,
    )


def run(module, interpreter, inputs=(), timing=None, **kwargs):
    cpu = CPU(module, seed=2024, interpreter=interpreter, **kwargs)
    if timing is not None:
        timing(cpu.timing)
    return cpu.run(inputs=list(inputs))


def assert_same(module, inputs=(), context="", **kwargs):
    reference = run(module, "reference", inputs, **kwargs)
    decoded = run(module, "decoded", inputs, **kwargs)
    assert observed(decoded) == observed(reference), context
    return reference


@pytest.fixture(scope="module")
def tiny_program():
    return generate_program(TINY)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_step_limit_stops_at_the_same_op(tiny_program, scheme):
    module = protect(tiny_program.compile(), scheme=scheme).module
    inputs = tiny_program.inputs
    full = assert_same(module, inputs, scheme)
    assert full.ok
    for max_steps in range(1, full.steps + 2):
        result = assert_same(
            module, inputs, f"{scheme} max_steps={max_steps}", max_steps=max_steps
        )
        assert result.status == ("ok" if max_steps >= full.steps else "limit")


# -- traps inside a chunk ------------------------------------------------------

#: Body ops of the chunk a trap lands in, with mixed costs (1, 4, 3, 1,
#: 12, 1, 1) so that undoing a chunk's tail must replay the issue model.
BODY = (
    lambda b, v, slot: b.add(v, b.const(I64, 3)),
    lambda b, v, slot: b.load(slot),
    lambda b, v, slot: b.mul(v, b.const(I64, 5)),
    lambda b, v, slot: b.binop("xor", v, b.const(I64, 6)),
    lambda b, v, slot: b.binop("sdiv", v, b.const(I64, 7)),
    lambda b, v, slot: b.store(v, slot) and v,
    lambda b, v, slot: b.sub(v, b.const(I64, 1)),
)

TRAPS = {
    "fault": lambda b: b.binop("sdiv", b.const(I64, 9), b.const(I64, 0)),
    "null": lambda b: b.load(Constant(pointer(I64), 0)),
    "canary": lambda b: b.sec_assert(Constant(I1, 0), kind="canary"),
}


def add_function(module, name, emit_body):
    function = Function(name, FunctionType(I64, []))
    module.add_function(function)
    builder = IRBuilder(function.append_block("entry"))
    builder.ret(emit_body(builder))
    return function


def residue_setter(module, residue):
    """A callee whose cheap ops leave the issue residue at ``residue``.

    A call (cost 2) resets the residue; the callee's adds and its ``ret``
    are cheap, so ``(residue - 1) % 4`` adds leave ``residue`` behind.
    """

    def body(builder):
        value = builder.const(I64, 1)
        for _ in range((residue - 1) % 4):
            value = builder.add(value, builder.const(I64, 1))
        return value

    return add_function(module, f"residue{residue}", body)


def trapping_body(builder, position, kind, slot):
    """``BODY`` with the ``kind`` trap inserted before op ``position``."""
    value = builder.const(I64, 11)
    for index, op in enumerate(BODY + (None,)):
        if index == position:
            TRAPS[kind](builder)
        if op is not None:
            value = op(builder, value, slot)
    return value


def trap_module(position, kind, residue, closing):
    """``main`` traps inside the chunk after a call that sets its residue.

    ``closing`` says what ends that chunk: the ``ret`` terminator, or a
    call whose charge the trap must take back too.
    """
    module = Module("chunk_trap")
    setter = residue_setter(module, residue)
    tail = add_function(module, "tail", lambda b: b.const(I64, 2))

    def body(builder):
        slot = builder.alloca(I64)
        builder.store(builder.const(I64, 5), slot)
        builder.call(setter, [])
        value = trapping_body(builder, position, kind, slot)
        if closing == "call":
            builder.call(tail, [])
        return value

    add_function(module, "main", body)
    return module


@pytest.mark.parametrize("closing", ("ret", "call"))
@pytest.mark.parametrize("kind", sorted(TRAPS))
def test_trap_at_each_op_of_a_chunk(kind, closing):
    for residue in range(4):
        for position in range(len(BODY) + 1):
            module = trap_module(position, kind, residue, closing)
            context = f"{kind} at op {position}, residue {residue}, {closing}"
            result = assert_same(module, context=context)
            assert not result.ok, context


def callee_trap_module(position, kind):
    """``main``'s first chunk ends in a call to a callee that traps."""
    module = Module("callee_trap")

    def callee_body(builder):
        slot = builder.alloca(I64)
        builder.store(builder.const(I64, 3), slot)
        return trapping_body(builder, position, kind, slot)

    callee = add_function(module, "callee", callee_body)

    def main_body(builder):
        value = builder.add(builder.const(I64, 1), builder.const(I64, 2))
        value = builder.mul(value, builder.const(I64, 3))
        builder.call(callee, [])
        return builder.add(value, builder.const(I64, 4))

    add_function(module, "main", main_body)
    return module


@pytest.mark.parametrize("kind", sorted(TRAPS))
def test_trap_in_a_callee_below_a_chunk_ending_call(kind):
    for position in range(len(BODY) + 1):
        module = callee_trap_module(position, kind)
        result = assert_same(module, context=f"{kind} at callee op {position}")
        assert not result.ok


# -- what a callee sees ---------------------------------------------------------


def profiled_functions(module, interpreter, inputs=()):
    """Per-function (calls, self/inclusive steps and cycles) of one run.

    The profiler reads the CPU's counters as each call enters and
    leaves, so this compares the counters mid-run, not just at the end.
    """
    profiler = ExecutionProfiler()
    run(module, interpreter, inputs, profiler=profiler)
    return profiler.functions


def test_counters_match_at_every_call_boundary(tiny_program):
    for scheme in SCHEMES:
        module = protect(tiny_program.compile(), scheme=scheme).module
        inputs = tiny_program.inputs
        assert profiled_functions(module, "decoded", inputs) == (
            profiled_functions(module, "reference", inputs)
        ), scheme
    for kind in sorted(TRAPS):
        for position in range(len(BODY) + 1):
            module = callee_trap_module(position, kind)
            assert profiled_functions(module, "decoded") == (
                profiled_functions(module, "reference")
            ), f"{kind} at callee op {position}"


# -- the per-op path -----------------------------------------------------------


def custom_costs(timing):
    timing.costs["load"] = 7
    timing.costs["add"] = 2
    timing.costs["br"] = 0


def narrow_issue(timing):
    timing.issue_width = 2


@pytest.mark.parametrize("timing", (custom_costs, narrow_issue))
def test_non_default_timing_matches_per_op(tiny_program, timing):
    for scheme in SCHEMES:
        module = protect(tiny_program.compile(), scheme=scheme).module
        result = assert_same(module, tiny_program.inputs, scheme, timing=timing)
        assert result.ok
        for max_steps in (1, result.steps // 2, result.steps):
            assert_same(
                module,
                tiny_program.inputs,
                f"{scheme} max_steps={max_steps}",
                timing=timing,
                max_steps=max_steps,
            )
    for residue in range(4):
        for position in range(len(BODY) + 1):
            module = trap_module(position, "fault", residue, "call")
            context = f"op {position}, residue {residue}"
            assert_same(module, context=context, timing=timing)


def test_non_default_timing_keeps_its_simulated_call_depth():
    # Each simulated call nests the per-op loop's Python frames; an
    # extra frame per call would turn this 200-deep recursion into a
    # RecursionError instead of a result.
    from repro.frontend import compile_source

    module = compile_source(
        "int f(int n) { if (n == 0) { return 0; } return f(n - 1) + 1; }"
        " int main() { return f(200); }"
    )
    cpu = CPU(module, interpreter="decoded")
    narrow_issue(cpu.timing)
    result = cpu.run()
    assert result.ok and result.return_value == 200
