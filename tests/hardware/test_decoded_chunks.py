"""Differential checks of the decoded loop's per-chunk accounting.

The decoded interpreter charges a whole chunk (a run of ops ending at a
call, a fallback or the terminator) before running its handlers, and
takes back the charges of the ops after one that traps.  Every
observable must still match the reference interpreter, which charges
each op just before running it: at every step-limit stop, at a trap in
every position of a chunk and from every entry issue residue, below a
call that ends a chunk, at every call boundary (where a profiler reads
them), and under a non-default timing model, which runs every call on
the reference tier.  A step-limit stop hands the rest of the call to
the reference tier from the chunk that would cross the limit.  The
other cases run on every tier of ``tests/tier_oracle.py``; the compiled
tiers sweep every step limit in ``test_compiled_chunks.py``.
"""

from __future__ import annotations

import pytest

from repro.core import SCHEMES, protect
from repro.frontend import compile_source
from repro.ir import I1, I64, Function, FunctionType, IRBuilder, Module, pointer
from repro.ir.values import Constant
from repro.observability import ExecutionProfiler
from repro.workloads import generate_program
from tests.tier_oracle import (
    FAST_TIERS,
    TINY,
    assert_every_step_limit,
    assert_lattice,
    assert_sweep,
    custom_costs,
    narrow_issue,
    run,
)


@pytest.fixture(scope="module")
def tiny_program():
    return generate_program(TINY)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_step_limit_stops_at_the_same_op(scheme):
    # A hand-off that resumed at an earlier chunk of the same composition
    # would replay its ops: invisible in memory for a store, but an
    # extra LLC access.
    assert_every_step_limit(scheme, ("decoded",))


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
            result = assert_lattice(module, context=context)
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
        result = assert_lattice(module, context=f"{kind} at callee op {position}")
        assert not result.ok


# -- what a callee sees ---------------------------------------------------------


def profiled_functions(module, tier, inputs=()):
    """Per-function (calls, self/inclusive steps and cycles) of one run.

    The profiler reads the CPU's counters as each call enters and
    leaves, so this compares the counters mid-run, not just at the end.
    """
    profiler = ExecutionProfiler()
    run(module, tier, inputs, profiler=profiler)
    return profiler.functions


def assert_profiles_match(module, inputs=(), context=""):
    expected = profiled_functions(module, "reference", inputs)
    for tier in FAST_TIERS:
        assert profiled_functions(module, tier, inputs) == expected, (
            f"{tier}: {context}"
        )


def test_counters_match_at_every_call_boundary(tiny_program):
    for scheme in SCHEMES:
        module = protect(tiny_program.compile(), scheme=scheme).module
        assert_profiles_match(module, tiny_program.inputs, scheme)
    for kind in sorted(TRAPS):
        for position in range(len(BODY) + 1):
            module = callee_trap_module(position, kind)
            assert_profiles_match(module, context=f"{kind} at callee op {position}")


# -- non-default timing: the reference tier ----------------------------------


@pytest.mark.parametrize("timing", (custom_costs, narrow_issue))
def test_non_default_timing_matches_reference(tiny_program, timing):
    def setup(cpu):
        timing(cpu.timing)

    for scheme in SCHEMES:
        module = protect(tiny_program.compile(), scheme=scheme).module
        inputs = tiny_program.inputs
        result = assert_lattice(module, inputs, scheme, setup=setup)
        assert result.ok
        limits = (1, result.steps // 2, result.steps)
        assert_sweep(
            module, inputs, scheme, [{"max_steps": limit} for limit in limits],
            setup=setup,
        )
    for residue in range(4):
        for position in range(len(BODY) + 1):
            module = trap_module(position, "fault", residue, "call")
            context = f"op {position}, residue {residue}"
            assert_lattice(module, context=context, setup=setup)


@pytest.mark.parametrize("interpreter", ("decoded", "block", "trace"))
@pytest.mark.parametrize("depth", (200, 254, 300))
def test_non_default_timing_keeps_its_simulated_call_depth(depth, interpreter):
    # Under a non-default timing model every call runs on the reference
    # tier, and the simulated 256-frame stack limit must fire before
    # Python's recursion limit does: f(254) returns, f(300) faults.
    module = compile_source(
        "int f(int n) { if (n == 0) { return 0; } return f(n - 1) + 1; }"
        f" int main() {{ return f({depth}); }}"
    )
    tiers = tuple(tier for tier in FAST_TIERS if tier.startswith(interpreter))
    reference = assert_lattice(
        module, context=f"f({depth})", tiers=tiers,
        setup=lambda cpu: narrow_issue(cpu.timing),
    )
    if depth < 256:
        assert (reference.status, reference.return_value) == ("ok", depth)
    else:
        assert reference.status == "fault"
