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

import itertools

import pytest

from repro.core import SCHEMES, protect
from repro.frontend import compile_source
from repro.hardware.decoder import DecodedBlock, decode_module
from repro.ir import (
    I1,
    I64,
    ICMP_PREDICATES,
    Function,
    FunctionType,
    IntType,
    IRBuilder,
    Module,
    pointer,
    verify_module,
)
from repro.ir.values import Constant
from repro.observability import ExecutionProfiler
from repro.transforms import Mem2Reg
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


# -- fused compare-and-branch exits ------------------------------------------------

#: Loops and conditions (``&&``, ``!``, a call in a loop body, a
#: condition on a loaded value).  After mem2reg every one of its six
#: conditional branches fuses: the short-circuit's join as ``icmp ne
#: %phi, 0; br``, the others as ``icmp; zext; icmp ne 0; br``.
CONDITIONS = """
int f(int x) { if (x > 2) { return x - 1; } return x + 3; }
int main() {
    int a[4];
    int i = 0;
    int s = 0;
    while (i < 4) { a[i] = i * 3; i = i + 1; }
    for (i = 0; i < 4; i = i + 1) {
        if (a[i] >= 3 && s != 5) { s = s + f(a[i]); } else { s = s - 1; }
        if (!(s < 7)) { s = s * 2; }
    }
    return s;
}
"""


def decoded_blocks(module):
    """Every decoded block of ``module``, reached from each entry."""
    program, _ = decode_module(module)
    seen = {}
    stack = list(program.functions.values())
    while stack:
        dblock = stack.pop()
        if id(dblock) not in seen:
            seen[id(dblock)] = dblock
            stack.extend(s for s in dblock.term[1:] if isinstance(s, DecodedBlock))
    return list(seen.values())


def fused_exits(module):
    """How many decoded blocks of ``module`` branch on a fused compare."""
    return sum(
        dblock.exit[0] is not None and dblock.exit[0].__name__ == "compare"
        for dblock in decoded_blocks(module)
    )


def conditions_module(scheme):
    module = compile_source(CONDITIONS)
    Mem2Reg().run(module)
    return protect(module, scheme=scheme).module


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_step_limit_across_fused_exits(scheme):
    # A stop inside a fused chunk hands the reference tier the chunk's
    # compare ops, whose handlers the decoded loop never ran.
    module = conditions_module(scheme)
    assert fused_exits(module) == 6
    full = run(module, "reference")
    assert full.ok and full.return_value == 28
    limits = range(1, full.steps + 2)
    assert_sweep(module, context=scheme, sweep=[{"max_steps": n} for n in limits])


def fused_trap_module(kind, residue, taken):
    """``main``: a trap (or, with ``kind`` None, nothing) in the chunk
    before its fused ``icmp slt; zext; icmp ne 0; br`` tail."""
    module = Module("fused_trap")
    setter = residue_setter(module, residue)
    function = Function("main", FunctionType(I64, []))
    module.add_function(function)
    builder = IRBuilder(function.append_block("entry"))
    then, other = function.append_block("then"), function.append_block("else")
    builder.call(setter, [])
    value = builder.add(builder.const(I64, 4 if taken else 5), builder.const(I64, 0))
    value = builder.mul(value, builder.const(I64, 1))
    if kind is not None:
        TRAPS[kind](builder)
    flag = builder.cast("zext", builder.icmp("slt", value, builder.const(I64, 5)), I64)
    builder.cond_branch(builder.icmp("ne", flag, builder.const(I64, 0)), then, other)
    IRBuilder(then).ret(builder.const(I64, 1))
    IRBuilder(other).ret(builder.const(I64, 2))
    return module


@pytest.mark.parametrize("kind", sorted(TRAPS) + [None])
def test_trap_before_a_fused_tail(kind):
    for residue in range(4):
        for taken in (True, False):
            module = fused_trap_module(kind, residue, taken)
            assert fused_exits(module) == 1
            context = f"{kind} before the tail, residue {residue}, taken {taken}"
            result = assert_lattice(module, context=context)
            if kind is None:
                assert result.return_value == (1 if taken else 2), context
            else:
                assert not result.ok, context


def widened(builder, value):
    return builder.cast("zext", value, I64) if value.type == I1 else value


def second_use_module(which, where):
    """A condition's ``icmp``, ``zext`` or ``icmp ne`` (``which``) also
    feeds the result: from between the condition's ops, from the taken
    successor, or through a phi of the join (``where``)."""
    module = Module("second_use")
    function = Function("main", FunctionType(I64, []))
    module.add_function(function)
    entry = function.append_block("entry")
    then, other, join = (function.append_block(name) for name in ("then", "else", "join"))
    builder = IRBuilder(entry)
    value = builder.add(builder.const(I64, 7), builder.const(I64, 0))
    extra = builder.const(I64, 0)
    compare = builder.icmp("sgt", value, builder.const(I64, 4))
    if (which, where) == ("icmp", "block"):
        extra = widened(builder, compare)
    flag = builder.cast("zext", compare, I64)
    if (which, where) == ("zext", "block"):
        extra = builder.add(flag, builder.const(I64, 100))
    branch = builder.icmp("ne", flag, builder.const(I64, 0))
    used = {"icmp": compare, "zext": flag, "ne": branch}[which]
    builder.cond_branch(branch, then, other)
    builder.position_at_end(then)
    if where == "successor":
        extra = builder.add(widened(builder, used), builder.const(I64, 10))
    builder.jump(join)
    IRBuilder(other).jump(join)
    builder.position_at_end(join)
    if where == "phi":
        carried = builder.phi(used.type)
        carried.add_incoming(used, then)
        carried.add_incoming(builder.const(used.type, 0), other)
        extra = widened(builder, carried)
    builder.ret(builder.add(value, extra))
    return module


@pytest.mark.parametrize(
    ("which", "where"),
    [
        (which, where)
        for which in ("icmp", "zext", "ne")
        for where in ("block", "successor", "phi")
        if (which, where) != ("ne", "block")  # nothing sits between ne and br
    ],
)
def test_a_compare_with_a_second_use_still_matches(which, where):
    module = second_use_module(which, where)
    verify_module(module)
    if which == "ne":
        assert fused_exits(module) == 0
    result = assert_lattice(module, context=f"{which} used in {where}")
    assert result.ok


def predicate_module(bits):
    """``main`` folds every predicate over the ``bits``-wide boundary
    values (-1, 0, INT_MIN, INT_MAX) into one checksum: each compare
    once through the icmp handler and once fused into a branch, with
    the constant on the right, on the left or on neither side (and,
    with -1 on the left, on both)."""
    vtype = IntType(bits)
    boundaries = (-1, 0, -(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    module = Module(f"predicates_i{bits}")
    function = Function("main", FunctionType(I64, []))
    module.add_function(function)
    builder = IRBuilder(function.append_block("entry"))
    runtime = {
        value: builder.add(builder.const(vtype, value), builder.const(vtype, 0))
        for value in boundaries
    }
    checksum = builder.add(builder.const(I64, 1), builder.const(I64, 0))
    three = builder.const(I64, 3)
    cases = itertools.product(
        sorted(ICMP_PREDICATES), boundaries, boundaries, ("vc", "cv", "vv", "cc")
    )
    for index, (predicate, x, y, form) in enumerate(cases):
        if form == "cc" and x != -1:
            continue
        lhs = builder.const(vtype, x) if form[0] == "c" else runtime[x]
        rhs = builder.const(vtype, y) if form[1] == "c" else runtime[y]
        flag = builder.cast("zext", builder.icmp(predicate, lhs, rhs), I64)
        checksum = builder.mul(builder.add(checksum, flag), three)
        flag = builder.cast("zext", builder.icmp(predicate, lhs, rhs), I64)
        branch = builder.block
        then = function.append_block(f"then{index}")
        join = function.append_block(f"join{index}")
        builder.cond_branch(builder.icmp("ne", flag, builder.const(I64, 0)), then, join)
        builder.position_at_end(then)
        taken = builder.add(checksum, builder.const(I64, 1))
        builder.jump(join)
        builder.position_at_end(join)
        phi = builder.phi(I64)
        phi.add_incoming(taken, then)
        phi.add_incoming(checksum, branch)
        checksum = builder.mul(phi, three)
    builder.ret(checksum)
    return module


@pytest.mark.parametrize("bits", (8, 32, 64))
def test_predicates_at_boundary_constants(bits):
    module = predicate_module(bits)
    verify_module(module)
    assert fused_exits(module) == len(ICMP_PREDICATES) * 4 * (4 * 3 + 1)
    assert assert_lattice(module, context=f"i{bits}").ok
