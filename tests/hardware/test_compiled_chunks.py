"""Differential checks of the compiled tiers' per-chunk hit counters.

Generated block and trace code counts one hit per chunk it charges --
in the CPU's hit store, or in a region-local counter the region's exit
adds there -- keyed by a process-wide composition id, and ``run()``
folds the hits into the opcode histogram and the retired instructions.
Every observable must still match the reference interpreter: at a trap
in every position of a chunk (a block compiled alone and a fused loop
region, from every entry issue residue), at a trap just past a phi
edge, at every step-limit stop, for a CPU built before a compile that
allocates new composition ids, for two CPUs whose runs interleave on
one module, and for repeated runs of one CPU.  The trap cases run on
every tier of ``tests/tier_oracle.py``, the step-limit sweep on its
compiled tiers.
"""

from __future__ import annotations

import re

import pytest

from repro.core import SCHEMES, protect
from repro.frontend import compile_source
from repro.hardware import CPU, trace_compile
from repro.hardware.decoder import CHUNK_OPS
from repro.hardware.oracle import observables
from repro.ir import I64, Function, FunctionType, IRBuilder, Module, pointer
from repro.ir.values import Constant
from tests.tier_oracle import (
    COMPILED_TIERS,
    assert_every_step_limit,
    assert_lattice,
    generated,
    run,
    tier_factory,
)


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

#: The iteration (loop index value) on which a trap fires by default: by
#: then every chunk of the loop has run, so region-local counters are
#: non-zero.
TRAP_AT = 2

#: Traps that fire only when ``index == at``.
TRAPS = {
    "fault": lambda b, index, slot, at: b.binop(
        "sdiv", b.const(I64, 9), b.sub(index, b.const(I64, at))
    ),
    "null": lambda b, index, slot, at: b.load(
        b.select(
            b.icmp("eq", index, b.const(I64, at)),
            Constant(pointer(I64), 0),
            slot,
        )
    ),
    "canary": lambda b, index, slot, at: b.sec_assert(
        b.icmp("ne", index, b.const(I64, at)), kind="canary"
    ),
}


def trapping_body(builder, position, kind, slot, index, at=TRAP_AT):
    """``BODY`` with the ``kind`` trap (firing when ``index == at``)
    inserted before op ``position``."""
    value = builder.const(I64, 11)
    for place, op in enumerate(BODY + (None,)):
        if place == position:
            TRAPS[kind](builder, index, slot, at)
        if op is not None:
            value = op(builder, value, slot)
    return value


def residue_setter(module, residue):
    """A callee whose cheap ops leave the issue residue at ``residue``."""
    function = Function(f"residue{residue}", FunctionType(I64, []))
    module.add_function(function)
    builder = IRBuilder(function.append_block("entry"))
    value = builder.const(I64, 1)
    for _ in range((residue - 1) % 4):
        value = builder.add(value, builder.const(I64, 1))
    builder.ret(value)
    return function


def counted_loop(module, emit_body, trips=4, name="main", params=()):
    """``name``: ``for (i = 0; i < trips; i++) emit_body(builder, i, slot)``.

    ``emit_body`` may leave the builder in a new block; the back edge
    leaves from wherever it ends.
    """
    function = Function(name, FunctionType(I64, list(params)))
    module.add_function(function)
    entry = function.append_block("entry")
    header = function.append_block("header")
    body = function.append_block("body")
    done = function.append_block("done")
    builder = IRBuilder(entry)
    slot = builder.alloca(I64)
    builder.store(builder.const(I64, 5), slot)
    builder.jump(header)
    builder.position_at_end(header)
    index = builder.phi(I64)
    builder.cond_branch(
        builder.icmp("slt", index, builder.const(I64, trips)), body, done
    )
    builder.position_at_end(body)
    emit_body(builder, index, slot)
    following = builder.add(index, builder.const(I64, 1))
    latch = builder.block
    builder.jump(header)
    index.add_incoming(builder.const(I64, 0), entry)
    index.add_incoming(following, latch)
    builder.position_at_end(done)
    builder.ret(builder.load(slot))
    return function


def chunk_trap_module(position, kind, residue, where):
    """A trap inside the chunk that follows a call setting its residue.

    ``where`` is ``"loop"`` (the chunk sits in ``main``'s loop body: a
    fused loop region under the trace tier) or ``"alone"`` (it sits in
    a one-block callee: a block compiled alone under every tier).
    """
    module = Module("compiled_chunk_trap")
    setter = residue_setter(module, residue)

    def chunk(builder, index, slot):
        builder.call(setter, [])
        return trapping_body(builder, position, kind, slot, index)

    if where == "loop":
        counted_loop(module, chunk)
        return module
    victim = Function("victim", FunctionType(I64, [I64]))
    module.add_function(victim)
    builder = IRBuilder(victim.append_block("entry"))
    slot = builder.alloca(I64)
    builder.store(builder.const(I64, 3), slot)
    builder.ret(chunk(builder, victim.args[0], slot))
    counted_loop(module, lambda b, index, slot: b.call(victim, [index]))
    return module


@pytest.mark.parametrize("where", ("loop", "alone"))
@pytest.mark.parametrize("kind", sorted(TRAPS))
def test_trap_at_each_op_of_a_compiled_chunk(kind, where):
    for residue in range(4):
        for position in range(len(BODY) + 1):
            module = chunk_trap_module(position, kind, residue, where)
            context = f"{kind} at op {position}, residue {residue}, {where}"
            result = assert_lattice(module, context=context)
            assert not result.ok, context


def phi_edge_trap_module(position, kind, arm):
    """A trap in the first chunk past a phi edge.

    The loop body branches on its index's low bit to two arms, each
    entered along a conditional edge that routes a phi; the ``arm``
    side traps at op ``position`` on the last iteration it runs (3 for
    the odd arm, 2 for the even one), after both edges have been taken.
    """
    module = Module("phi_edge_trap")

    def diamond(builder, index, slot):
        function = builder.function
        left = function.append_block("left")
        right = function.append_block("right")
        join = function.append_block("join")
        entry = builder.block
        odd = builder.binop("and", index, builder.const(I64, 1))
        builder.cond_branch(builder.icmp("ne", odd, builder.const(I64, 0)), left, right)
        values = []
        for block, side in ((left, "odd"), (right, "even")):
            builder.position_at_end(block)
            phi = builder.phi(I64)
            phi.add_incoming(index, entry)
            if side == arm:
                at = 3 if arm == "odd" else 2
                value = trapping_body(builder, position, kind, slot, phi, at)
            else:
                value = builder.add(phi, builder.const(I64, 1))
            values.append((value, builder.block))
            builder.jump(join)
        builder.position_at_end(join)
        merged = builder.phi(I64)
        for value, block in values:
            merged.add_incoming(value, block)
        builder.store(merged, slot)

    counted_loop(module, diamond)
    return module


@pytest.mark.parametrize("arm", ("odd", "even"))
@pytest.mark.parametrize("kind", sorted(TRAPS))
def test_trap_past_a_phi_edge(kind, arm):
    for position in range(len(BODY) + 1):
        module = phi_edge_trap_module(position, kind, arm)
        context = f"{kind} at op {position} of the {arm} arm"
        result = assert_lattice(module, context=context)
        assert not result.ok, context


# -- step limits ----------------------------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_step_limit_stops_at_the_same_op(scheme):
    # Each stop is the block driver's or a region's hand-off.
    assert_every_step_limit(scheme, COMPILED_TIERS)


# -- the hit store ----------------------------------------------------------------

LOOPS = """
int mix(int x) {
    int total = 0;
    for (int i = 0; i < 6; i = i + 1) { total = total + x * i + %d; }
    return total %% 1013;
}

int main() {
    int acc = 0;
    for (int i = 0; i < 40; i = i + 1) { acc = acc + mix(i); }
    printf("acc=%%d\\n", acc %% 9973);
    return acc %% 7;
}
"""


def fresh_module(tag: int):
    """A small looping module; ``tag`` varies one constant only."""
    return compile_source(LOOPS % tag, name=f"loops{tag}")


def unique_chunk_module():
    """A module whose compiled chunks include compositions nothing in
    this process has interned yet.

    ``spin``'s loop body is a run of more xors than any interned chunk
    holds; compiled, it also carries the back edge's phi, so its
    composition differs from the decoded chunk that decoding interns.
    ``main`` calls ``spin`` from a loop, so ``spin`` can tier up.
    """
    width = 1 + max([40] + [ops.count("xor") for ops in CHUNK_OPS])
    module = Module("unique_chunks")

    def xors(builder, index, slot):
        value = builder.load(slot)
        for _ in range(width):
            value = builder.binop("xor", value, index)
        builder.store(value, slot)

    spin = counted_loop(module, xors, trips=3, name="spin", params=(I64,))
    counted_loop(module, lambda b, index, slot: b.call(spin, [index]), trips=9)
    return module


def test_cpu_built_before_a_compile_that_allocates_ids():
    module = unique_chunk_module()
    expected = observables(run(module, "reference"))
    cpu = CPU(module, seed=2024, interpreter="trace")  # nothing compiled yet
    before = len(CHUNK_OPS)
    trace_compile(module)
    assert len(CHUNK_OPS) > before
    assert cpu.tier_program.functions and not cpu.tier_program.pending
    assert observables(cpu.run()) == expected


def test_tier_up_mid_run_allocates_ids_the_run_folds():
    module = unique_chunk_module()
    expected = observables(run(module, "reference"))
    cpu = tier_factory(module, "trace-lazy")()
    before = len(CHUNK_OPS)
    assert observables(cpu.run()) == expected
    assert module.get_function("spin") in cpu.tier_program.functions
    assert len(CHUNK_OPS) > before


class Interleave:
    """A call hook that runs another CPU to completion from inside the
    hooked CPU's run, at its ``at``-th call."""

    def __init__(self, other, at=5):
        self.other = other
        self.at = at
        self.result = None

    def on_call(self, cpu, function, args):
        self.at -= 1
        if self.at == 0:
            self.result = self.other.run()
        return function


@pytest.mark.parametrize("tier", COMPILED_TIERS)
def test_two_cpus_interleaved_on_one_module(tier):
    module = fresh_module(3)
    expected = observables(run(module, "reference"))
    first = tier_factory(module, tier)()
    # The second CPU shares the compiled program (block, trace-static)
    # or shares the lazy one and tiers it up further (trace-lazy), and
    # runs to completion while the first is inside main's loop with
    # hits pending.
    second = CPU(module, seed=2024, interpreter=first.interpreter)
    hook = first.call_fault_hook = Interleave(second)
    assert observables(first.run()) == expected
    assert observables(hook.result) == expected


@pytest.mark.parametrize("tier", COMPILED_TIERS)
def test_run_twice_on_one_cpu(tier):
    module = fresh_module(5)
    reference = CPU(module, seed=2024, interpreter="reference")
    cpu = tier_factory(module, tier)()
    for attempt in range(2):
        # Counters accumulate across runs; each run folds its own hits.
        assert observables(cpu.run()) == observables(reference.run()), attempt


# -- generated source -------------------------------------------------------------


#: Adjacent opcodes in the chunk compositions whose hits the block and
#: trace programs of all 16 profiles x 4 schemes count, by first opcode;
#: ``"^"`` opens a composition and ``"$"`` closes one.  Recorded from
#: ``composition_pairs`` over every ``protect(generate_program(profile),
#: scheme)``; a change to the generator, the passes or the compilers
#: that adds pairs needs a new recording (and maybe a program in
#: ``SOURCE_PROGRAMS``).
FULL_SET_PAIRS = {
    "^": (
        "add", "alloca", "bitcast", "br", "call", "dfi.chkdef", "dfi.setdef",
        "getelementptr", "icmp", "load", "mul", "pac.sign", "phi", "ptrtoint",
        "ret", "sdiv", "sub",
    ),
    "add": ("$", "and", "bitcast", "br", "getelementptr", "icmp", "mul", "pac.sign", "store"),
    "alloca": ("$", "alloca", "br", "getelementptr"),
    "and": ("add",),
    "bitcast": ("$", "dfi.chkdef"),
    "br": ("$", "add", "br", "phi"),
    "call": ("$",),
    "dfi.chkdef": ("$", "dfi.chkdef", "load"),
    "dfi.setdef": ("$", "br", "getelementptr"),
    "getelementptr": (
        "$", "dfi.chkdef", "getelementptr", "load", "mul", "store", "sub", "trunc",
    ),
    "icmp": ("br", "sec.assert", "zext"),
    "load": (
        "add", "dfi.chkdef", "getelementptr", "icmp", "load", "pac.auth", "ptrtoint",
        "ret", "sext", "srem", "store",
    ),
    "mul": ("add", "ret", "srem"),
    "pac.auth": ("$", "add", "icmp", "load", "store"),
    "pac.sign": ("store",),
    "phi": ("$", "br", "dfi.chkdef", "getelementptr", "icmp", "load", "mul", "phi", "ret"),
    "ptrtoint": ("pac.auth", "pac.sign"),
    "ret": ("$",),
    "sdiv": ("br",),
    "sec.assert": ("br", "getelementptr"),
    "sext": ("add", "icmp"),
    "srem": ("add", "pac.sign", "store"),
    "store": ("$", "br", "dfi.setdef", "getelementptr"),
    "sub": ("br", "icmp"),
    "trunc": ("store",),
    "zext": ("icmp",),
}

#: Four of the 64 programs whose block and trace programs together
#: produce every pair of ``FULL_SET_PAIRS``.
SOURCE_PROGRAMS = (
    ("500.perlbench_r", "pythia"),
    ("508.namd_r", "dfi"),
    ("531.deepsjeng_r", "cpa"),
    ("531.deepsjeng_r", "dfi"),
)


def composition_pairs(sources):
    """The adjacent-opcode pairs of every composition whose hits
    ``sources`` (generated code) count, ``"^"``/``"$"`` at either end."""
    pairs = set()
    for source in sources:
        for cid in re.findall(r"hits\[(\d+)\]", source):
            ops = ("^",) + CHUNK_OPS[int(cid)] + ("$",)
            pairs.update(zip(ops, ops[1:]))
    return pairs


def test_no_generated_source_tallies_per_opcode():
    """Generated code counts hits per chunk: no line of a block or trace
    program adds to the opcode histogram or the instruction count by
    name, on programs whose chunks pair every two opcodes that chunks of
    any generated program pair."""
    sources = []
    for name, scheme in SOURCE_PROGRAMS:
        module = protect(generated(name).compile(), scheme=scheme).module
        for regions in (False, True):
            compiled, _ = trace_compile(module, regions=regions)
            for source in compiled.sources.values():
                assert "counts[" not in source, (name, scheme, regions)
                assert "timing.instructions" not in source, (name, scheme)
                assert "hits[" in source, (name, scheme, regions)
                sources.append(source)
    expected = {(first, then) for first, pairs in FULL_SET_PAIRS.items() for then in pairs}
    assert expected <= composition_pairs(sources)
