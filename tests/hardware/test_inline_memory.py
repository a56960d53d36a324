"""Inline sized loads and stores on the whole tier lattice.

The decoded handlers and the generated code of the block and trace
tiers index the memory's windows directly and fall back to
``read_int``/``write_int`` on a miss (see the ``Memory`` class
docstring).  These cases hold loads and stores of every width to the
reference at the points where a miss must take the generic path: a
segment's last bytes, across the materialised tail, the unmapped window
below the globals, past the last segment, and through a chaos-armed
memory, whose stores all take the method path.  Status, fault address,
cycles and output are among the observables compared.

The frame slots that ``CPU.stack_slot_address`` reads are held here too.
"""

from __future__ import annotations

import pytest

from repro.frontend import compile_source
from repro.hardware.memory import (
    GLOBAL_BASE,
    HEAP_ISOLATED_BASE,
    HEAP_SHARED_BASE,
    SEGMENT_SIZE,
    STACK_BASE,
)
from repro.ir import parse_module, verify_module
from repro.robustness import FaultInjector, FaultPlan, FaultSpec
from repro.hardware.oracle import observables
from tests.tier_oracle import TIERS, assert_lattice, run, tier_factory

WIDTHS = (8, 16, 32, 64)
BASES = (GLOBAL_BASE, STACK_BASE, HEAP_SHARED_BASE, HEAP_ISOLATED_BASE)


def _touch(bits):
    """``@touchN(addr, v)``: load, store ``v + i`` and reload at ``addr``
    twice in a loop (a trace region with internal edges); returns the
    xor of each load before and after its store, summed."""
    ty = f"i{bits}"

    def wide(name, value):
        return [] if bits == 64 else [f"  %{name} = zext {ty} {value} to i64"]

    before = "%b" if bits == 64 else "%bw"
    after = "%a" if bits == 64 else "%aw"
    store = "%w" if bits == 64 else "%wn"
    return [
        f"define i64 @touch{bits}(i64 %addr, i64 %v) {{",
        "entry:",
        f"  %p = inttoptr i64 %addr to {ty}*",
        "  br label %loop",
        "loop:",
        "  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]",
        "  %acc = phi i64 [ 0, %entry ], [ %acc.next, %loop ]",
        f"  %b = load {ty}, {ty}* %p",
        *wide("bw", "%b"),
        "  %w = add i64 %v, %i",
        *([] if bits == 64 else [f"  %wn = trunc i64 %w to {ty}"]),
        f"  store {ty} {store}, {ty}* %p",
        f"  %a = load {ty}, {ty}* %p",
        *wide("aw", "%a"),
        f"  %x = xor i64 {before}, {after}",
        "  %acc.next = add i64 %acc, %x",
        "  %i.next = add i64 %i, 1",
        "  %c = icmp slt i64 %i.next, 2",
        "  br i1 %c, label %loop, label %exit",
        "exit:",
        "  ret i64 %acc.next",
        "}",
    ]


def _edge_addresses(bits):
    """Per window: its first bytes, across the tail a first access
    leaves materialised (4 KiB) and the one after that (8 KiB), and its
    last bytes."""
    size = bits // 8
    half = size // 2
    for base in BASES:
        for address in (base, base + 4096 - half, base + 8192 - half,
                        base + SEGMENT_SIZE - size):
            yield address


def edge_module():
    """``main`` touches every width at every edge address through
    ``@touchN`` and straight-line in its own body (a block compiled
    alone), one or the other first, and through a constant pointer: a
    global that no initializer materialised."""
    lines = ["@g = global i64 zeroinitializer"]
    body = ["define i64 @main() {", "entry:", "  %s0 = load i64, i64* @g",
            "  store i64 12345, i64* @g", "  %s1 = load i64, i64* @g",
            "  %t1 = add i64 %s0, %s1"]
    acc = "%t1"
    k = 0
    for bits in WIDTHS:
        lines += _touch(bits)
        ty = f"i{bits}"
        for address in _edge_addresses(bits):
            k += 1
            value = (0x0123456789ABCDEF * k) & ((1 << 64) - 1)
            call = f"  %r{k} = call i64 @touch{bits}(i64 {address}, i64 {value})"
            straight = [
                f"  %q{k} = inttoptr i64 {address} to {ty}*",
                f"  %l{k} = load {ty}, {ty}* %q{k}",
                f"  store {ty} {value & ((1 << bits) - 1)}, {ty}* %q{k}",
            ]
            # Whichever comes first at an address takes its misses.
            body += [call] + straight if k % 2 else straight + [call]
            loaded = f"%l{k}"
            if bits != 64:
                body.append(f"  %z{k} = zext {ty} %l{k} to i64")
                loaded = f"%z{k}"
            body += [
                f"  %m{k} = mul i64 {acc}, 31",
                f"  %n{k} = add i64 %m{k}, %r{k}",
                f"  %o{k} = add i64 %n{k}, {loaded}",
            ]
            acc = f"%o{k}"
    body += [f"  ret i64 {acc}", "}"]
    module = parse_module("\n".join(lines + body))
    verify_module(module)
    return module


def test_every_width_at_every_edge_matches_the_reference():
    reference = assert_lattice(edge_module(), context="edges")
    assert reference.ok


def _arm(cpu):
    plan = FaultPlan(7, (FaultSpec("mem.flip", trigger=3, count=1000),))
    FaultInjector(plan).arm(cpu)


def test_chaos_armed_memory_stores_take_the_hook_on_every_tier():
    module = edge_module()
    reference = assert_lattice(module, context="chaos", setup=_arm)
    assert reference.ok
    # The hook flipped bits: the checksum differs from an unarmed run.
    assert reference.return_value != run(module, "reference").return_value


#: Addresses every access faults at: the unmapped window below the
#: globals (non-null, and just below 4 GiB), a stack access straddling
#: the segment's capacity, past the last segment's capacity, the window
#: after the last one, and the top of the address space.
FAULTS = (
    0x1000,
    GLOBAL_BASE - 8,
    STACK_BASE + SEGMENT_SIZE - 1,
    HEAP_ISOLATED_BASE + SEGMENT_SIZE,
    HEAP_ISOLATED_BASE + (1 << 32),
    (1 << 64) - 8,
)


def fault_module(bits, store, address):
    ty = f"i{bits}"
    access = (
        f"  store {ty} 1, {ty}* %p" if store else f"  %v = load {ty}, {ty}* %p"
    )
    module = parse_module("\n".join([
        "define i64 @main() {",
        "entry:",
        f"  %p = inttoptr i64 {address} to {ty}*",
        access,
        "  ret i64 0",
        "}",
    ]))
    verify_module(module)
    return module


@pytest.mark.parametrize("address", FAULTS, ids=hex)
def test_every_width_faults_where_the_reference_faults(address):
    for bits in WIDTHS:
        if address + bits // 8 <= STACK_BASE + SEGMENT_SIZE <= address + 8:
            continue  # the stack's last byte: in bounds for an i8
        for store in (False, True):
            context = f"{'store' if store else 'load'} i{bits} at {address:#x}"
            reference = assert_lattice(
                fault_module(bits, store, address), context=context
            )
            assert reference.status == "fault", context
            assert f"at {address:#x}" in str(reference.trap), context


@pytest.mark.parametrize("bits", WIDTHS[:-1])
def test_a_wide_value_stored_narrow_is_masked_on_every_tier(bits):
    """A run's arguments are masked to 64 bits only, so an i8 parameter
    can hold 300; a store keeps the low bytes, as write_int does."""
    ty = f"i{bits}"
    module = parse_module("\n".join([
        "@g = global i64 zeroinitializer",
        f"define i64 @main({ty} %x) {{",
        "entry:",
        f"  %p = bitcast i64* @g to {ty}*",
        f"  store {ty} %x, {ty}* %p",
        "  %r = load i64, i64* @g",
        "  ret i64 %r",
        "}",
    ]))
    verify_module(module)
    wide = (1 << 40) + 0x12345678 + 300
    expected = observables(tier_factory(module, "reference")().run(args=[wide]))
    assert expected["return_value"] == wide & ((1 << bits) - 1)
    for tier in TIERS[1:]:
        result = tier_factory(module, tier)().run(args=[wide])
        assert observables(result) == expected, tier


class _SlotSpy:
    """An attack controller that records ``stack_slot_address("buf")``
    and the buffer each ``gets`` writes, and sends nothing."""

    def __init__(self):
        self.seen = []

    def payload_for(self, cpu, channel, args):
        self.seen.append((cpu.stack_slot_address("buf"), args[0]))
        return b""


SLOTS = """
int inner(int n) {
    char buf[8];
    int x = n;
    if (n >= 0) { char other[16]; gets(other); x = x + other[0]; }
    return x + buf[0];
}
int main() {
    char buf[32];
    gets(buf);
    return inner(buf[0]);
}
"""


@pytest.mark.parametrize("tier", TIERS)
def test_stack_slot_address_innermost_frame_and_first_alloca_win(tier):
    module = compile_source(SLOTS, name="slots")
    # A second alloca named "buf" in inner's frame, after the first.
    (other,) = [
        inst for inst in module.get_function("inner").allocas()
        if inst.name == "other"
    ]
    other.name = "buf"
    spy = _SlotSpy()
    assert run(module, tier, attack=spy).ok
    (main_slot, main_buf), (inner_slot, inner_other) = spy.seen
    # In main, its own buf.
    assert main_slot == main_buf
    # In inner (innermost), its first "buf" -- 16 bytes below the
    # second, which gets is filling -- and not main's.
    assert inner_slot == inner_other - 16
    assert inner_slot != main_slot
