"""Fused compare-and-branch exits on the whole tier lattice.

A conditional branch on a compare nothing else reads is a *fused exit*
(``decoder._fused_compare``): the decoded loop tests the compare on its
operands, and the block and trace tiers emit the compare as the branch's
own test, sign-flipped for a signed predicate.  These cases hold every
``icmp`` predicate at the boundary operands of i8, i32 and i64 to the
reference, with either operand a constant; a compare with a second use,
which must not fuse; and a fused block after a call, stopped at every
step so the rest of its call resumes on the reference tier.
"""

from __future__ import annotations

import pytest

from repro.hardware.decoder import DecodedBlock, decode_module
from repro.ir import parse_module, verify_module
from repro.ir.instructions import ICMP_PREDICATES
from tests.tier_oracle import FAST_TIERS, assert_lattice, assert_sweep, run

WIDTHS = (8, 32, 64)


def boundaries(bits):
    """0, 1, the largest and smallest signed values and all-ones."""
    return (0, 1, (1 << (bits - 1)) - 1, 1 << (bits - 1), (1 << bits) - 1)


def _compare_diamond(lines, k, ty, predicate, lhs, rhs, acc, short):
    """Compare ``k``: add ``2**k`` to ``acc`` when ``lhs P rhs`` holds,
    branching on the ``icmp`` itself (``short``) or on the frontend's
    ``icmp; zext; icmp ne 0`` form.  Returns the new accumulator."""
    if short:
        lines.append(f"  %t{k} = icmp {predicate} {ty} {lhs}, {rhs}")
    else:
        lines.append(f"  %c{k} = icmp {predicate} {ty} {lhs}, {rhs}")
        lines.append(f"  %z{k} = zext i1 %c{k} to i64")
        lines.append(f"  %t{k} = icmp ne i64 %z{k}, 0")
    lines += [
        f"  br i1 %t{k}, label %yes{k}, label %no{k}",
        f"yes{k}:",
        f"  %y{k} = add i64 {acc}, {1 << k}",
        f"  br label %join{k}",
        f"no{k}:",
        f"  br label %join{k}",
        f"join{k}:",
        f"  %a{k} = phi i64 [ %y{k}, %yes{k} ], [ {acc}, %no{k} ]",
    ]
    return f"%a{k}"


def _function(name, params, compares):
    """``compares`` is a list of ``(ty, predicate, lhs, rhs)``; each gets
    its own diamond, alternating the short and the frontend form."""
    lines = [f"define i64 @{name}({params}) {{", "entry:", "  br label %b0", "b0:"]
    acc = "0"
    for k, (ty, predicate, lhs, rhs) in enumerate(compares):
        acc = _compare_diamond(lines, k, ty, predicate, lhs, rhs, acc, k % 2 == 0)
    lines += [f"  ret i64 {acc}", "}"]
    return lines


def predicate_module(bits):
    """Every predicate on ``bits``-wide boundary operands: both operands
    variable (``@v_P``), the constant on the left (``@l_P``) and on the
    right (``@r_P``), each a function small enough to fuse whole."""
    ty = f"i{bits}"
    values = boundaries(bits)
    lines = []
    calls = []
    for predicate in ICMP_PREDICATES:
        lines += _function(
            f"v_{predicate}", f"{ty} %p, {ty} %q",
            [(ty, predicate, "%p", "%q"), (ty, predicate, "%q", "%p")],
        )
        lines += _function(
            f"l_{predicate}", f"{ty} %p", [(ty, predicate, c, "%p") for c in values]
        )
        lines += _function(
            f"r_{predicate}", f"{ty} %p", [(ty, predicate, "%p", c) for c in values]
        )
        for a in values:
            calls.append(f"@l_{predicate}({ty} {a})")
            calls.append(f"@r_{predicate}({ty} {a})")
            for b in values:
                calls.append(f"@v_{predicate}({ty} {a}, {ty} {b})")
    lines += ["define i64 @main() {", "entry:"]
    acc = "0"
    for index, call in enumerate(calls):
        lines.append(f"  %r{index} = call i64 {call}")
        lines.append(f"  %m{index} = mul i64 {acc}, 31")
        lines.append(f"  %s{index} = add i64 %m{index}, %r{index}")
        acc = f"%s{index}"
    lines += [f"  ret i64 {acc}", "}"]
    module = parse_module("\n".join(lines) + "\n")
    verify_module(module)
    return module


def decoded_blocks(module):
    """``(function name, block name) -> DecodedBlock`` over ``module``."""
    program, _ = decode_module(module)
    blocks = {}
    for function, entry in program.functions.items():
        stack = [entry]
        while stack:
            dblock = stack.pop()
            key = (function.name, dblock.source.name)
            if key not in blocks:
                blocks[key] = dblock
                stack.extend(s for s in dblock.term[1:] if isinstance(s, DecodedBlock))
    return blocks


def fused(module):
    """Function name -> the ``n`` of every fused exit it decodes to."""
    found = {}
    for (name, _), dblock in decoded_blocks(module).items():
        covered = found.setdefault(name, [])
        if dblock.fused is not None:
            covered.append(dblock.fused[1])
    return {name: sorted(covered) for name, covered in found.items()}


@pytest.mark.parametrize("bits", WIDTHS)
def test_every_predicate_at_boundary_operands(bits):
    module = predicate_module(bits)
    exits = fused(module)
    for predicate in ICMP_PREDICATES:
        assert exits[f"v_{predicate}"] == [1, 3]
        assert exits[f"l_{predicate}"] == exits[f"r_{predicate}"] == [1, 1, 1, 3, 3]
    reference = assert_lattice(module, context=f"i{bits}")
    assert reference.ok and reference.return_value


#: A compare a ``select`` also reads, and a ``zext`` a store also reads:
#: neither chain may fuse whole.
SECOND_USE = """
define i64 @main() {
entry:
  %slot = alloca i64
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %tail ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %tail ]
  %x = sub i64 %i, 3
  %c = icmp slt i64 %x, 2
  %pick = select i1 %c, i64 5, i64 9
  br i1 %c, label %tail, label %odd
odd:
  %d = icmp sgt i64 %x, 4
  %z = zext i1 %d to i64
  store i64 %z, i64* %slot
  %t = icmp ne i64 %z, 0
  br i1 %t, label %tail, label %tail
tail:
  %stored = load i64, i64* %slot
  %s1 = add i64 %acc, %pick
  %acc.next = add i64 %s1, %stored
  %i.next = add i64 %i, 1
  %e = icmp ult i64 %i.next, 9
  br i1 %e, label %loop, label %exit
exit:
  ret i64 %acc.next
}
"""


def test_a_compare_with_a_second_use_does_not_fuse():
    module = parse_module(SECOND_USE)
    verify_module(module)
    blocks = {name: dblock for (_, name), dblock in decoded_blocks(module).items()}
    assert blocks["loop"].fused is None
    assert blocks["odd"].fused[1] == 1  # only the last icmp ne
    assert blocks["tail"].fused[1] == 1
    reference = assert_lattice(module, context="second use")
    assert reference.ok and reference.return_value


#: A loop whose fused exit sits after a call in the same block.
CALL_THEN_FUSED = """
define i64 @step(i64 %v) {
entry:
  %w = mul i64 %v, 3
  %u = add i64 %w, 1
  ret i64 %u
}

define i64 @main() {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %loop ]
  %r = call i64 @step(i64 %i)
  %acc.next = add i64 %acc, %r
  %i.next = add i64 %i, 1
  %c = icmp slt i64 %i.next, 4
  %z = zext i1 %c to i64
  %t = icmp ne i64 %z, 0
  br i1 %t, label %loop, label %exit
exit:
  ret i64 %acc.next
}
"""


def test_fused_block_after_a_call_stops_at_every_step():
    module = parse_module(CALL_THEN_FUSED)
    verify_module(module)
    assert fused(module)["main"] == [3]
    full = run(module, "reference")
    assert full.ok
    limits = range(1, full.steps + 2)
    results = assert_sweep(
        module, (), "call then fused exit", [{"max_steps": n} for n in limits], FAST_TIERS
    )
    for max_steps, result in zip(limits, results):
        assert result.status == ("ok" if max_steps >= full.steps else "limit")
