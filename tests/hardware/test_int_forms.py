"""The compiled tiers' integer forms that build no int, on the tier lattice.

Generated code compares signed i64 values without sign-flipping them:
two locals as ``(x < y) != ((x >= S) != (y >= S))``, a variable and a
constant as a chained compare over one unsigned range, or its
complement (``blockc._signed64_against``).  A gep adds its dynamic
indices as stored, with no sign flip (``decoder._gep_plan``), and a
64-bit ``and``/``or``/``xor`` skips the mask.  These cases hold each
form to the reference where it could go wrong: every signed predicate
against negative constants (``2**63``, ``2**63 + 1``, ``2**64 - 1``)
with the constant on either side, as a branch and as a value; and
geps whose dynamic index is negative, in a loop region, in a function
of one block (compiled with no internal edges), with a global base
and with two dynamic indices.
"""

from __future__ import annotations

from repro.ir import parse_module, verify_module
from tests.tier_oracle import assert_lattice

SIGNED = ("slt", "sle", "sgt", "sge")

S = 1 << 63

#: The operands each compare sees: both sides of 0 and of the sign bit,
#: and all-ones.
VALUES = (0, 1, S - 2, S - 1, S, S + 1, S + 2, (1 << 64) - 2, (1 << 64) - 1)

#: The negative constants, then a few non-negative ones.
CONSTANTS = (S, S + 1, (1 << 64) - 1, 0, 5, S - 1)


def _signed_module():
    """``@r_P``/``@l_P``: every constant on the right/left of ``P``;
    ``@v_P``: both operands variable; ``@bits``: and/or/xor."""
    lines = []
    calls = []
    for predicate in SIGNED:
        lines += _compare_fn(
            f"r_{predicate}", "i64 %p", [(predicate, "%p", c) for c in CONSTANTS]
        )
        lines += _compare_fn(
            f"l_{predicate}", "i64 %p", [(predicate, c, "%p") for c in CONSTANTS]
        )
        lines += _compare_fn(
            f"v_{predicate}", "i64 %p, i64 %q",
            [(predicate, "%p", "%q"), (predicate, "%y", "%x")],
            prelude=["  %x = add i64 %p, 0", "  %y = add i64 %q, 0"],
        )
        for a in VALUES:
            calls.append(f"@r_{predicate}(i64 {a})")
            calls.append(f"@l_{predicate}(i64 {a})")
            for b in VALUES:
                calls.append(f"@v_{predicate}(i64 {a}, i64 {b})")
    lines += [
        "define i64 @bits(i64 %p, i64 %q) {",
        "entry:",
        "  %a = and i64 %p, %q",
        "  %o = or i64 %p, %q",
        "  %x = xor i64 %p, %q",
        "  %n = xor i64 %p, -1",
        "  %s1 = add i64 %a, %o",
        "  %s2 = mul i64 %s1, 7",
        "  %s3 = add i64 %s2, %x",
        "  %s4 = add i64 %s3, %n",
        "  %c = icmp ult i64 %o, %x",
        "  br i1 %c, label %lt, label %ge",
        "lt:",
        "  ret i64 %s4",
        "ge:",
        "  %s5 = add i64 %s4, 1",
        "  ret i64 %s5",
        "}",
    ]
    for a in VALUES:
        for b in VALUES:
            calls.append(f"@bits(i64 {a}, i64 {b})")
    lines += _main(calls)
    return _parsed(lines)


def _compare_fn(name, params, pairs, prelude=()):
    """A function testing each ``(predicate, lhs, rhs)`` of ``pairs``
    twice: as a value (``icmp; zext`` folded into the result) and as a
    branch on the ``icmp`` itself (a fused exit).  ``prelude`` defines
    values the compares may read: compiled code keeps them in locals,
    where arguments stay in frame slots."""
    lines = [f"define i64 @{name}({params}) {{", "entry:", *prelude]
    acc = "0"
    for k, (predicate, lhs, rhs) in enumerate(pairs):
        lines += [
            f"  %c{k} = icmp {predicate} i64 {lhs}, {rhs}",
            f"  %z{k} = zext i1 %c{k} to i64",
            f"  %m{k} = mul i64 {acc}, 2",
            f"  %v{k} = add i64 %m{k}, %z{k}",
        ]
        acc = f"%v{k}"
    lines.append("  br label %b0")
    for k, (predicate, lhs, rhs) in enumerate(pairs):
        lines += [
            f"b{k}:",
            f"  %a{k} = phi i64 [ {acc}, %{'entry' if k == 0 else f'j{k - 1}'} ]",
            f"  %t{k} = icmp {predicate} i64 {lhs}, {rhs}",
            f"  br i1 %t{k}, label %yes{k}, label %j{k}",
            f"yes{k}:",
            f"  %y{k} = add i64 %a{k}, {1 << (k + 32)}",
            f"  br label %j{k}",
            f"j{k}:",
            f"  %e{k} = phi i64 [ %y{k}, %yes{k} ], [ %a{k}, %b{k} ]",
            f"  br label %b{k + 1}",
        ]
        acc = f"%e{k}"
    lines += [f"b{len(pairs)}:", f"  ret i64 {acc}", "}"]
    return lines


def _main(calls):
    """``@main`` folding every call's result into one hash."""
    lines = ["define i64 @main() {", "entry:"]
    acc = "0"
    for index, call in enumerate(calls):
        lines += [
            f"  %r{index} = call i64 {call}",
            f"  %h{index} = mul i64 {acc}, 31",
            f"  %s{index} = add i64 %h{index}, %r{index}",
        ]
        acc = f"%s{index}"
    lines += [f"  ret i64 {acc}", "}"]
    return lines


def _parsed(lines):
    module = parse_module("\n".join(lines) + "\n")
    verify_module(module)
    return module


def test_signed_i64_compares_against_negative_constants_on_either_side():
    reference = assert_lattice(_signed_module(), context="signed i64")
    assert reference.ok and reference.return_value


#: ``@walk`` reads a stack array backwards through a negative index in
#: a loop; ``@back`` and ``@grid`` are single blocks, one dynamic index
#: and two (the row index -1); ``@table`` indexes a global backwards.
GEPS = """
@tbl = global [8 x i64] zeroinitializer

define i64 @walk(i64* %end, i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %s = phi i64 [ 0, %entry ], [ %s.next, %loop ]
  %neg = sub i64 0, %i
  %p = getelementptr i64* %end, i64 %neg
  %v = load i64, i64* %p
  %m = mul i64 %s, 3
  %s.next = add i64 %m, %v
  %i.next = add i64 %i, 1
  %c = icmp slt i64 %i.next, %n
  br i1 %c, label %loop, label %exit
exit:
  ret i64 %s.next
}

define i64 @back(i64* %end, i64 %k) {
entry:
  %p = getelementptr i64* %end, i64 %k
  %v = load i64, i64* %p
  ret i64 %v
}

define i64 @grid([4 x i64]* %row, i64 %r, i64 %j) {
entry:
  %p = getelementptr [4 x i64]* %row, i64 %r, i64 %j
  %v = load i64, i64* %p
  ret i64 %v
}

define i64 @table(i64 %k) {
entry:
  %p = getelementptr [8 x i64]* @tbl, i64 1, i64 %k
  %v = load i64, i64* %p
  ret i64 %v
}

define i64 @main() {
entry:
  %a = alloca [8 x i64]
  %g = alloca [2 x [4 x i64]]
  br label %fill
fill:
  %i = phi i64 [ 0, %entry ], [ %i.next, %fill ]
  %slot = getelementptr [8 x i64]* %a, i64 0, i64 %i
  %v = mul i64 %i, 7
  %v1 = add i64 %v, 1
  store i64 %v1, i64* %slot
  %gslot = getelementptr [2 x [4 x i64]]* %g, i64 0, i64 0, i64 %i
  %w = mul i64 %i, 11
  store i64 %w, i64* %gslot
  %tslot = getelementptr [8 x i64]* @tbl, i64 0, i64 %i
  %u = add i64 %w, 5
  store i64 %u, i64* %tslot
  %i.next = add i64 %i, 1
  %c = icmp slt i64 %i.next, 8
  br i1 %c, label %fill, label %done
done:
  %end = getelementptr [8 x i64]* %a, i64 0, i64 7
  %r1 = call i64 @walk(i64* %end, i64 8)
  %r2 = call i64 @back(i64* %end, i64 -3)
  %row1 = getelementptr [2 x [4 x i64]]* %g, i64 0, i64 1
  %r3 = call i64 @grid([4 x i64]* %row1, i64 -1, i64 2)
  %r4 = call i64 @table(i64 -6)
  %h1 = mul i64 %r1, 31
  %h2 = add i64 %h1, %r2
  %h3 = mul i64 %h2, 31
  %h4 = add i64 %h3, %r3
  %h5 = mul i64 %h4, 31
  %h6 = add i64 %h5, %r4
  ret i64 %h6
}
"""


def test_geps_with_negative_dynamic_indices():
    module = parse_module(GEPS)
    verify_module(module)
    reference = assert_lattice(module, context="negative gep")
    assert reference.ok
    # walk: the array backwards; back: a[4]; grid: g[0][2]; table: tbl[2]
    walked = 0
    for i in range(8):
        walked = walked * 3 + (7 - i) * 7 + 1
    expected = ((walked * 31 + 29) * 31 + 22) * 31 + 27
    assert reference.return_value == expected
