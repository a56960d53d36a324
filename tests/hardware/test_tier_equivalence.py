"""Golden equivalence on the whole tier lattice of ``tests/tier_oracle.py``
in one test: a fixed-seed set of small generator variants, and the
bitwise and unsigned handlers no generator emits.  The sweeps over every
profile, scenario and step limit hold one tier column per file
(``test_{decoder,block,trace}_equivalence.py``, ``test_tier_up.py``).
"""

from __future__ import annotations

import pytest

from repro.core import SCHEMES, protect
from repro.frontend import compile_source
from repro.ir import parse_module, verify_module
from repro.workloads import generate_program
from tests.tier_oracle import FAST_TIERS, assert_lattice, assert_program, variants


@pytest.mark.parametrize("profile", variants(), ids=lambda profile: profile.name)
def test_variant_equivalence_all_schemes(profile):
    assert_program(generate_program(profile), FAST_TIERS, tier_up=True)


# -- handlers no generated program reaches --------------------------------------

#: ``|``, ``^``, ``<<`` and ``>>`` on operands that are negative and
#: not constant, in a loop and in a callee.
BITWISE = r"""
int mix(int a, int b) {
    int s = b & 7;
    return (a | b) ^ (a << s) ^ (a >> s) ^ (-64 >> s);
}

int main() {
    int acc = 0;
    int neg = 0 - 64;
    for (int i = 0; i < 12; i = i + 1) {
        int v = neg + i * 9;
        acc = acc + mix(v, i) + (v >> (i % 5)) + ((0 - i) << 3);
        acc = acc ^ (v | (0 - i));
    }
    printf("acc=%d\n", acc);
    return acc & 127;
}
"""

#: ``lshr``, ``select`` and the unsigned compares, which MiniC never
#: emits, on values that are negative as signed integers.
UNSIGNED = """
define i64 @main() {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %loop ]
  %x = sub i64 %i, 5
  %sh = lshr i64 %x, %i
  %lt = icmp ult i64 %x, %sh
  %le = icmp ule i64 %sh, %x
  %gt = icmp ugt i64 %x, 7
  %ge = icmp uge i64 %i, %x
  %pick = select i1 %lt, i64 %sh, i64 %x
  %narrow = trunc i64 %x to i32
  %half = lshr i32 %narrow, 1
  %wide = zext i32 %half to i64
  %f1 = zext i1 %le to i64
  %f2 = zext i1 %gt to i64
  %f3 = zext i1 %ge to i64
  %flags = add i64 %f1, %f2
  %flags2 = add i64 %flags, %f3
  %s1 = add i64 %acc, %pick
  %s2 = add i64 %s1, %wide
  %acc.next = add i64 %s2, %flags2
  %i.next = add i64 %i, 1
  %c = icmp slt i64 %i.next, 9
  br i1 %c, label %loop, label %exit
exit:
  ret i64 %acc.next
}
"""


def test_bitwise_ops_on_negative_operands():
    module = compile_source(BITWISE, name="bitwise")
    for scheme in SCHEMES:
        protected = protect(module, scheme=scheme).module
        reference = assert_lattice(protected, context=f"bitwise/{scheme}")
        assert reference.ok, scheme


def test_unsigned_ops_and_select():
    module = parse_module(UNSIGNED)
    verify_module(module)
    reference = assert_lattice(module, context="unsigned")
    assert reference.ok
