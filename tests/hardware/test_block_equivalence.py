"""Golden equivalence: the block column of ``tests/tier_oracle.py``.

The block tier batches timing/step accounting per basic block and
inlines handler bodies into generated Python, so every observable of a
run must stay bit-identical to the reference interpreter's -- including
mid-block traps (whose counter state the generated ``except`` clause
repairs), step-limit crossings and attack scenarios.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.attacks import build_scenarios
from repro.core import SCHEMES
from repro.hardware import CPU, trace_compile, tracec
from repro.ir import parse_module, verify_module
from repro.observability import ExecutionProfiler
from repro.workloads import profile_names
from tests.tier_oracle import (
    assert_lattice,
    assert_program,
    assert_scenario,
    assert_step_limit,
    assert_timing_falls_back,
    custom_costs,
    generated,
    narrow_issue,
    run,
)

TIERS = ("block",)


# -- benign benchmark sweep ----------------------------------------------------------


@pytest.mark.parametrize("name", profile_names())
def test_profile_equivalence_all_schemes(name):
    assert_program(generated(name), TIERS)


# -- attack scenarios: mid-block traps must repair their counters --------------------


@pytest.mark.parametrize("scenario_name", sorted(build_scenarios()))
def test_scenario_equivalence_all_schemes(scenario_name):
    assert_scenario(scenario_name, TIERS)


# -- step-limit hand-off -------------------------------------------------------------


@pytest.mark.parametrize("max_steps", (100, 999, 1000, 5000))
def test_step_limit_trips_at_the_same_op(max_steps):
    # The decoded loop stops through the same hand-off.
    for scheme in SCHEMES:
        assert_step_limit(scheme, max_steps, ("decoded",) + TIERS)


# -- the base case: a block compiled alone returns to the driver on every edge -------

SELF_LOOP = """
define i64 @main() {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %s = phi i64 [ 0, %entry ], [ %s.next, %loop ]
  %s.next = add i64 %s, %i
  %i.next = add i64 %i, 1
  %c = icmp slt i64 %i.next, 500
  br i1 %c, label %loop, label %exit
exit:
  ret i64 %s.next
}
"""


def test_single_block_self_loop_never_loops_inside_its_code():
    module = parse_module(SELF_LOOP)
    verify_module(module)
    assert_lattice(module, context="self-loop")
    # Every iteration re-enters through the driver, so it is counted.
    profiler = ExecutionProfiler()
    run(module, "block", profiler=profiler)
    assert profiler.block_counts()["main:loop"] == 500
    # ... and re-checked against the step limit.
    reference = assert_lattice(
        module, context="self-loop, max_steps=1234", max_steps=1234
    )
    assert reference.status == "limit"


# -- batched accounting bails out when it cannot be trusted --------------------------


def test_custom_costs_fall_back_to_decoded(listing1_module):
    assert_timing_falls_back(listing1_module, custom_costs, ("decoded",) + TIERS)


def test_non_default_issue_width_falls_back(listing1_module):
    assert_timing_falls_back(listing1_module, narrow_issue, ("decoded",) + TIERS)


# -- compile caching -----------------------------------------------------------------


def test_block_and_trace_programs_coexist_on_the_module(listing1_module):
    # Block is the trace compiler's no-region policy; each policy caches
    # in its own slot, so alternating tiers on one module never recompiles.
    module = listing1_module.clone()
    first = {}
    for interpreter in ("block", "trace", "block", "trace"):
        cpu = CPU(module, seed=2024, interpreter=interpreter)
        program = cpu._block
        if interpreter in first:
            assert program is first[interpreter], interpreter
            # decode + compile seconds spent by this construction: both
            # caches hit, so nothing is compiled.
            assert cpu.decode_seconds == 0.0, interpreter
        else:
            first[interpreter] = program
    assert first["block"] is not first["trace"]
    assert first["block"].region_count == 0
    assert first["block"].fused_blocks == 0
    # The trace tier compiles lazily; an eager compile fills the very
    # program its CPUs hold.
    program, _ = trace_compile(module)
    assert program is first["trace"]
    assert program.region_count >= 1


def test_block_and_static_trace_programs_coexist(listing1_module):
    # Block and trace programs cache in separate slots, so alternating
    # eager compiles compiles each function once per policy.
    module = listing1_module.clone()
    compiled = []
    compile_function = tracec._compile_function

    def counting(function, dblock, layout, regions):
        compiled.append((function.name, regions))
        return compile_function(function, dblock, layout, regions)

    with mock.patch.object(tracec, "_compile_function", counting):
        programs = [
            trace_compile(module, regions=regions)[0]
            for regions in (False, True, False, True)
        ]
    assert programs[0] is programs[2] and programs[1] is programs[3]
    assert programs[0] is not programs[1]
    names = [function.name for function in module.defined_functions()]
    assert sorted(compiled) == sorted(
        (name, regions) for name in names for regions in (False, True)
    )


def test_block_interpreter_recorded_in_result(listing1_module):
    result = CPU(listing1_module.clone(), interpreter="block").run()
    assert result.interpreter == "block"
