"""Golden equivalence: the block-compiled tier vs the other two tiers.

The block tier batches timing/step accounting per basic block and
inlines handler bodies into generated Python, so every architectural
observable must stay bit-identical to both the decoded and the
reference interpreters -- including mid-block traps (whose counter
state the generated ``except`` clause repairs), step-limit crossings
(delegated to the decoded loop), and attack scenarios.  The benign
sweep, reseeded programs included, also holds the trace tier (the same
compiler with regions) to the reference.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.attacks import build_scenarios
from repro.core import SCHEMES, protect
from repro.hardware import CPU, trace_compile
from repro.hardware.errors import StepLimitExceeded
from repro.ir import parse_module, verify_module
from repro.observability import ExecutionProfiler
from repro.workloads import generate_program, get_profile

#: Every architectural observable of an execution.
COMPARED_FIELDS = (
    "status",
    "return_value",
    "cycles",
    "instructions",
    "ipc",
    "steps",
    "output",
    "pac_sign_count",
    "pac_auth_count",
    "isolated_allocations",
)

#: A spread of generated workloads: integer-heavy, pointer-chasing,
#: and branchy control flow all exercise different specializers.
PROFILES = ("505.mcf_r", "502.gcc_r", "519.lbm_r", "525.x264_r")

#: Reseeded small profiles: generated programs beyond the fixed four.
RESEEDED = (("505.mcf_r", 1), ("519.lbm_r", 2), ("525.x264_r", 3))


def assert_same(expected, block, context):
    assert block.interpreter == "block", context
    for field in COMPARED_FIELDS:
        assert getattr(expected, field) == getattr(block, field), (
            f"{context}: {field} diverged "
            f"({expected.interpreter}={getattr(expected, field)!r}, "
            f"block={getattr(block, field)!r})"
        )
    assert expected.opcode_counts == block.opcode_counts, context
    assert (expected.trap is None) == (block.trap is None), context
    if expected.trap is not None:
        assert type(expected.trap) is type(block.trap), context
        assert str(expected.trap) == str(block.trap), context


def run_with(module, interpreter, inputs=(), **kwargs):
    cpu = CPU(module, seed=2024, interpreter=interpreter, **kwargs)
    if interpreter == "trace":
        # Compile eagerly, so every function runs its generated code
        # rather than staying decoded below the tier-up threshold.
        trace_compile(module, kwargs.get("trace_profile"))
        assert not cpu.tier_program.pending
    return cpu.run(inputs=list(inputs))


# -- benign benchmark sweep ----------------------------------------------------------


@pytest.fixture(
    scope="module",
    params=[(name, None) for name in PROFILES] + list(RESEEDED),
    ids=lambda param: param[0] if param[1] is None else f"{param[0]}-seed{param[1]}",
)
def profile_program(request):
    name, seed = request.param
    profile = get_profile(name)
    if seed is not None:
        profile = dataclasses.replace(profile, seed=seed)
    return generate_program(profile)


def test_profile_equivalence_all_schemes(profile_program):
    module = profile_program.compile()
    inputs = list(profile_program.inputs)
    for scheme in SCHEMES:
        protected = protect(module, scheme=scheme)
        context = f"{profile_program.profile.name}/{scheme}"
        reference = run_with(protected.module, "reference", inputs)
        decoded = run_with(protected.module, "decoded", inputs)
        block = run_with(protected.module, "block", inputs)
        assert block.ok, context
        assert_same(reference, block, f"{context} (vs reference)")
        assert_same(decoded, block, f"{context} (vs decoded)")
        # The trace tier on the same program, its regions selected from
        # a profiled block-tier run: one compiler, both policies.
        profiler = ExecutionProfiler()
        run_with(protected.module, "block", inputs, profiler=profiler)
        trace = run_with(
            protected.module, "trace", inputs,
            trace_profile=profiler.block_counts(),
        )
        for field in COMPARED_FIELDS:
            assert getattr(reference, field) == getattr(trace, field), (
                f"{context}: {field} diverged under trace"
            )
        assert reference.opcode_counts == trace.opcode_counts, context


# -- attack scenarios: mid-block traps must repair their counters --------------------


@pytest.mark.parametrize("scenario_name", sorted(build_scenarios()))
def test_scenario_equivalence_all_schemes(scenario_name):
    scenario = build_scenarios()[scenario_name]
    module = scenario.compile()
    for scheme in SCHEMES:
        protected = protect(module, scheme=scheme)
        for run in ("benign", "attack"):
            runs = {}
            for interpreter in ("reference", "block"):
                if run == "benign":
                    result = scenario.run_benign(
                        protected.module, interpreter=interpreter
                    )
                else:
                    result = scenario.run_attack(
                        protected.module, interpreter=interpreter
                    )
                runs[interpreter] = result
            context = f"{scenario_name}/{scheme}/{run}"
            assert_same(runs["reference"], runs["block"], context)
            if run == "attack":
                assert scenario.attack_outcome(
                    runs["reference"]
                ) == scenario.attack_outcome(runs["block"]), context


# -- step-limit delegation -----------------------------------------------------------


@pytest.mark.parametrize("max_steps", (100, 999, 1000, 5000))
def test_step_limit_trips_at_the_same_op(max_steps):
    program = generate_program(get_profile("505.mcf_r"))
    module = program.compile()
    inputs = list(program.inputs)
    protected = protect(module, scheme="pythia")
    reference = run_with(protected.module, "reference", inputs, max_steps=max_steps)
    block = run_with(protected.module, "block", inputs, max_steps=max_steps)
    assert isinstance(reference.trap, StepLimitExceeded)
    assert_same(reference, block, f"max_steps={max_steps}")


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
    assert_same(run_with(module, "reference"), run_with(module, "block"), "self-loop")
    # Every iteration re-enters through the driver, so it is counted.
    profiler = ExecutionProfiler()
    run_with(module, "block", profiler=profiler)
    assert profiler.block_counts()["main:loop"] == 500
    # ... and re-checked against the step limit.
    reference = run_with(module, "reference", max_steps=1234)
    block = run_with(module, "block", max_steps=1234)
    assert reference.status == "limit"
    assert_same(reference, block, "self-loop, max_steps=1234")


# -- batched accounting bails out when it cannot be trusted --------------------------


def test_custom_costs_fall_back_to_decoded(listing1_module):
    module = listing1_module.clone()
    expected_cpu = CPU(module, seed=2024, interpreter="reference")
    expected_cpu.timing.costs["load"] = 9
    expected = expected_cpu.run()
    block_cpu = CPU(module, seed=2024, interpreter="block")
    block_cpu.timing.costs["load"] = 9
    block = block_cpu.run()
    assert_same(expected, block, "custom costs")
    assert block.cycles == expected.cycles


def test_non_default_issue_width_falls_back(listing1_module):
    module = listing1_module.clone()
    expected_cpu = CPU(module, seed=2024, interpreter="reference")
    expected_cpu.timing.issue_width = 2
    expected = expected_cpu.run()
    block_cpu = CPU(module, seed=2024, interpreter="block")
    block_cpu.timing.issue_width = 2
    block = block_cpu.run()
    assert_same(expected, block, "issue width 2")


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


def test_block_interpreter_recorded_in_result(listing1_module):
    result = CPU(listing1_module.clone(), interpreter="block").run()
    assert result.interpreter == "block"
