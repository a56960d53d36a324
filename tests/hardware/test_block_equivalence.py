"""Golden equivalence: the block-compiled tier vs the other two tiers.

The block tier batches timing/step accounting per basic block and
inlines handler bodies into generated Python, so every architectural
observable must stay bit-identical to both the decoded and the
reference interpreters -- including mid-block traps (whose counter
state the generated ``except`` clause repairs), step-limit crossings
(delegated to the decoded loop), and attack scenarios.
"""

from __future__ import annotations

import pytest

from repro.attacks import build_scenarios
from repro.core import SCHEMES, protect
from repro.hardware import CPU
from repro.hardware.errors import StepLimitExceeded
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
    return cpu.run(inputs=list(inputs))


# -- benign benchmark sweep ----------------------------------------------------------


@pytest.fixture(scope="module", params=PROFILES)
def profile_program(request):
    return generate_program(get_profile(request.param))


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
    assert first["trace"].region_count >= 1


def test_block_interpreter_recorded_in_result(listing1_module):
    result = CPU(listing1_module.clone(), interpreter="block").run()
    assert result.interpreter == "block"
