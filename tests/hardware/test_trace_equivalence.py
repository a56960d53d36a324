"""Golden equivalence: the profile-guided trace tier vs the other tiers.

The trace tier fuses hot multi-block regions into single generated
functions (inlined handlers, loop-local registers, hoisted DFI batch
checks, memoized PAC auth), so every architectural observable must stay
bit-identical to the decoded oracle and the reference interpreter --
including mid-region traps (side-exit reconciliation), step-limit
crossings, and attack scenarios.  Both region-selection modes are
covered: static (no profile) and profile-guided (warmup counts from
``ExecutionProfiler``).
"""

from __future__ import annotations

import re
from typing import Dict

import pytest

from repro.attacks import build_scenarios
from repro.core import SCHEMES, protect
from repro.hardware import CPU, trace_compile
from repro.hardware.errors import StepLimitExceeded
from repro.observability import ExecutionProfiler
from repro.perf.regions import profile_digest
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

PROFILES = ("505.mcf_r", "502.gcc_r", "519.lbm_r", "525.x264_r")


def assert_same(expected, trace, context):
    assert trace.interpreter == "trace", context
    for field in COMPARED_FIELDS:
        assert getattr(expected, field) == getattr(trace, field), (
            f"{context}: {field} diverged "
            f"({expected.interpreter}={getattr(expected, field)!r}, "
            f"trace={getattr(trace, field)!r})"
        )
    assert expected.opcode_counts == trace.opcode_counts, context
    assert (expected.trap is None) == (trace.trap is None), context
    if expected.trap is not None:
        assert type(expected.trap) is type(trace.trap), context
        assert str(expected.trap) == str(trace.trap), context


def run_with(module, interpreter, inputs=(), **kwargs):
    cpu = CPU(module, seed=2024, interpreter=interpreter, **kwargs)
    return cpu.run(inputs=list(inputs))


def warmup_counts(module, inputs):
    """Per-block execution counts from a profiled block-tier run."""
    profiler = ExecutionProfiler()
    CPU(module, seed=2024, interpreter="block", profiler=profiler).run(
        inputs=list(inputs)
    )
    return profiler.block_counts()


# -- benign benchmark sweep ----------------------------------------------------------


@pytest.fixture(scope="module", params=PROFILES)
def profile_program(request):
    return generate_program(get_profile(request.param))


def test_profile_equivalence_all_schemes(profile_program):
    """Static region selection: every scheme, trace vs decoded vs reference."""
    module = profile_program.compile()
    inputs = list(profile_program.inputs)
    for scheme in SCHEMES:
        protected = protect(module, scheme=scheme)
        context = f"{profile_program.profile.name}/{scheme}"
        reference = run_with(protected.module, "reference", inputs)
        decoded = run_with(protected.module, "decoded", inputs)
        trace = run_with(protected.module, "trace", inputs)
        assert trace.ok, context
        assert_same(reference, trace, f"{context} (vs reference)")
        assert_same(decoded, trace, f"{context} (vs decoded)")


def test_profile_guided_equivalence_all_schemes(profile_program):
    """Profile-guided region selection must stay bit-identical too."""
    module = profile_program.compile()
    inputs = list(profile_program.inputs)
    for scheme in SCHEMES:
        protected = protect(module, scheme=scheme)
        context = f"{profile_program.profile.name}/{scheme} (profile-guided)"
        counts = warmup_counts(protected.module, inputs)
        assert counts, context  # the warmup actually produced counts
        decoded = run_with(protected.module, "decoded", inputs)
        trace = run_with(
            protected.module, "trace", inputs, trace_profile=counts
        )
        assert_same(decoded, trace, context)


# -- attack scenarios: mid-region traps must reconcile their counters ----------------


@pytest.mark.parametrize("scenario_name", sorted(build_scenarios()))
def test_scenario_equivalence_all_schemes(scenario_name):
    scenario = build_scenarios()[scenario_name]
    module = scenario.compile()
    for scheme in SCHEMES:
        protected = protect(module, scheme=scheme)
        for run in ("benign", "attack"):
            runs = {}
            for interpreter in ("reference", "trace"):
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
            assert_same(runs["reference"], runs["trace"], context)
            if run == "attack":
                assert scenario.attack_outcome(
                    runs["reference"]
                ) == scenario.attack_outcome(runs["trace"]), context


# -- step-limit delegation -----------------------------------------------------------


@pytest.mark.parametrize("max_steps", (100, 999, 1000, 5000))
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("selection", ("static", "profile"))
def test_step_limit_trips_at_the_same_op(selection, scheme, max_steps):
    """A deopt flushes, spills and replays: every scheme, both selections."""
    program = generate_program(get_profile("505.mcf_r"))
    module = program.compile()
    inputs = list(program.inputs)
    protected = protect(module, scheme=scheme)
    counts = None
    if selection == "profile":
        counts = warmup_counts(protected.module, inputs)
    reference = run_with(protected.module, "reference", inputs, max_steps=max_steps)
    trace = run_with(
        protected.module, "trace", inputs, max_steps=max_steps,
        trace_profile=counts,
    )
    assert isinstance(reference.trap, StepLimitExceeded)
    assert_same(reference, trace, f"max_steps={max_steps}")


# -- codegen shape: one exit per region --------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
def test_each_region_flushes_its_tally_at_most_twice(scheme):
    """Exits share one epilogue; only the except clause repeats the flush.

    A region with internal edges (its function has a ``while True``
    loop) rebuilds each opcode's count from its chunk counters
    (``counts['op'] += _k0*2 + _k1``).  That line must appear once in
    the epilogue and once in the except clause, however many returns,
    side exits and step-limit guards the region has.
    """
    program = generate_program(get_profile("502.gcc_r"))
    protected = protect(program.compile(), scheme=scheme)
    trace_program, _ = trace_compile(protected.module)
    tally = re.compile(r"^\s*counts\[('[^']+')\] \+= .*\b_k\d+")
    regions = exits = 0
    for source in trace_program.sources.values():
        for function in re.split(r"\n    def ", source)[1:]:
            if "while True:" not in function:
                continue
            regions += 1
            exits += function.count("; break")
            per_opcode: Dict[str, int] = {}
            for line in function.splitlines():
                match = tally.match(line)
                if match:
                    per_opcode[match[1]] = per_opcode.get(match[1], 0) + 1
            assert per_opcode, function.splitlines()[0]
            assert max(per_opcode.values()) <= 2, (
                function.splitlines()[0], per_opcode,
            )
    assert regions >= 1
    assert exits > 2 * regions  # several exits per region on average


# -- batched accounting bails out when it cannot be trusted --------------------------


def test_custom_costs_fall_back_to_decoded(listing1_module):
    module = listing1_module.clone()
    expected_cpu = CPU(module, seed=2024, interpreter="reference")
    expected_cpu.timing.costs["load"] = 9
    expected = expected_cpu.run()
    trace_cpu = CPU(module, seed=2024, interpreter="trace")
    trace_cpu.timing.costs["load"] = 9
    trace = trace_cpu.run()
    assert_same(expected, trace, "custom costs")
    assert trace.cycles == expected.cycles


def test_non_default_issue_width_falls_back(listing1_module):
    module = listing1_module.clone()
    expected_cpu = CPU(module, seed=2024, interpreter="reference")
    expected_cpu.timing.issue_width = 2
    expected = expected_cpu.run()
    trace_cpu = CPU(module, seed=2024, interpreter="trace")
    trace_cpu.timing.issue_width = 2
    trace = trace_cpu.run()
    assert_same(expected, trace, "issue width 2")


# -- compile caching keyed by (fingerprint, profile digest) --------------------------


def test_trace_compile_is_cached_on_the_module(listing1_module):
    module = listing1_module.clone()
    program, first_seconds = trace_compile(module)
    again, second_seconds = trace_compile(module)
    assert again is program
    assert second_seconds == 0.0
    assert first_seconds >= 0.0


def test_new_profile_digest_forces_a_recompile(listing1_module):
    module = listing1_module.clone()
    static, _ = trace_compile(module)
    counts = {"main:entry": 500.0}
    guided, seconds = trace_compile(module, counts)
    assert guided is not static  # digest changed -> regions reselected
    assert seconds > 0.0
    assert guided.profile_digest == profile_digest(counts)
    again, cached_seconds = trace_compile(module, dict(counts))
    assert again is guided  # equal counts -> equal digest -> cache hit
    assert cached_seconds == 0.0


def test_trace_program_fuses_blocks(profile_program):
    """At least one multi-block region exists on a loopy benchmark."""
    module = profile_program.compile()
    protected = protect(module, scheme="vanilla")
    program, _ = trace_compile(protected.module)
    assert program.region_count >= 1
    assert program.fused_blocks > program.region_count  # >1 block somewhere


def test_trace_interpreter_recorded_in_result(listing1_module):
    result = CPU(listing1_module.clone(), interpreter="trace").run()
    assert result.interpreter == "trace"
