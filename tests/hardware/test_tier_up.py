"""Tier-up: the trace tier compiles a function once its steps pay back.

An unprofiled trace-tier CPU starts from a program with nothing
compiled, counts each decoded call's own steps (callees excluded) on
the module's memoized program, and compiles a function for its next
call once the count reaches ``TIER_UP_STEPS_PER_INST`` per IR
instruction.  A low monkeypatched threshold makes decoded and compiled
frames mix within one run; every observable must still match the
reference interpreter.  Every generated profile runs this way, as the
``trace-lazy`` column of ``tests/tier_oracle.py``'s profile sweep.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.frontend import compile_source
from repro.hardware import CPU, tracec
from repro.hardware.oracle import observables
from repro.metrics import measure_program
from repro.workloads import generate_program, get_profile, profile_names
from tests.tier_oracle import (
    LOW_THRESHOLD,
    assert_program,
    assert_step_limit,
    generated,
    run,
)

SOURCE = """
int step(int x) {
    int total = 0;
    for (int i = 0; i < 8; i = i + 1) { total = total + x * i; }
    return total % 1009;
}

int main() {
    int acc = 0;
    for (int i = 0; i < 400; i = i + 1) { acc = acc + step(i); }
    printf("acc=%d\\n", acc % 9973);
    return 0;
}
"""


@pytest.fixture
def low_threshold(monkeypatch):
    monkeypatch.setattr(tracec, "TIER_UP_STEPS_PER_INST", LOW_THRESHOLD)


@pytest.mark.parametrize("name", profile_names())
def test_mixed_tiers_match_reference(name):
    assert_program(generated(name), ("trace-lazy",), tier_up=True)


@pytest.mark.parametrize("max_steps", (1500, 2500, 4000, 8000))
def test_step_limit_straddling_tier_up_fires_at_the_same_op(max_steps):
    # The limit falls after some function has already tiered up.
    assert_step_limit("pythia", max_steps, ("trace-lazy",), tier_up=True)


def test_counters_persist_across_cpus_on_one_module(monkeypatch):
    monkeypatch.setattr(tracec, "TIER_UP_STEPS_PER_INST", 10**9)
    module = compile_source(SOURCE)
    first = CPU(module, interpreter="trace")
    first.run()
    program = first.tier_program
    once = dict(program.steps)
    assert once[module.get_function("step")] > 0
    second = CPU(module, interpreter="trace")
    assert second.tier_program is program
    second.run()
    assert program.steps == {f: 2 * steps for f, steps in once.items()}
    assert not program.functions


def test_compiled_functions_carry_over_to_the_next_cpu(low_threshold):
    module = compile_source(SOURCE)
    step = module.get_function("step")
    first = CPU(module, interpreter="trace")
    expected = first.run()
    program = first.tier_program
    assert step in program.functions
    counted = program.steps[step]
    again = CPU(module, interpreter="trace").run()
    assert observables(again) == observables(expected)
    # Compiled calls are not counted.
    assert program.steps[step] == counted


def test_invalidate_derived_resets_the_counters(low_threshold):
    module = compile_source(SOURCE)
    cpu = CPU(module, interpreter="trace")
    cpu.run()
    assert cpu.tier_program.functions
    module.invalidate_derived()
    fresh = CPU(module, interpreter="trace").tier_program
    assert fresh is not cpu.tier_program
    assert not fresh.functions
    assert set(fresh.steps.values()) == {0}
    assert set(fresh.pending) == set(module.defined_functions())


def test_tier_up_mid_run_is_charged_to_the_run():
    module = compile_source(SOURCE)
    reference = run(module, "reference")
    cpu = CPU(module, interpreter="trace")
    decode_seconds = cpu.decode_seconds
    result = cpu.run()
    program = cpu.tier_program
    # step() tiers up under the default threshold; main's own steps
    # stay below its (larger) threshold.
    assert set(program.functions) == {module.get_function("step")}
    assert observables(result) == observables(reference)
    assert program.compile_seconds > 0.0
    assert program.python_compile_seconds > 0.0
    assert result.decode_seconds == pytest.approx(
        decode_seconds + program.compile_seconds
    )


def test_profiled_trace_run_compiles_eagerly():
    from repro.observability import ExecutionProfiler

    module = compile_source(SOURCE)
    cpu = CPU(module, interpreter="trace", profiler=ExecutionProfiler())
    assert not cpu.tier_program.pending


def test_default_threshold_compiles_nothing_on_compile_cold_programs():
    # The programs one compile-cold round measures: a seed-1 variant of
    # every profile, under every scheme.
    for name in profile_names():
        profile = get_profile(name)
        variant = profile.seed * 1_000_003 + 1_009
        program = generate_program(dataclasses.replace(profile, seed=variant))
        measurement = measure_program(program, interpreter="trace")
        for scheme, scheme_run in measurement.runs.items():
            trace_program = scheme_run.protection.module.derived()["trace"]
            assert not trace_program.functions, f"{name}/{scheme}"
