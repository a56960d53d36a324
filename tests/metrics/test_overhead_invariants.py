"""Invariants every overhead measurement must satisfy.

These pin the *shape* of the paper's numbers rather than their values:
the vanilla baseline costs nothing relative to itself, and derived
ratios agree with their inputs.
"""

from __future__ import annotations

import pytest

from repro.core.config import SCHEMES
from repro.metrics import measure_program
from repro.workloads import generate_program, get_profile

PROFILES = ("505.mcf_r", "519.lbm_r", "nginx")


@pytest.fixture(scope="module", params=PROFILES)
def measurement(request):
    program = generate_program(get_profile(request.param))
    return measure_program(program)


def test_vanilla_overhead_is_exactly_zero(measurement):
    assert measurement.runtime_overhead("vanilla") == 0.0
    assert measurement.binary_increase("vanilla") == 0.0
    assert measurement.ipc_degradation("vanilla") == 0.0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_instrumented_schemes_never_run_faster(measurement, scheme):
    # instrumentation only adds instructions; cycles are deterministic
    assert measurement.runtime_overhead(scheme) >= 0.0


def test_vanilla_has_no_pa_instructions(measurement):
    assert measurement.pa_static("vanilla") == 0
    assert measurement.pa_dynamic("vanilla") == 0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_overhead_matches_raw_cycles(measurement, scheme):
    base = measurement.runs["vanilla"].execution.cycles
    inst = measurement.runs[scheme].execution.cycles
    assert measurement.runtime_overhead(scheme) == pytest.approx(
        inst / base - 1.0
    )
