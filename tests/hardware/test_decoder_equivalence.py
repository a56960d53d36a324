"""Golden equivalence: the decoded column of ``tests/tier_oracle.py``.

The decoded backend is a pure performance transform -- every
observable of a run (:func:`repro.hardware.oracle.observables`) must
be bit-identical to the reference loop's, with and without an LLC
model, for every workload profile and attack scenario under every
scheme.
"""

from __future__ import annotations

import pytest

from repro.attacks import build_scenarios
from repro.hardware import CPU, INTERPRETERS
from repro.workloads import profile_names
from tests.tier_oracle import assert_program, assert_scenario, generated

TIERS = ("decoded",)


@pytest.mark.parametrize("name", profile_names())
def test_profile_equivalence_all_schemes(name):
    assert_program(generated(name), TIERS)


@pytest.mark.parametrize("scenario_name", sorted(build_scenarios()))
def test_scenario_equivalence_all_schemes(scenario_name):
    assert_scenario(scenario_name, TIERS)


# -- backend selection API -----------------------------------------------------------


def test_interpreter_recorded_in_result(listing1_module):
    for interpreter in INTERPRETERS:
        result = CPU(listing1_module.clone(), interpreter=interpreter).run()
        assert result.interpreter == interpreter


def test_unknown_interpreter_rejected(listing1_module):
    with pytest.raises(ValueError, match="interpreter"):
        CPU(listing1_module, interpreter="bogus")


def test_environment_selects_interpreter(listing1_module, monkeypatch):
    monkeypatch.setenv("REPRO_INTERPRETER", "reference")
    result = CPU(listing1_module.clone()).run()
    assert result.interpreter == "reference"
