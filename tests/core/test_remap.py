"""Report remapping across clones: the shared-analysis correctness oracle."""

from __future__ import annotations

import pytest

from repro.analysis.manager import AnalysisManager
from repro.attacks.scenarios import build_scenarios
from repro.core.config import SCHEMES
from repro.core.framework import clone_module, protect_all
from repro.core.remap import remap_report
from repro.core.vulnerability import VulnerabilityAnalysis
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.transforms import Mem2Reg
from repro.workloads import generate_program, get_profile

PROFILES = ("505.mcf_r", "519.lbm_r")
SCENARIOS = build_scenarios()


def prepared_module(name):
    module = generate_program(get_profile(name)).compile()
    verify_module(module)
    Mem2Reg().run(module)
    return module


def labels(objects):
    return sorted((obj.kind, obj.label) for obj in objects)


@pytest.mark.parametrize("name", PROFILES)
def test_remapped_report_matches_fresh_analysis(name):
    prepared = prepared_module(name)
    report = VulnerabilityAnalysis(prepared).analyze()
    target, vmap = prepared.clone(value_map=True)

    remapped = remap_report(report, vmap, manager=AnalysisManager())
    fresh = VulnerabilityAnalysis(target).analyze()

    assert remapped.module is target
    assert remapped.analysis.module is target
    for field in (
        "all_variables",
        "backward_variables",
        "tainted_variables",
        "cpa_variables",
        "ic_destinations",
        "refined_variables",
    ):
        assert labels(getattr(remapped, field)) == labels(getattr(fresh, field)), field
    assert labels(remapped.stack_vulnerable) == labels(fresh.stack_vulnerable)
    assert labels(remapped.heap_vulnerable) == labels(fresh.heap_vulnerable)
    assert remapped.branch_categories() == fresh.branch_categories()
    assert remapped.refinement_factor() == pytest.approx(fresh.refinement_factor())
    assert len(remapped.branch_slices) == len(fresh.branch_slices)
    assert len(remapped.dfi_slices) == len(fresh.dfi_slices)


@pytest.mark.parametrize("name", PROFILES)
def test_remapped_report_lives_in_clone_coordinates(name):
    prepared = prepared_module(name)
    report = VulnerabilityAnalysis(prepared).analyze()
    target, vmap = prepared.clone(value_map=True)
    remapped = remap_report(report, vmap, manager=AnalysisManager())

    source_ids = {id(obj) for obj in report.all_variables}
    for obj in remapped.all_variables:
        assert id(obj) not in source_ids
        assert vmap.get(obj.anchor) is None  # anchor already IS a clone value
    # ...and the source report is untouched by the translation.
    assert labels(report.all_variables) == labels(remapped.all_variables)


def test_remap_seeds_manager_for_clone_queries():
    prepared = prepared_module(PROFILES[0])
    report = VulnerabilityAnalysis(prepared).analyze()
    target, vmap = prepared.clone(value_map=True)
    manager = AnalysisManager()
    remapped = remap_report(report, vmap, manager=manager)
    assert manager.vulnerability_report(target) is remapped
    assert manager.alias(target) is remapped.analysis.alias


@pytest.mark.parametrize("name", PROFILES + tuple(SCENARIOS))
def test_shared_path_bit_identical_to_recompute_oracle(name):
    if name in SCENARIOS:
        module = SCENARIOS[name].compile()
    else:
        module = generate_program(get_profile(name)).compile()
    shared = protect_all(clone_module(module), shared_analysis=True)
    oracle = protect_all(clone_module(module), shared_analysis=False)
    for scheme in SCHEMES:
        assert print_module(shared[scheme].module) == print_module(
            oracle[scheme].module
        ), (name, scheme)
        assert shared[scheme].pass_stats == oracle[scheme].pass_stats, (name, scheme)


def test_remap_rejects_foreign_value_map():
    prepared = prepared_module(PROFILES[0])
    other = prepared_module(PROFILES[1])
    report = VulnerabilityAnalysis(prepared).analyze()
    _, foreign_vmap = other.clone(value_map=True)
    with pytest.raises(ValueError, match="value map"):
        remap_report(report, foreign_vmap, manager=AnalysisManager())


def test_remap_requires_carried_analysis():
    prepared = prepared_module(PROFILES[0])
    report = VulnerabilityAnalysis(prepared).analyze()
    report.analysis = None
    _, vmap = prepared.clone(value_map=True)
    with pytest.raises(ValueError, match="analysis"):
        remap_report(report, vmap, manager=AnalysisManager())
