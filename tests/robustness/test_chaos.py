"""Chaos harness: defense contract and run-over-run determinism."""

import json

import pytest

from repro.robustness import FaultPlan, FaultSpec, smoke_plan
from repro.robustness.chaos import CONTRACT_STATUS, run_chaos


@pytest.fixture(scope="module")
def smoke_reports():
    """The same smoke plan run twice -- the determinism artifact."""
    plan = smoke_plan(2024)
    return run_chaos(plan, seed=2024), run_chaos(plan, seed=2024)


class TestDefenseContract:
    def test_no_violations_on_the_smoke_plan(self, smoke_reports):
        report, _ = smoke_reports
        assert report.ok, [case.to_dict() for case in report.contract_violations()]

    def test_every_spec_produced_a_case(self, smoke_reports):
        report, _ = smoke_reports
        assert len(report.cases) == len(report.plan.specs)

    def test_pac_faults_trap_at_authentication(self, smoke_reports):
        report, _ = smoke_reports
        for case in report.cases:
            if case.kind in ("pac.bits", "pac.key"):
                assert case.classification == "contained"
                assert case.status == "pac_trap"

    def test_dfi_fault_raises_a_dfi_violation(self, smoke_reports):
        report, _ = smoke_reports
        (case,) = [c for c in report.cases if c.kind == "dfi.shadow"]
        assert case.classification == "contained"
        assert case.status == "dfi_trap"

    def test_cache_faults_recompile_silently(self, smoke_reports):
        report, _ = smoke_reports
        for case in report.cases:
            if case.kind.startswith("cache."):
                assert case.classification == "contained"
                assert case.status in ("miss", "cache-off")

    def test_strict_kinds_all_fired(self, smoke_reports):
        report, _ = smoke_reports
        for case in report.cases:
            if case.kind in CONTRACT_STATUS:
                assert case.events, f"{case.kind} never fired"

    def test_no_triage_buckets_when_contained(self, smoke_reports):
        report, _ = smoke_reports
        assert report.triage.total_crashes == 0
        assert report.triage.counts() == {}


class TestDeterminism:
    def test_same_seed_same_fault_sites_and_buckets(self, smoke_reports):
        first, second = smoke_reports
        # Identical fault sites (the event logs embed addresses, bit
        # positions, and key ids) and identical classifications...
        assert first.signature() == second.signature()
        # ...and identical triage buckets.
        assert first.triage.to_dict() == second.triage.to_dict()

    def test_manifest_is_json_serializable_and_stable(self, smoke_reports):
        first, second = smoke_reports
        assert json.dumps(first.to_manifest(), sort_keys=True) == json.dumps(
            second.to_manifest(), sort_keys=True
        )


class TestContractViolationDetection:
    def test_untriggered_strict_fault_is_a_violation(self):
        # A PAC fault with an absurd trigger never fires; the report
        # must flag it instead of quietly passing.
        plan = FaultPlan(
            seed=2024, specs=(FaultSpec("pac.bits", trigger=10**9),)
        )
        report = run_chaos(plan, seed=2024)
        assert not report.ok
        (case,) = report.cases
        assert case.classification == "not-triggered"

    def test_loose_kind_may_diverge_without_violating(self):
        # mem.flip has no strict contract: silent divergence is
        # recorded but is not a violation.
        plan = FaultPlan(
            seed=2024, specs=(FaultSpec("mem.flip", trigger=64),)
        )
        report = run_chaos(plan, seed=2024)
        (case,) = report.cases
        assert case.classification in (
            "benign",
            "diverged",
            "detected",
            "faulted",
        )
        assert report.ok


class TestInterpreterInterop:
    def test_block_tier_sees_identical_fault_sites(self, smoke_reports):
        # PR 3's fault hooks fire from Memory/PAC/DfiShadow/cache, which
        # the block tier's fast paths must route through unchanged: the
        # same plan under ``--interpreter=block`` must inject at the
        # same sites and classify every case identically.
        baseline, _ = smoke_reports
        block = run_chaos(smoke_plan(2024), seed=2024, interpreter="block")
        assert block.signature() == baseline.signature()
        assert block.triage.to_dict() == baseline.triage.to_dict()
        assert json.dumps(block.to_manifest(), sort_keys=True) == json.dumps(
            baseline.to_manifest(), sort_keys=True
        )

    def test_trace_tier_sees_identical_fault_sites(self, smoke_reports):
        # The trace tier probes the PAC cache inline from generated
        # code, so it is the tier most at risk of hiding an injected
        # fault: the inline probes must stand down while a fault hook
        # is armed, and the probe key carries ``key_epoch`` so
        # ``pac.key`` faults (corrupt_key mid-run) invalidate every
        # cached tag.  Same plan, same sites, same classifications as
        # the reference baseline proves all of it.
        baseline, _ = smoke_reports
        trace = run_chaos(smoke_plan(2024), seed=2024, interpreter="trace")
        assert trace.signature() == baseline.signature()
        assert trace.triage.to_dict() == baseline.triage.to_dict()
        assert json.dumps(trace.to_manifest(), sort_keys=True) == json.dumps(
            baseline.to_manifest(), sort_keys=True
        )
