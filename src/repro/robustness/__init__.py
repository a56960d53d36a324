"""repro.robustness -- failure as a first-class, testable input.

- :mod:`~repro.robustness.faults`: deterministic, seeded fault
  injection into the simulated hardware and the compilation cache;
- :mod:`~repro.robustness.triage`: crash bucketing by exception
  fingerprint;
- :mod:`~repro.robustness.reduce`: delta-debugging minimizer for
  crashing MiniC sources;
- :mod:`~repro.robustness.chaos`: the harness asserting the defense
  contract under injected faults (``python -m repro chaos``);
- :mod:`~repro.robustness.campaign`: the seeded attack-campaign fuzzer
  producing the defense-coverage matrix (``python -m repro campaign``).

Every exported name is loaded lazily (see :mod:`repro._lazy`): ``chaos``
pulls in the perf layer, whose suite runner in turn imports
:mod:`~repro.robustness.triage` -- eager imports would tie the two
packages into a cycle -- and ``campaign`` pulls in the whole
attacks/compile pipeline.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "faults": (
            "FAULT_KINDS",
            "FaultEvent",
            "FaultInjector",
            "FaultPlan",
            "FaultSpec",
            "smoke_plan",
        ),
        "triage": (
            "CrashRecord",
            "TriageReport",
            "crash_fingerprint",
            "fingerprint_from_frames",
            "record_crash",
            "triage",
        ),
        "chaos": ("ChaosCase", "ChaosReport", "run_chaos"),
        "campaign": ("CampaignReport", "Mutant", "MutantRun", "run_campaign"),
        "reduce": ("ddmin", "make_crash_predicate", "reduce_source"),
    },
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "smoke_plan",
    "CrashRecord",
    "TriageReport",
    "crash_fingerprint",
    "fingerprint_from_frames",
    "record_crash",
    "triage",
    "ChaosCase",
    "ChaosReport",
    "run_chaos",
    "CampaignReport",
    "Mutant",
    "MutantRun",
    "run_campaign",
    "ddmin",
    "make_crash_predicate",
    "reduce_source",
]
