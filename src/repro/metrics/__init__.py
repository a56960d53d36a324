"""repro.metrics -- the evaluation's measurement layer.

Runtime overhead / IPC / binary size (Figs. 4-5), vulnerable-variable
and PA-instruction censuses (Fig. 6), branch security (Fig. 7(b)),
attack distance (§6.2), and the analytic bounds of Eqs. 1-5.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "attack_distance": ("AttackDistanceRow", "attack_distance_row"),
        "bounds": ("BoundParameters", "extract_bound_parameters"),
        "branch_security": ("BranchSecurityRow", "branch_security_row"),
        "spills": (
            "AARCH64_REGISTERS",
            "SpillEstimate",
            "cpa_spill_pa",
            "estimate_spills",
            "pythia_spill_pa",
        ),
        "overhead": (
            "BenchmarkMeasurement",
            "SchemeRun",
            "mean",
            "measure_module",
            "measure_program",
        ),
    },
)

__all__ = [
    "attack_distance_row",
    "AttackDistanceRow",
    "BenchmarkMeasurement",
    "BoundParameters",
    "branch_security_row",
    "BranchSecurityRow",
    "extract_bound_parameters",
    "mean",
    "measure_module",
    "measure_program",
    "SchemeRun",
    "SpillEstimate",
    "AARCH64_REGISTERS",
    "cpa_spill_pa",
    "estimate_spills",
    "pythia_spill_pa",
]
