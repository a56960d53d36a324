"""repro.core -- the paper's primary contribution.

Vulnerable-variable identification (branch decomposition + input
channel construction, §4.1), the end-to-end protection framework
(vanilla / CPA / Pythia / DFI), and security reporting.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": ("DefenseConfig", "SCHEMES"),
        "framework": (
            "BYTES_PER_INSTRUCTION",
            "ProtectionError",
            "ProtectionResult",
            "clone_module",
            "clone_module_textual",
            "protect",
            "protect_all",
        ),
        "remap": ("remap_report",),
        "report": (
            "BranchVerdict",
            "SecurityReport",
            "build_security_report",
            "dfi_protects",
            "pythia_protects",
        ),
        "vulnerability": (
            "DIRECT_DEPTH",
            "VulnerabilityAnalysis",
            "VulnerabilityReport",
            "analyze_module",
        ),
    },
)

__all__ = [
    "analyze_module",
    "BranchVerdict",
    "build_security_report",
    "BYTES_PER_INSTRUCTION",
    "clone_module",
    "clone_module_textual",
    "DefenseConfig",
    "dfi_protects",
    "DIRECT_DEPTH",
    "protect",
    "protect_all",
    "ProtectionError",
    "ProtectionResult",
    "pythia_protects",
    "remap_report",
    "SCHEMES",
    "SecurityReport",
    "VulnerabilityAnalysis",
    "VulnerabilityReport",
]
