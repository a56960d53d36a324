"""Pythia: Compiler-Guided Defense Against Non-Control Data Attacks.

A from-scratch Python reproduction of the ASPLOS 2024 system: a MiniC
compiler front-end, an LLVM-like SSA IR, the slicing and alias analyses
of §4.1, simulated ARM Pointer Authentication hardware with a sectioned
heap allocator, the three defense instrumentations (conservative CPA,
performance-aware Pythia, and the DFI baseline), attack scenarios, and
the full evaluation harness.

Quickstart::

    from repro import compile_source, protect, CPU

    module = compile_source(C_SOURCE)
    protected = protect(module, scheme="pythia")
    result = CPU(protected.module).run(inputs=[b"hello"])
    assert result.ok

See ``examples/`` for runnable end-to-end walkthroughs and
``benchmarks/`` for the scripts regenerating every table and figure of
the paper's evaluation.

Every exported name is loaded lazily (see :mod:`repro._lazy`): ``import
repro`` loads no subpackage until one of its names is first used.
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "attacks": (
            "AttackController",
            "build_scenarios",
            "overflow_payload",
            "Scenario",
        ),
        "core": (
            "DefenseConfig",
            "ProtectionResult",
            "SCHEMES",
            "SecurityReport",
            "VulnerabilityAnalysis",
            "VulnerabilityReport",
            "analyze_module",
            "build_security_report",
            "clone_module",
            "protect",
            "protect_all",
        ),
        "frontend": ("compile_source",),
        "hardware": (
            "CPU",
            "CanaryTrap",
            "DfiTrap",
            "ExecutionResult",
            "MemoryFault",
            "PacAuthError",
            "PointerAuthentication",
        ),
        "ir": ("IRBuilder", "Module", "parse_module", "print_module", "verify_module"),
        "metrics": (
            "attack_distance_row",
            "branch_security_row",
            "measure_module",
            "measure_program",
        ),
        "perf": ("SuiteResult", "run_suite"),
        "workloads": (
            "ALL_PROFILES",
            "BenchmarkProfile",
            "generate_program",
            "get_profile",
            "run_nginx",
        ),
    },
)

__version__ = "1.0.0"

__all__ = [
    "ALL_PROFILES",
    "analyze_module",
    "attack_distance_row",
    "AttackController",
    "BenchmarkProfile",
    "branch_security_row",
    "build_scenarios",
    "build_security_report",
    "CanaryTrap",
    "clone_module",
    "compile_source",
    "CPU",
    "DefenseConfig",
    "DfiTrap",
    "ExecutionResult",
    "generate_program",
    "get_profile",
    "IRBuilder",
    "measure_module",
    "measure_program",
    "MemoryFault",
    "Module",
    "overflow_payload",
    "PacAuthError",
    "parse_module",
    "PointerAuthentication",
    "print_module",
    "protect",
    "protect_all",
    "ProtectionResult",
    "run_nginx",
    "run_suite",
    "Scenario",
    "SuiteResult",
    "SCHEMES",
    "SecurityReport",
    "verify_module",
    "VulnerabilityAnalysis",
    "VulnerabilityReport",
    "__version__",
]
