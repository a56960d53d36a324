"""repro.workloads -- benchmark program synthesis.

Per-benchmark statistical profiles for the paper's 15 SPEC applications
plus nginx, the deterministic MiniC program generator realising them,
and the nginx-style transfer-rate workload.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "generator": ("GeneratedProgram", "ProgramGenerator", "generate_program"),
        "nginx": (
            "DURATION_BATCHES",
            "NginxRun",
            "nginx_program",
            "run_nginx",
            "transfer_rate_overhead",
        ),
        "profiles": (
            "ALL_PROFILES",
            "BenchmarkProfile",
            "NGINX_PROFILE",
            "SPEC_PROFILES",
            "get_profile",
            "profile_names",
        ),
    },
)

__all__ = [
    "ALL_PROFILES",
    "BenchmarkProfile",
    "DURATION_BATCHES",
    "GeneratedProgram",
    "generate_program",
    "get_profile",
    "NGINX_PROFILE",
    "nginx_program",
    "NginxRun",
    "ProgramGenerator",
    "profile_names",
    "run_nginx",
    "SPEC_PROFILES",
    "transfer_rate_overhead",
]
