"""Parallel measurement harness and throughput trajectory tracking."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "runner": (
            "ProgramSummary",
            "SchemeSummary",
            "SuiteError",
            "SuiteResult",
            "TaskFailure",
            "plan_jobs",
            "run_suite",
            "run_tasks",
            "summarize_measurement",
        ),
        "regions": ("profile_digest",),
        "trajectory": (
            "append_entry",
            "block_throughput",
            "check_block_regression",
            "check_block_regression_file",
            "check_serve_regression",
            "check_serve_regression_file",
            "load_entries",
            "safe_load_entries",
            "serve_p99",
            "trace_throughput",
        ),
    },
)

__all__ = [
    "ProgramSummary",
    "SchemeSummary",
    "SuiteError",
    "SuiteResult",
    "TaskFailure",
    "block_throughput",
    "check_block_regression",
    "check_block_regression_file",
    "check_serve_regression",
    "check_serve_regression_file",
    "serve_p99",
    "plan_jobs",
    "profile_digest",
    "safe_load_entries",
    "run_suite",
    "run_tasks",
    "summarize_measurement",
    "trace_throughput",
    "append_entry",
    "load_entries",
]
