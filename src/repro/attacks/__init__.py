"""repro.attacks -- the attacker's side of the evaluation.

Scripted payload injection at input channels, the paper's attack
scenarios as runnable MiniC programs, and the canary brute-force model
of §4.4.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bruteforce": (
            "BruteForceOutcome",
            "empirical_success_rate",
            "expected_tries",
            "first_order_probability",
            "simulate_bruteforce",
            "success_probability",
        ),
        "controller": ("AttackController", "Injection", "Payload", "overflow_payload"),
        "scenarios": ("Scenario", "build_scenarios"),
    },
)

__all__ = [
    "AttackController",
    "BruteForceOutcome",
    "build_scenarios",
    "empirical_success_rate",
    "expected_tries",
    "first_order_probability",
    "Injection",
    "overflow_payload",
    "Payload",
    "Scenario",
    "simulate_bruteforce",
    "success_probability",
]
