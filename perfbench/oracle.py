"""Expected results from the reference interpreter, the repo's oracle.

Every check runs outside the timed ops and outside set-up.  Each
``expect_*`` function rebuilds the protected module the way the system
under test does and executes it with ``interpreter="reference"``; each
``observed_*`` function extracts the same fields from what the system
under test answered, so a check is one equality.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Sequence

#: The CPU seed ``repro run`` and ``measure_program`` use by default.
CPU_SEED = 2024


def execution_fields(result) -> Dict[str, Any]:
    """What two interpreters must agree on for one execution."""
    return {
        "status": result.status,
        "return_value": result.return_value,
        "output": result.output,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "steps": result.steps,
        "pac_sign": result.pac_sign_count,
        "pac_auth": result.pac_auth_count,
    }


def reference_run(module, inputs: Sequence[bytes], seed: int = CPU_SEED):
    from repro.hardware.cpu import CPU

    return CPU(module, seed=seed, interpreter="reference").run(inputs=list(inputs))


# -- compile-cold: measure_program's trace-tier runs ----------------------------------


def check_measurement(program, measurement) -> Dict[str, str]:
    """Scheme -> mismatch description, for every scheme that disagrees."""
    problems = {}
    for scheme, run in measurement.runs.items():
        expected = execution_fields(reference_run(run.protection.module, program.inputs))
        observed = execution_fields(run.execution)
        if observed != expected:
            diff = sorted(k for k in expected if expected[k] != observed[k])
            problems[scheme] = f"{program.profile.name}/{scheme}: {', '.join(diff)}"
    return problems


# -- cli-cold: one `repro run` child ---------------------------------------------------

_CLI_STATUS = re.compile(
    r"^\[(?P<scheme>\w+)\] status=(?P<status>\w+) return=(?P<ret>\S+) "
    r"cycles=(?P<cycles>\d+) instructions=(?P<instructions>\d+) "
    r"ipc=\S+ pa=(?P<pa>\d+)$",
    re.MULTILINE,
)


def expect_cli(source: str, name: str, scheme: str, inputs: Sequence[bytes]) -> Dict[str, Any]:
    """What ``repro run <source> --name name --scheme scheme`` must print."""
    from repro.core import DefenseConfig, protect
    from repro.frontend import compile_source

    protected = protect(compile_source(source, name=name), config=DefenseConfig(scheme=scheme))
    result = reference_run(protected.module, inputs)
    return {
        "exit": 0 if result.ok else 2,
        "stdout": result.output.decode("utf-8", "replace"),
        "status": result.status,
        "return": str(result.return_value),
        "cycles": f"{result.cycles:.0f}",
        "instructions": str(result.instructions),
        "pa": str(result.pa_dynamic),
    }


def observed_cli(code: int, stdout: str, stderr: str) -> Dict[str, Any]:
    """The same fields, parsed from a child's exit code and output."""
    match = _CLI_STATUS.search(stderr)
    if match is None:
        return {"exit": code, "stderr": stderr[-500:]}
    return {
        "exit": code,
        "stdout": stdout,
        "status": match["status"],
        "return": match["ret"],
        "cycles": match["cycles"],
        "instructions": match["instructions"],
        "pa": match["pa"],
    }


# -- serve-warm: one daemon response ---------------------------------------------------


class ServeOracle:
    """Expected serve responses, built in-process through the same
    :class:`~repro.serve.registry.WarmRegistry` path a worker uses."""

    def __init__(self) -> None:
        from repro.attacks import build_scenarios
        from repro.serve.registry import WarmRegistry

        self.registry = WarmRegistry(capacity=256)
        self.scenarios = build_scenarios()
        self._runs: Dict[tuple, Any] = {}

    def protection(self, request: Dict[str, Any]):
        if request["op"] == "attack":
            scenario = self.scenarios[request["scenario"]]
            source, name = scenario.source, request["scenario"]
        else:
            source, name = request["source"], request.get("name", "module")
        return self.registry.protection(source, name, request.get("scheme", "pythia"), False)[0]

    def _reference(self, request: Dict[str, Any]):
        key = (request["source"], request.get("scheme"), request.get("seed"))
        if key not in self._runs:
            inputs = [item.encode("utf-8") for item in request.get("inputs") or []]
            self._runs[key] = reference_run(
                self.protection(request).module, inputs, int(request.get("seed", CPU_SEED))
            )
        return self._runs[key]

    def expect(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        seed = int(request.get("seed", CPU_SEED))
        if op == "compile":
            _, _, digest, _ = self.registry.printed_module(
                request["source"], request.get("name", "module"), request.get("scheme", "pythia")
            )
            return {"module_digest": digest, "pa_static": self.protection(request).pa_static}
        if op == "attack":
            scenario = self.scenarios[request["scenario"]]
            result = scenario.run_attack(
                self.protection(request).module, seed=seed, interpreter="reference"
            )
            return {"status": result.status, "outcome": scenario.attack_outcome(result)}
        result = self._reference(request)
        if op == "profile":
            return {"status": result.status}
        return {
            "status": result.status,
            "return_value": result.return_value,
            "output": result.output.decode("utf-8", "replace"),
            "cycles": result.cycles,
            "instructions": result.instructions,
            "steps": result.steps,
            "pa_dynamic": result.pa_dynamic,
        }


def observed_serve(request: Dict[str, Any], result: Dict[str, Any]) -> Dict[str, Any]:
    """The fields :meth:`ServeOracle.expect` produces, from a response."""
    op = request["op"]
    if op == "compile":
        keys = ("module_digest", "pa_static")
    elif op == "attack":
        keys = ("status", "outcome")
    elif op == "profile":
        keys = ("status",)
    else:
        keys = ("status", "return_value", "output", "cycles", "instructions", "steps", "pa_dynamic")
    return {key: result.get(key) for key in keys}
