"""Runtime overhead measurement: vanilla vs instrumented executions.

One :class:`BenchmarkMeasurement` holds, per scheme, the protection
result (static counts) and the execution result (dynamic counts), and
derives every performance number the paper's figures report: runtime
overhead (Fig. 4(a)), binary size increase (Fig. 4(b)), IPC degradation
(Fig. 5(a)), and static/dynamic PA instruction counts (Fig. 6(b)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.config import DefenseConfig, SCHEMES
from ..core.framework import ProtectionResult, protect_all
from ..hardware.cpu import CPU, ExecutionResult
from ..ir.module import Module
from ..observability import current_tracer, get_metrics, publish_execution
from ..workloads.generator import GeneratedProgram


@dataclass
class SchemeRun:
    """One scheme's static protection + dynamic execution."""

    scheme: str
    protection: ProtectionResult
    execution: ExecutionResult
    #: True when the protection came from the compilation cache instead
    #: of being recompiled
    cache_hit: bool = False


@dataclass
class BenchmarkMeasurement:
    """All schemes' runs of one benchmark program."""

    name: str
    runs: Dict[str, SchemeRun] = field(default_factory=dict)

    def _run(self, scheme: str) -> SchemeRun:
        try:
            return self.runs[scheme]
        except KeyError:
            raise KeyError(f"scheme {scheme!r} was not measured for {self.name}") from None

    # -- Fig. 4(a): runtime overhead -----------------------------------------------

    def runtime_overhead(self, scheme: str) -> float:
        """Relative cycle overhead vs vanilla (0.13 = +13%)."""
        base = self._run("vanilla").execution.cycles
        inst = self._run(scheme).execution.cycles
        if base <= 0:
            return 0.0
        return inst / base - 1.0

    # -- Fig. 4(b): binary size ---------------------------------------------------------

    def binary_increase(self, scheme: str) -> float:
        base = self._run("vanilla").protection.binary_bytes
        inst = self._run(scheme).protection.binary_bytes
        if base <= 0:
            return 0.0
        return inst / base - 1.0

    # -- Fig. 5(a): IPC -----------------------------------------------------------------

    def ipc(self, scheme: str) -> float:
        return self._run(scheme).execution.ipc

    def ipc_degradation(self, scheme: str) -> float:
        base = self.ipc("vanilla")
        if base <= 0:
            return 0.0
        return 1.0 - self.ipc(scheme) / base

    # -- Fig. 6(b): PA instructions ----------------------------------------------------------

    def pa_static(self, scheme: str) -> int:
        return self._run(scheme).protection.pa_static

    def pa_dynamic(self, scheme: str) -> int:
        return self._run(scheme).execution.pa_dynamic

    def pa_executed_fraction(self, scheme: str) -> float:
        """Fraction of instrumented PA sites that executed dynamically
        at least once is not directly observable; the paper reports the
        dynamic/static *instruction* ratio instead."""
        static = self.pa_static(scheme)
        if static == 0:
            return 0.0
        # dynamic executions per static site, capped at 1 for the
        # "fraction of sites executed" reading
        return min(1.0, self.pa_dynamic(scheme) / static)

    def isolated_allocations(self, scheme: str) -> int:
        return self._run(scheme).execution.isolated_allocations


def _protect_schemes(module: Module, schemes: Sequence[str], cache):
    """Protect ``module`` under every scheme, through ``cache`` if given.

    Returns ``(results, hit_flags)``.  With a cache, the key is the
    printed *input* module plus each scheme's config; schemes with a
    valid entry are served from it, and only the schemes that missed
    are compiled (via the shared-analysis pipeline) and stored.
    """
    schemes = tuple(schemes)
    if cache is None:
        return protect_all(module, schemes=schemes), dict.fromkeys(schemes, False)
    from ..ir.printer import print_module

    text = print_module(module)
    keys = {
        scheme: cache.key_for(text, DefenseConfig(scheme=scheme)) for scheme in schemes
    }
    results = {scheme: cache.load_protection(keys[scheme], scheme) for scheme in schemes}
    hits = {scheme: results[scheme] is not None for scheme in schemes}
    missing = tuple(scheme for scheme in schemes if not hits[scheme])
    if missing:
        for scheme, result in protect_all(module, schemes=missing).items():
            cache.store_protection(keys[scheme], result)
            results[scheme] = result
    return results, hits


def measure_module(
    module: Module,
    name: str,
    inputs: Optional[Sequence[bytes]] = None,
    schemes: Sequence[str] = SCHEMES,
    seed: int = 2024,
    interpreter: Optional[str] = None,
    cache_dir: Optional[str] = None,
) -> BenchmarkMeasurement:
    """Protect and execute one module under each scheme.

    ``interpreter`` selects the CPU backend (``"decoded"`` /
    ``"reference"``); ``None`` uses the CPU default.  ``cache_dir``
    enables the content-addressed compilation cache: cached schemes
    skip recompilation and are marked ``cache_hit`` on their runs.
    """
    cache = None
    if cache_dir is not None:
        # Imported lazily: repro.perf imports this module at package
        # init, so a top-level import back into repro.perf would cycle.
        from ..perf.cache import CompilationCache

        cache = CompilationCache(cache_dir)
    tracer = current_tracer()
    metrics = get_metrics()
    with tracer.span(f"compile:{name}", "compile", schemes=",".join(schemes)):
        protections, hit_flags = _protect_schemes(module, schemes, cache)
    measurement = BenchmarkMeasurement(name=name)
    for scheme in schemes:
        protection = protections[scheme]
        cpu = CPU(protection.module, seed=seed, interpreter=interpreter)
        with tracer.span(f"execute:{scheme}", "exec", benchmark=name):
            execution = cpu.run(inputs=list(inputs or []))
        publish_execution(metrics, execution, scheme=scheme)
        if not execution.ok:
            raise RuntimeError(
                f"{name}/{scheme}: benign execution failed "
                f"({execution.status}: {execution.trap})"
            )
        measurement.runs[scheme] = SchemeRun(
            scheme, protection, execution, cache_hit=hit_flags[scheme]
        )
    return measurement


def measure_program(
    program: GeneratedProgram,
    schemes: Sequence[str] = SCHEMES,
    seed: int = 2024,
    interpreter: Optional[str] = None,
    cache_dir: Optional[str] = None,
) -> BenchmarkMeasurement:
    """Protect and execute a generated benchmark under each scheme."""
    return measure_module(
        program.compile(),
        name=program.profile.name,
        inputs=program.inputs,
        schemes=schemes,
        seed=seed,
        interpreter=interpreter,
        cache_dir=cache_dir,
    )


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    items = list(values)
    return sum(items) / len(items) if items else 0.0
