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

from ..core.config import BASELINE, SCHEMES, DefenseConfig
from ..core.framework import ProtectionResult, protect_all
from ..hardware.cpu import CPU, ExecutionResult
from ..hardware.errors import ReproError
from ..ir.module import Module
from ..observability import current_tracer, get_metrics, publish_execution
from ..workloads.generator import GeneratedProgram


def relative(base: float, value: float) -> float:
    """``value`` relative to ``base`` (0.13 = 13% above it; 0.0 if ``base <= 0``)."""
    return value / base - 1.0 if base > 0 else 0.0


class BenignRunError(ReproError, RuntimeError):
    """A scheme's benign (attack-free) execution did not exit cleanly."""

    exit_code = 2


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
        """Relative cycle overhead vs the baseline (0.13 = +13%)."""
        return relative(
            self._run(BASELINE).execution.cycles, self._run(scheme).execution.cycles
        )

    # -- Fig. 4(b): binary size ---------------------------------------------------------

    def binary_increase(self, scheme: str) -> float:
        return relative(
            self._run(BASELINE).protection.binary_bytes,
            self._run(scheme).protection.binary_bytes,
        )

    # -- Fig. 5(a): IPC -----------------------------------------------------------------

    def ipc(self, scheme: str) -> float:
        return self._run(scheme).execution.ipc

    def ipc_degradation(self, scheme: str) -> float:
        # 0.0 - x, not -x: an unchanged IPC degrades by +0.0, never -0.0
        return 0.0 - relative(self.ipc(BASELINE), self.ipc(scheme))

    # -- Fig. 6(b): PA instructions ----------------------------------------------------------

    def pa_static(self, scheme: str) -> int:
        return self._run(scheme).protection.pa_static

    def pa_dynamic(self, scheme: str) -> int:
        return self._run(scheme).execution.pa_dynamic

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
        results = protect_all(module, schemes=schemes, consume=True)
        return results, dict.fromkeys(schemes, False)
    from ..ir.printer import print_module

    text = print_module(module)
    keys = {
        scheme: cache.key_for(text, DefenseConfig(scheme=scheme)) for scheme in schemes
    }
    results = {scheme: cache.load_protection(keys[scheme], scheme) for scheme in schemes}
    hits = {scheme: results[scheme] is not None for scheme in schemes}
    missing = tuple(scheme for scheme in schemes if not hits[scheme])
    if missing:
        compiled = protect_all(module, schemes=missing, consume=True)
        for scheme, result in compiled.items():
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

    ``module`` is consumed (protected in place, not cloned): pass one
    that is not used again, such as a fresh ``compile_source`` result.
    ``interpreter`` selects the CPU backend (``"decoded"`` /
    ``"reference"``); ``None`` uses the CPU default.  ``cache_dir``
    enables the content-addressed compilation cache: cached schemes
    skip recompilation and are marked ``cache_hit`` on their runs.  A
    run that does not exit cleanly raises :class:`BenignRunError`.
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
            raise BenignRunError(
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
