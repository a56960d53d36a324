"""The end-to-end Pythia compiler framework.

``protect(module, config)`` runs the analysis pipeline once and applies
the configured defense passes, returning the instrumented module plus
the static statistics the evaluation reports (PA instruction counts,
canary counts, binary size).

Modules are cloned before instrumentation, so one source module can be
protected under several schemes and compared -- exactly what the
benchmark harness does.  Cloning is a structural object-graph copy
(:meth:`repro.ir.module.Module.clone`); the older textual round-trip is
kept as :func:`clone_module_textual` and doubles as the verification
oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional

from ..analysis.manager import invalidate_analyses
from ..hardware.decoder import invalidate_decode_cache
from ..hardware.errors import ReproError
from ..ir.instructions import is_pa_instruction
from ..ir.module import Module
from ..ir.verifier import VerificationError, verify_module
from ..observability import phase_span
from ..transforms.cpa import CompletePointerAuthentication
from ..transforms.dfi import DataFlowIntegrityPass
from ..transforms.field_protect import FieldProtectionPass
from ..transforms.heap_section import HeapSectionPass
from ..transforms.mem2reg import Mem2Reg
from ..transforms.pass_manager import PassManager
from ..transforms.stack_protect import StackProtectionPass
from .config import DefenseConfig, SCHEMES
from .vulnerability import VulnerabilityAnalysis, VulnerabilityReport

#: Estimated bytes per IR instruction when reporting binary sizes
#: (AArch64 instructions are 4 bytes).
BYTES_PER_INSTRUCTION = 4


class ProtectionError(ReproError):
    """A defense pass produced an invalid module.

    Distinct from :class:`~repro.ir.verifier.VerificationError` on the
    *input*: if the module verified clean going in and breaks while a
    pass instruments it, the defect is in the framework, not the
    program.  The original verifier failure is chained as the cause.
    """

    exit_code = 5


def clone_module(module: Module) -> Module:
    """Deep-copy a module (structural object-graph clone)."""
    return module.clone()


def clone_module_textual(module: Module) -> Module:
    """Deep-copy a module via the textual print -> parse round-trip.

    Much slower than :func:`clone_module`; retained as the verification
    oracle (both paths must produce modules that print identically).
    """
    from ..ir.parser import parse_module
    from ..ir.printer import print_module

    return parse_module(print_module(module))


@dataclass
class ProtectionResult:
    """An instrumented module plus its static statistics."""

    module: Module
    scheme: str
    report: Optional[VulnerabilityReport]
    pass_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: wall seconds per compile phase: ``verify``, ``mem2reg``,
    #: ``analysis`` (or ``remap`` under the shared-analysis path), and
    #: ``pass:<name>`` per defense pass
    timings: Dict[str, float] = field(default_factory=dict)

    @cached_property
    def pa_static(self) -> int:
        """Statically instrumented ARM-PA instructions.

        Memoized: the module is fixed once protection has run, and the
        reporting layer reads this repeatedly per measurement.
        """
        return sum(
            1
            for function in self.module.defined_functions()
            for inst in function.instructions()
            if is_pa_instruction(inst)
        )

    @cached_property
    def instruction_count(self) -> int:
        """Static instruction count of the instrumented module (memoized)."""
        return self.module.instruction_count()

    @property
    def binary_bytes(self) -> int:
        return self.instruction_count * BYTES_PER_INSTRUCTION

    @property
    def canary_count(self) -> int:
        stats = self.pass_stats.get("pythia-stack", {})
        return int(stats.get("canaries", 0))


def _build_passes(config: DefenseConfig, report: VulnerabilityReport) -> list:
    passes = []
    if config.scheme == "cpa":
        passes.append(CompletePointerAuthentication(report))
    elif config.scheme == "pythia":
        if config.protect_fields:
            passes.append(FieldProtectionPass(report))
        if config.protect_stack:
            passes.append(
                StackProtectionPass(report, rerandomize=config.rerandomize_canaries)
            )
        if config.protect_heap:
            passes.append(HeapSectionPass(report))
    elif config.scheme == "dfi":
        passes.append(DataFlowIntegrityPass(report))
    return passes


def protect(
    module: Module,
    config: Optional[DefenseConfig] = None,
    scheme: Optional[str] = None,
    clone: bool = True,
    report: Optional[VulnerabilityReport] = None,
    prepared: bool = False,
) -> ProtectionResult:
    """Apply a defense scheme to (a clone of) ``module``.

    ``prepared=True`` declares that the caller already verified and
    mem2reg-promoted the module (``protect_all`` clones from one
    prepared module), so both steps are skipped here.  Passing
    ``report`` skips the vulnerability analysis and instruments from
    the given report instead -- under the shared-analysis path this is
    a :func:`~repro.core.remap.remap_report` translation of an analysis
    computed once on the pristine module.
    """
    if config is None:
        config = DefenseConfig(scheme=scheme or "pythia")
    elif scheme is not None:
        raise ValueError("pass either config or scheme, not both")
    target = clone_module(module) if clone else module
    timings: Dict[str, float] = {}

    if not prepared:
        if config.verify:
            with phase_span("verify", timings):
                verify_module(target)
        if config.run_mem2reg:
            with phase_span("mem2reg", timings):
                Mem2Reg().run(target)
            if config.verify:
                with phase_span("verify", timings):
                    verify_module(target)
            # mem2reg runs outside the PassManager, so drop any stale
            # pre-decoded program and cached analyses explicitly
            invalidate_decode_cache(target)
            invalidate_analyses(target)

    if config.scheme == "vanilla":
        return ProtectionResult(
            module=target, scheme="vanilla", report=None, timings=timings
        )

    if report is None:
        with phase_span("analysis", timings):
            report = VulnerabilityAnalysis(target).analyze()
    passes = _build_passes(config, report)

    # The incoming module was verified above (or by the prepared
    # caller), so the pipeline only re-verifies after each mutation.
    manager = PassManager(passes, verify=config.verify, verify_input=False)
    try:
        stats = manager.run(target)
    except VerificationError as exc:
        first = exc.errors[0] if exc.errors else str(exc)
        raise ProtectionError(
            f"scheme {config.scheme!r} produced an invalid module: {first}"
        ) from exc
    for name, seconds in manager.timings.items():
        if name == "verify":
            timings["verify"] = timings.get("verify", 0.0) + seconds
        else:
            timings[f"pass:{name}"] = seconds
    return ProtectionResult(
        module=target,
        scheme=config.scheme,
        report=report,
        pass_stats=stats,
        timings=timings,
    )


def protect_all(
    module: Module,
    schemes: "tuple[str, ...]" = SCHEMES,
    shared_analysis: bool = True,
    consume: bool = False,
) -> Dict[str, ProtectionResult]:
    """Protect independent clones of ``module`` under several schemes.

    The default *shared-analysis* path verifies, promotes, and analyzes
    the module **once**, then clones the prepared module per scheme and
    carries the vulnerability report into each clone through the clone's
    value map (:func:`~repro.core.remap.remap_report`).  The prepared
    module itself becomes the vanilla result.

    ``shared_analysis=False`` is the original re-analyze-per-scheme
    path; the test suite uses it as the oracle (both paths must produce
    bit-identically printing modules for every scheme).

    ``consume=True`` transfers ownership of ``module`` to the pipeline:
    it may be mutated in place (it becomes the mem2reg-prepared vanilla
    module) instead of being cloned pristine first.  Callers that build
    a module per compilation -- the suite runner, the benchmarks -- have
    no further use for the input and skip one full clone this way.

    Phase timings land where the work happens: the vanilla result
    carries the shared ``verify``/``mem2reg``/``analysis`` phases, each
    protected scheme carries its own ``remap``/``verify``/``pass:*``.
    """
    if not shared_analysis:
        results = {}
        last = len(schemes) - 1
        for i, scheme in enumerate(schemes):
            # With ownership of the input, the final scheme can compile
            # the module in place instead of cloning it.
            results[scheme] = protect(
                module, scheme=scheme, clone=not (consume and i == last)
            )
        return results

    from ..analysis.manager import get_manager
    from .remap import remap_report

    prep_timings: Dict[str, float] = {}
    prepared = module if consume else clone_module(module)
    with phase_span("verify", prep_timings):
        verify_module(prepared)
    with phase_span("mem2reg", prep_timings):
        Mem2Reg().run(prepared)
    with phase_span("verify", prep_timings):
        verify_module(prepared)
    invalidate_decode_cache(prepared)
    invalidate_analyses(prepared)

    needs_analysis = any(scheme != "vanilla" for scheme in schemes)
    report = None
    if needs_analysis:
        with phase_span("analysis", prep_timings):
            report = get_manager().vulnerability_report(prepared)

    results: Dict[str, ProtectionResult] = {}
    for scheme in schemes:
        if scheme == "vanilla":
            results[scheme] = ProtectionResult(
                module=prepared,
                scheme="vanilla",
                report=None,
                timings=dict(prep_timings),
            )
            continue
        target, vmap = prepared.clone(value_map=True)
        remap_timings: Dict[str, float] = {}
        with phase_span("remap", remap_timings):
            remapped = remap_report(report, vmap)
        result = protect(
            target,
            config=DefenseConfig(scheme=scheme),
            clone=False,
            report=remapped,
            prepared=True,
        )
        result.timings["remap"] = remap_timings["remap"]
        results[scheme] = result
    return results
