"""The end-to-end Pythia compiler framework.

``protect(module, config)`` prepares (verify, mem2reg), analyzes, and
applies one configured defense scheme, returning the instrumented
module plus the static statistics the evaluation reports (PA
instruction counts, canary counts, binary size).

Every caller that wants several schemes of one module goes through
:class:`PreparedModule` (directly, or via ``protect_all``): the module
is prepared and analyzed once, and each scheme is a variant derived
from it by clone + report remap.  Cloning is a structural object-graph copy
(:meth:`repro.ir.module.Module.clone`); the older textual round-trip is
kept as :func:`clone_module_textual` and doubles as the verification
oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional

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
from .config import BASELINE, DEFAULT_SCHEME, SCHEMES, DefenseConfig
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


def _pythia_passes(config: DefenseConfig, report: VulnerabilityReport) -> list:
    passes = []
    if config.protect_fields:
        passes.append(FieldProtectionPass(report))
    if config.protect_stack:
        passes.append(
            StackProtectionPass(report, rerandomize=config.rerandomize_canaries)
        )
    if config.protect_heap:
        passes.append(HeapSectionPass(report))
    return passes


#: The defense passes of every scheme, built from its config and the
#: vulnerability report.  The baseline has no entry: it is never
#: instrumented.
SCHEME_PASSES = {
    "cpa": lambda config, report: [CompletePointerAuthentication(report)],
    "pythia": _pythia_passes,
    "dfi": lambda config, report: [DataFlowIntegrityPass(report)],
}


def _prepare(
    module: Module, timings: Dict[str, float], verify: bool = True, mem2reg: bool = True
) -> None:
    """Verify and SSA-promote ``module`` in place, timing each phase."""
    if verify:
        with phase_span("verify", timings):
            verify_module(module)
    if mem2reg:
        with phase_span("mem2reg", timings):
            Mem2Reg().run(module)
        if verify:
            with phase_span("verify", timings):
                verify_module(module)
        # mem2reg runs outside the PassManager, so drop what was derived
        # from the unpromoted IR explicitly
        module.invalidate_derived()


def _instrument(
    target: Module,
    config: DefenseConfig,
    report: VulnerabilityReport,
    timings: Dict[str, float],
) -> ProtectionResult:
    """Run ``config``'s defense passes over the prepared ``target``."""
    # The incoming module was verified while being prepared, so the
    # pipeline only re-verifies after each mutation.
    passes = SCHEME_PASSES[config.scheme](config, report)
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


def protect(
    module: "Module | PreparedModule",
    config: Optional[DefenseConfig] = None,
    scheme: Optional[str] = None,
    clone: bool = True,
) -> ProtectionResult:
    """Apply a defense scheme to (a clone of) ``module``.

    Given a :class:`PreparedModule`, the result is its
    :meth:`~PreparedModule.variant` for the scheme (``clone`` does not
    apply).  Multi-scheme callers protect that way, so every scheme of
    every module is instrumented through this one entry point.
    """
    if config is None:
        config = DefenseConfig(scheme=scheme or DEFAULT_SCHEME)
    elif scheme is not None:
        raise ValueError("pass either config or scheme, not both")
    if isinstance(module, PreparedModule):
        return module.variant(config)
    target = clone_module(module) if clone else module
    timings: Dict[str, float] = {}
    _prepare(target, timings, verify=config.verify, mem2reg=config.run_mem2reg)
    if config.scheme == BASELINE:
        return ProtectionResult(
            module=target, scheme=BASELINE, report=None, timings=timings
        )
    with phase_span("analysis", timings):
        report = VulnerabilityAnalysis(target).analyze()
    return _instrument(target, config, report, timings)


class PreparedModule:
    """One verified, SSA-promoted module and the scheme variants of it.

    Construction verifies and promotes ``module`` once (a clone of it,
    unless ``consume=True`` hands the input over to be prepared in
    place).  :attr:`report` runs the vulnerability analysis on first
    use.  :meth:`variant` derives a scheme's protection from both: the
    vanilla variant is the prepared module itself, and every protected
    variant instruments a clone of it after carrying the report into
    the clone's coordinates (:func:`~repro.core.remap.remap_report`).

    Phase timings land where the work happens: the vanilla variant
    carries the shared ``verify``/``mem2reg``/``analysis`` phases run so
    far, each protected variant its own ``remap``/``verify``/``pass:*``.
    """

    def __init__(self, module: Module, consume: bool = False):
        self.module = module if consume else clone_module(module)
        self.timings: Dict[str, float] = {}
        _prepare(self.module, self.timings)

    @cached_property
    def report(self) -> VulnerabilityReport:
        from ..analysis.manager import get_manager

        with phase_span("analysis", self.timings):
            return get_manager().vulnerability_report(self.module)

    def variant(self, config: DefenseConfig) -> ProtectionResult:
        if config.scheme == BASELINE:
            return ProtectionResult(
                module=self.module,
                scheme=BASELINE,
                report=None,
                timings=dict(self.timings),
            )
        from .remap import remap_report

        target, vmap = self.module.clone(value_map=True)
        timings: Dict[str, float] = {}
        with phase_span("remap", timings):
            report = remap_report(self.report, vmap)
        return _instrument(target, config, report, timings)


def protect_all(
    module: Module,
    schemes: "tuple[str, ...]" = SCHEMES,
    shared_analysis: bool = True,
    consume: bool = False,
) -> Dict[str, ProtectionResult]:
    """Protect independent clones of ``module`` under several schemes.

    The default *shared-analysis* path prepares and analyzes the module
    once, as a :class:`PreparedModule`, and derives every scheme as a
    variant of it.  ``shared_analysis=False`` is the original
    re-analyze-per-scheme path; the test suite uses it as the oracle
    (both paths must produce bit-identically printing modules for every
    scheme).

    ``consume=True`` transfers ownership of ``module`` to the pipeline:
    it may be mutated in place (it becomes the mem2reg-prepared vanilla
    module) instead of being cloned pristine first.  Callers that build
    a module per compilation have no further use for the input and skip
    one full clone this way.
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

    prepared = PreparedModule(module, consume=consume)
    if any(scheme != BASELINE for scheme in schemes):
        prepared.report  # analyze first, so the vanilla result carries it
    return {scheme: protect(prepared, scheme=scheme) for scheme in schemes}
