"""Per-module analysis memoization, in the style of LLVM's AnalysisManager.

``protect_all`` and the defense passes used to construct a fresh
``AliasAnalysis``/``InputChannelAnalysis``/``MemoryDefUse``/``CallGraph``
for every consumer, re-solving the same constraint systems on the same
unmodified module.  :class:`AnalysisManager` memoizes them per module so
every consumer in one pipeline stage shares one instance of each.

Analyses live in the module's derived-artifact memo
(:meth:`repro.ir.module.Module.derived`) under ``(manager, name)``
keys, beside the decoded and compiled programs: transforms drop them
with ``module.invalidate_derived()``, and the memo's shape guard
catches an unreported mutation that changes instruction counts.
Keying on the manager keeps separate managers from serving, or
evicting, each other's results; the manager itself carries only the
hit/miss counters.
"""

from __future__ import annotations

from ..ir.module import Module
from .alias import AliasAnalysis
from .callgraph import CallGraph
from .dataflow import MemoryDefUse
from .input_channels import InputChannelAnalysis
from .slicing import BackwardSlicer, ForwardSlicer


class AnalysisManager:
    """Memoizes module-level analyses keyed per module."""

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def _get(self, module: Module, name: str, build) -> object:
        memo = module.derived()
        analysis = memo.get((self, name))
        if analysis is not None:
            self.hits += 1
            return analysis
        self.misses += 1
        analysis = memo[(self, name)] = build()
        return analysis

    def seed(self, module: Module, **analyses: object) -> None:
        """Install externally constructed analyses for ``module``.

        ``remap_report`` uses this so a report remapped into a clone
        serves subsequent manager queries against that clone without a
        recompute.  Keyword names match the accessor names below.
        """
        memo = module.derived()
        for name, analysis in analyses.items():
            memo[(self, name)] = analysis

    # -- accessors ------------------------------------------------------------

    def alias(self, module: Module) -> AliasAnalysis:
        return self._get(module, "alias", lambda: AliasAnalysis(module))

    def channels(self, module: Module) -> InputChannelAnalysis:
        return self._get(module, "channels", lambda: InputChannelAnalysis(module))

    def memdu(self, module: Module) -> MemoryDefUse:
        return self._get(
            module,
            "memdu",
            lambda: MemoryDefUse(module, self.alias(module), self.channels(module)),
        )

    def callgraph(self, module: Module) -> CallGraph:
        return self._get(module, "callgraph", lambda: CallGraph(module))

    def slicer(self, module: Module) -> BackwardSlicer:
        return self._get(
            module,
            "slicer",
            lambda: BackwardSlicer(
                module,
                self.alias(module),
                self.channels(module),
                self.memdu(module),
                self.callgraph(module),
            ),
        )

    def dfi_slicer(self, module: Module) -> BackwardSlicer:
        return self._get(
            module,
            "dfi_slicer",
            lambda: BackwardSlicer(
                module,
                self.alias(module),
                self.channels(module),
                self.memdu(module),
                self.callgraph(module),
                stop_at_pointer_arithmetic=True,
            ),
        )

    def forward_slicer(self, module: Module) -> ForwardSlicer:
        return self._get(
            module,
            "forward_slicer",
            lambda: ForwardSlicer(
                module, self.alias(module), self.channels(module), self.memdu(module)
            ),
        )

    def vulnerability_report(self, module: Module):
        """The full §4.1 :class:`~repro.core.vulnerability.VulnerabilityReport`."""

        def build():
            # Imported lazily: repro.core imports repro.analysis.
            from ..core.vulnerability import VulnerabilityAnalysis

            return VulnerabilityAnalysis(module, manager=self).analyze()

        return self._get(module, "vulnerability_report", build)


#: The process-wide manager every pipeline stage shares by default.
DEFAULT_MANAGER = AnalysisManager()


def get_manager() -> AnalysisManager:
    return DEFAULT_MANAGER

