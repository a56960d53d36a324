"""Per-module analysis memoization, in the style of LLVM's AnalysisManager.

``protect_all`` and the defense passes used to construct a fresh
``AliasAnalysis``/``InputChannelAnalysis``/``MemoryDefUse``/``CallGraph``
for every consumer, re-solving the same constraint systems on the same
unmodified module.  :class:`AnalysisManager` memoizes them per module so
every consumer in one pipeline stage shares one instance of each.

Freshness discipline (mirrors the pre-decoded program cache in
:mod:`repro.hardware.decoder`):

- transforms call :func:`invalidate_analyses` after mutating a module
  (``PassManager.run`` and the framework's mem2reg preparation do this
  alongside their existing decode-cache invalidation);
- as a second line of defense, every entry stores a cheap structural
  fingerprint of the module and is discarded when the live module no
  longer matches it, so an unreported mutation that changes instruction
  counts cannot serve stale analyses.

Entries live *on the module object* (``module._analysis_entry``), not in
a manager-owned mapping: cached analyses hold strong references back to
their module, so any manager-side container -- even a
``WeakKeyDictionary``, whose values would pin the keys -- would keep
every analysed module alive for the life of the process.  With on-module
storage the entry is just part of the module's own (cyclic, collectable)
object graph and dies with it.  The manager itself carries only the
hit/miss counters and a ``WeakSet`` registry for whole-process
invalidation; each entry is tagged with its owning manager so separate
manager instances do not serve each other's results.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

from ..ir.module import Module
from .alias import AliasAnalysis
from .callgraph import CallGraph
from .dataflow import MemoryDefUse
from .input_channels import InputChannelAnalysis
from .slicing import BackwardSlicer, ForwardSlicer


def _module_fingerprint(module: Module) -> Tuple:
    """Cheap structural identity: function shapes and global count.

    Instrumentation always inserts instructions, so any pass that
    forgets to invalidate still misses the cache.  (A mutation that
    preserves every count -- e.g. swapping a callee in place -- is not
    caught; explicit invalidation is the primary mechanism.)
    """
    return (
        len(module.globals),
        tuple(
            (function.name, len(function.blocks), sum(len(b.instructions) for b in function.blocks))
            for function in module.functions.values()
        ),
    )


#: Attribute under which a module carries its cached analyses.
_ENTRY_ATTR = "_analysis_entry"


class _ModuleEntry:
    """The cached analyses of one module, fingerprint-guarded."""

    __slots__ = ("owner", "fingerprint", "analyses")

    def __init__(self, owner: "AnalysisManager", fingerprint: Tuple):
        self.owner = owner
        self.fingerprint = fingerprint
        self.analyses: Dict[str, object] = {}


class AnalysisManager:
    """Memoizes module-level analyses keyed per module."""

    def __init__(self):
        #: modules carrying an entry owned by this manager (weak: the
        #: registry must not keep result modules alive)
        self._modules: "weakref.WeakSet[Module]" = weakref.WeakSet()
        self.hits = 0
        self.misses = 0

    # -- entry bookkeeping ----------------------------------------------------

    def _entry(self, module: Module) -> _ModuleEntry:
        fingerprint = _module_fingerprint(module)
        entry = getattr(module, _ENTRY_ATTR, None)
        if (
            entry is None
            or entry.owner is not self
            or entry.fingerprint != fingerprint
        ):
            entry = _ModuleEntry(self, fingerprint)
            setattr(module, _ENTRY_ATTR, entry)
            self._modules.add(module)
        return entry

    def _get(self, module: Module, name: str, build) -> object:
        entry = self._entry(module)
        analysis = entry.analyses.get(name)
        if analysis is not None:
            self.hits += 1
            return analysis
        self.misses += 1
        analysis = build()
        entry.analyses[name] = analysis
        return analysis

    def invalidate(self, module: Optional[Module] = None) -> None:
        """Drop cached analyses for ``module`` (or all modules)."""
        if module is None:
            for registered in list(self._modules):
                registered.__dict__.pop(_ENTRY_ATTR, None)
            self._modules = weakref.WeakSet()
        else:
            entry = getattr(module, _ENTRY_ATTR, None)
            if entry is not None and entry.owner is self:
                module.__dict__.pop(_ENTRY_ATTR, None)
            self._modules.discard(module)

    def seed(self, module: Module, **analyses: object) -> None:
        """Install externally constructed analyses for ``module``.

        ``remap_report`` uses this so a report remapped into a clone
        serves subsequent manager queries against that clone without a
        recompute.  Keyword names match the accessor names below.
        """
        entry = self._entry(module)
        for name, analysis in analyses.items():
            entry.analyses[name] = analysis

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


def invalidate_analyses(module: Optional[Module] = None) -> None:
    """Drop the default manager's cached analyses for ``module`` (or all)."""
    DEFAULT_MANAGER.invalidate(module)
