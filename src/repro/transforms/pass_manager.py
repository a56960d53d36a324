"""Minimal pass infrastructure.

A pass is anything with a ``name`` and a ``run(module) -> dict`` method
returning statistics.  The manager runs passes in order and verifies
once per pipeline stage: the incoming module (unless the caller just
verified it, see below) and the final module after the whole pipeline.
``verify_each=True`` restores the after-every-pass schedule for
debugging which pass corrupted the IR; the test suite exercises both.

``verify_input`` controls the verify of the *incoming* module: callers
that just verified it themselves -- ``protect()`` verifies right before
building its pipeline -- pass ``False`` so the same untouched module is
not verified twice in a row.

``run`` records wall time per pass in :attr:`timings` (verification
time is accumulated separately under ``"verify"``), and drops every
artifact derived from the module (``Module.invalidate_derived``) once
the pipeline has mutated it.  Each phase is measured via
:class:`repro.observability.phase_span`, so the same clock reading
feeds :attr:`timings`, the global metrics registry, and (when tracing
is enabled) a ``pass:<name>`` span in the trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence

from ..ir.module import Module
from ..ir.verifier import verify_module
from ..observability import phase_span


class ModulePass(Protocol):
    """Structural interface of a module pass."""

    name: str

    def run(self, module: Module) -> Dict[str, object]:  # pragma: no cover
        ...


class PassManager:
    """Runs a pipeline of module passes, collecting their statistics."""

    def __init__(
        self,
        passes: Sequence[ModulePass],
        verify: bool = True,
        verify_input: bool = True,
        verify_each: bool = False,
    ):
        self.passes = list(passes)
        self.verify = verify
        self.verify_input = verify_input
        self.verify_each = verify_each
        self.stats: Dict[str, Dict[str, object]] = {}
        #: wall seconds per pass name, plus accumulated ``"verify"`` time
        self.timings: Dict[str, float] = {}

    def _verify(self, module: Module) -> None:
        with phase_span("verify", self.timings):
            verify_module(module)

    def run(self, module: Module) -> Dict[str, Dict[str, object]]:
        if self.verify and self.verify_input:
            self._verify(module)
        for pass_ in self.passes:
            with phase_span(f"pass:{pass_.name}", self.timings, key=pass_.name):
                self.stats[pass_.name] = pass_.run(module) or {}
            if self.verify and self.verify_each:
                self._verify(module)
        if self.passes:
            if self.verify and not self.verify_each:
                self._verify(module)
            # The passes rewrote the IR: everything derived from it is stale.
            module.invalidate_derived()
        return self.stats
