"""Translate a vulnerability analysis across a module clone.

A :class:`~repro.core.framework.PreparedModule` computes the §4.1
analysis once and instruments each scheme's *clone* of the prepared
module -- for ``protect_all``, the serve registry, and every other
multi-scheme caller alike.  The analysis results are
object graphs over the prepared module's values -- alias points-to sets
of its ``MemObject`` allocation sites, slices of its instructions --
so :func:`remap_report` rebuilds every analysis structure in the
clone's coordinates using the :class:`~repro.ir.clone.ValueMap` the
clone produced.  This is a pure dictionary translation: no constraint
solving, no slicing walks.

The recompute path (``protect_all(..., shared_analysis=False)``)
remains the oracle: a remapped report must classify identically to a
fresh analysis of the clone, and the instrumented modules must print
bit-identically.  ``tests/core/test_remap.py`` checks both.

Solver/walk scratch state (alias copy edges, load/store constraint
lists) is deliberately left empty in the rebuilt analyses: it exists
only during construction and no query reads it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.alias import AliasAnalysis, MemObject
from ..analysis.callgraph import CallGraph
from ..analysis.dataflow import MemoryDef, MemoryDefUse
from ..analysis.input_channels import InputChannelAnalysis, InputChannelSite
from ..analysis.manager import AnalysisManager, get_manager
from ..analysis.slicing import BackwardSlicer, BranchSlice, ForwardSlice, ForwardSlicer
from ..ir.clone import ValueMap
from .vulnerability import VulnerabilityAnalysis, VulnerabilityReport


class _LazyRemappedReport(VulnerabilityReport):
    """A remapped report whose slice collections materialize on demand.

    The defense passes read only the variable sets and ``analysis``;
    the per-branch slice translation -- the most voluminous part of the
    remap -- is deferred until something actually asks for it (security
    reporting, the remap oracle tests).  Materialization closes over
    the source report and value map, which pin the prepared module --
    no extra lifetime, since the prepared module is the vanilla variant
    of the same :class:`~repro.core.framework.PreparedModule`.
    """

    _slices = None

    def _ensure(self):
        slices = self._slices
        if slices is None:
            slices = self._slices = self._materialize()
        return slices

    @property
    def branch_slices(self):
        return self._ensure()[0]

    @property
    def dfi_slices(self):
        return self._ensure()[1]

    @property
    def forward_slice(self):
        return self._ensure()[2]


def remap_report(
    report: VulnerabilityReport,
    vmap: ValueMap,
    manager: Optional[AnalysisManager] = None,
) -> VulnerabilityReport:
    """Rebuild ``report`` in the coordinates of ``vmap.target``.

    The rebuilt analyses are seeded into ``manager`` (the process-wide
    default unless given), so subsequent manager queries against the
    clone are served without recomputation.
    """
    analysis = report.analysis
    if analysis is None:
        raise ValueError("report carries no analysis to remap")
    if analysis.module is not vmap.source:
        raise ValueError("value map does not originate from the report's module")
    if manager is None:
        manager = get_manager()
    target = vmap.target

    # -- memory objects -------------------------------------------------------
    # Fresh MemObject per allocation site, anchored at the cloned
    # anchor.  Labels are derived from function/value names, which the
    # clone preserves, so they carry over verbatim (object_modifier_id
    # hashes the label, keeping PA modifiers stable across the remap).
    omap: Dict[int, MemObject] = {}
    for obj in analysis.alias.objects:
        omap[id(obj)] = MemObject(obj.kind, vmap[obj.anchor], obj.label)

    vm_get = vmap._map.get

    def m(value):
        # Inlined fast path of ``vmap[value]``; the fallback handles
        # constants that never appeared as operands.
        mapped = vm_get(id(value))
        return mapped if mapped is not None else vmap[value]

    def mo(obj: MemObject) -> MemObject:
        return omap[id(obj)]

    def mset(objects) -> Set[MemObject]:
        return {omap[id(obj)] for obj in objects}

    # -- alias analysis -------------------------------------------------------
    old_alias = analysis.alias
    alias = AliasAnalysis.__new__(AliasAnalysis)
    alias.module = target
    alias.points_to_sets = {
        m(value): mset(pts) for value, pts in old_alias.points_to_sets.items()
    }
    alias.pointees = {mo(obj): mset(pts) for obj, pts in old_alias.pointees.items()}
    alias.objects = [mo(obj) for obj in old_alias.objects]
    alias._object_for_anchor = {id(obj.anchor): obj for obj in alias.objects}
    alias._copy_edges = {}
    alias._loads = []
    alias._stores = []
    alias._frozen = {}

    # -- input channels -------------------------------------------------------
    old_channels = analysis.channels
    channels = InputChannelAnalysis.__new__(InputChannelAnalysis)
    channels.module = target
    channels.dispatchers = {
        m(function): kind for function, kind in old_channels.dispatchers.items()
    }
    site_map: Dict[int, InputChannelSite] = {}
    channels.sites = []
    for site in old_channels.sites:
        fresh = InputChannelSite(
            call=m(site.call),
            function=m(site.function),
            kind=site.kind,
            written_pointers=tuple(m(ptr) for ptr in site.written_pointers),
            writes_return=site.writes_return,
        )
        site_map[id(site)] = fresh
        channels.sites.append(fresh)

    def msite(site: Optional[InputChannelSite]) -> Optional[InputChannelSite]:
        return None if site is None else site_map[id(site)]

    # -- call graph -----------------------------------------------------------
    old_cg = analysis.callgraph
    callgraph = CallGraph.__new__(CallGraph)
    callgraph.module = target
    callgraph.callees = {
        m(fn): {m(callee) for callee in callees}
        for fn, callees in old_cg.callees.items()
    }
    callgraph.callers = {
        m(fn): {m(caller) for caller in callers}
        for fn, callers in old_cg.callers.items()
    }
    callgraph.call_sites = {
        m(fn): [m(call) for call in calls] for fn, calls in old_cg.call_sites.items()
    }

    # -- memory def-use -------------------------------------------------------
    old_memdu = analysis.memdu
    memdu = MemoryDefUse.__new__(MemoryDefUse)
    memdu.module = target
    memdu.alias = alias
    memdu.channels = channels
    def_map: Dict[int, MemoryDef] = {}
    memdu.defs = []
    for mdef in old_memdu.defs:
        fresh_def = MemoryDef(
            def_id=mdef.def_id,
            inst=m(mdef.inst),
            function=m(mdef.function),
            objects=frozenset(mset(mdef.objects)),
            ic_site=msite(mdef.ic_site),
        )
        def_map[id(mdef)] = fresh_def
        memdu.defs.append(fresh_def)
    memdu.defs_by_object = {
        mo(obj): [def_map[id(mdef)] for mdef in defs]
        for obj, defs in old_memdu.defs_by_object.items()
    }
    memdu.loads_by_object = {
        mo(obj): [m(load) for load in loads]
        for obj, loads in old_memdu.loads_by_object.items()
    }
    memdu.def_for_inst = {
        id(fresh_def.inst): fresh_def for fresh_def in memdu.defs
    }

    # -- slicers (plain construction: they only build cheap indices) ----------
    slicer = BackwardSlicer(target, alias, channels, memdu, callgraph)
    dfi_slicer = BackwardSlicer(
        target, alias, channels, memdu, callgraph, stop_at_pointer_arithmetic=True
    )
    forward_slicer = ForwardSlicer(target, alias, channels, memdu)

    fresh_analysis = VulnerabilityAnalysis.__new__(VulnerabilityAnalysis)
    fresh_analysis.module = target
    fresh_analysis.manager = manager
    fresh_analysis.alias = alias
    fresh_analysis.channels = channels
    fresh_analysis.memdu = memdu
    fresh_analysis.callgraph = callgraph
    fresh_analysis.slicer = slicer
    fresh_analysis.dfi_slicer = dfi_slicer
    fresh_analysis.forward_slicer = forward_slicer

    # -- slices ---------------------------------------------------------------
    def mslice(bslice: BranchSlice) -> BranchSlice:
        return BranchSlice(
            branch=None if bslice.branch is None else m(bslice.branch),
            function=m(bslice.function),
            values={m(value) for value in bslice.values},
            variables=mset(bslice.variables),
            input_channels=[
                (site_map[id(site)], depth) for site, depth in bslice.input_channels
            ],
            has_pointer_arithmetic=bslice.has_pointer_arithmetic,
            has_field_access=bslice.has_field_access,
            complex_interprocedural=bslice.complex_interprocedural,
            terminated_at=[m(inst) for inst in bslice.terminated_at],
        )

    def materialize_slices():
        branch_slices = {
            m(branch): mslice(bslice)
            for branch, bslice in report.branch_slices.items()
        }
        dfi_slices = {
            m(branch): mslice(bslice) for branch, bslice in report.dfi_slices.items()
        }
        forward = ForwardSlice(
            sites=[site_map[id(site)] for site in report.forward_slice.sites],
            values={m(value) for value in report.forward_slice.values},
            variables=mset(report.forward_slice.variables),
        )
        return branch_slices, dfi_slices, forward

    remapped = _LazyRemappedReport.__new__(_LazyRemappedReport)
    remapped._materialize = materialize_slices
    remapped.module = target
    remapped.backward_variables = mset(report.backward_variables)
    remapped.tainted_variables = mset(report.tainted_variables)
    remapped.cpa_variables = mset(report.cpa_variables)
    remapped.ic_destinations = mset(report.ic_destinations)
    remapped.refined_variables = mset(report.refined_variables)
    remapped.all_variables = mset(report.all_variables)
    remapped.analysis = fresh_analysis

    manager.seed(
        target,
        alias=alias,
        channels=channels,
        memdu=memdu,
        callgraph=callgraph,
        slicer=slicer,
        dfi_slicer=dfi_slicer,
        forward_slicer=forward_slicer,
        vulnerability_report=remapped,
    )
    return remapped
