"""Every region transformation of the trace compiler fires on generated code.

A fast path that no generated program reaches cannot be checked by the
golden equivalence suites, which run generated programs.  This test
compiles a small fixed set of generator programs eagerly, under every
scheme, and counts how often each transformation the compiler keeps
applies, through wrappers around the compiler's own functions.  Each
must apply at least once; a transformation that stops firing (or a new
one added without a generated program that reaches it) fails here.
"""

from __future__ import annotations

from collections import Counter

from repro.core import SCHEMES, protect
from repro.hardware import trace_compile, tracec
from repro.workloads import generate_program, get_profile

#: Small generated programs; together they reach every transformation.
PROFILES = ("505.mcf_r", "519.lbm_r")

TRANSFORMATIONS = (
    "localized header phis",
    "loop-invariant preloads",
    "tail-duplicated blocks",
    "inline PAC probes",
    "batched dfi.chkdef runs",
    "fused compare-and-branch exits",
)


def test_each_region_transformation_fires(monkeypatch):
    fired: Counter = Counter()
    plan_region = tracec._plan_region
    build_chains = tracec._build_chains
    emit_pac_inline = tracec._emit_pac_inline
    gen_dfi_chk_batch = tracec._gen_dfi_chk_batch
    compare_expr = tracec._compare_expr

    def counted_plan(*args, **kwargs):
        plan = plan_region(*args, **kwargs)
        fired["localized header phis"] += len(plan.header_phis)
        fired["loop-invariant preloads"] += len(plan.invariants)
        return plan

    def counted_chains(region):
        build_chains(region)
        emitted = sum(len(chain) for chain in region.chains)
        distinct = len({id(b) for chain in region.chains for b in chain})
        fired["tail-duplicated blocks"] += emitted - distinct

    def counted_pac(*args):
        fired["inline PAC probes"] += 1
        return emit_pac_inline(*args)

    def counted_dfi(*args):
        fired["batched dfi.chkdef runs"] += 1
        return gen_dfi_chk_batch(*args)

    def counted_fused(*args):
        fired["fused compare-and-branch exits"] += 1
        return compare_expr(*args)

    monkeypatch.setattr(tracec, "_plan_region", counted_plan)
    monkeypatch.setattr(tracec, "_build_chains", counted_chains)
    monkeypatch.setattr(tracec, "_emit_pac_inline", counted_pac)
    monkeypatch.setattr(tracec, "_gen_dfi_chk_batch", counted_dfi)
    monkeypatch.setattr(tracec, "_compare_expr", counted_fused)

    for name in PROFILES:
        module = generate_program(get_profile(name)).compile()
        for scheme in SCHEMES:
            program, _ = trace_compile(protect(module, scheme=scheme).module)
            assert not program.pending, f"{name}/{scheme}"

    unreached = [name for name in TRANSFORMATIONS if not fired[name]]
    assert not unreached, f"never applied on generated code: {unreached}"
