"""AnalysisManager memoization and invalidation discipline."""

from __future__ import annotations

import pytest

from repro.analysis.manager import AnalysisManager, get_manager
from repro.core.framework import protect
from repro.frontend import compile_source
from repro.hardware.cpu import CPU
from repro.hardware.decoder import decode_module
from repro.hardware.tracec import trace_compile
from repro.transforms import Mem2Reg
from repro.transforms.pass_manager import PassManager
from repro.workloads import generate_program, get_profile

SOURCE = """
int main() {
    char buf[8];
    gets(buf);
    if (buf[0] > 3) {
        return 1;
    }
    return 0;
}
"""


def fresh_module():
    return compile_source(SOURCE, name="managed")


class _TouchPass:
    """A pass that mutates nothing but still ends a pipeline stage."""

    name = "touch"

    def run(self, module):
        return {}


def test_memoizes_per_module_and_counts():
    manager = AnalysisManager()
    module = fresh_module()
    first = manager.alias(module)
    assert manager.alias(module) is first
    assert (manager.hits, manager.misses) == (1, 1)

    other = fresh_module()
    assert manager.alias(other) is not first


def test_dependent_analyses_share_components():
    manager = AnalysisManager()
    module = fresh_module()
    memdu = manager.memdu(module)
    assert memdu.alias is manager.alias(module)
    assert memdu.channels is manager.channels(module)
    slicer = manager.slicer(module)
    assert slicer is manager.slicer(module)
    assert manager.dfi_slicer(module) is not slicer


def test_explicit_invalidation_drops_entries():
    manager = AnalysisManager()
    module = fresh_module()
    first = manager.alias(module)
    module.invalidate_derived()
    assert manager.alias(module) is not first


#: Each derived artifact as ``(manager, module) -> (artifact, seconds)``.
_ARTIFACTS = {
    "alias": lambda manager, module: (manager.alias(module), None),
    "decoded": lambda manager, module: decode_module(module),
    "block": lambda manager, module: trace_compile(module, regions=False),
    "trace": lambda manager, module: trace_compile(module, regions=True),
}


@pytest.mark.parametrize("artifact", sorted(_ARTIFACTS))
def test_fingerprint_guards_unreported_mutation(artifact):
    build = _ARTIFACTS[artifact]
    manager = AnalysisManager()
    # A promotable scalar, so mem2reg actually rewrites the module.
    module = compile_source(
        "int main() { int x; x = 4; if (x > 3) { return 1; } return 0; }"
    )
    stale, _ = build(manager, module)
    # Mutate without reporting it: promotion changes instruction counts,
    # so the memo's shape no longer matches.
    Mem2Reg().run(module)
    fresh, seconds = build(manager, module)
    assert fresh is not stale
    if artifact in ("block", "trace"):
        assert seconds > 0.0


def test_separate_managers_do_not_share_results():
    module = fresh_module()
    ours = AnalysisManager()
    theirs = AnalysisManager()
    mine = ours.alias(module)
    assert theirs.alias(module) is not mine
    # Neither manager evicts the other's entry.
    assert ours.alias(module) is mine
    assert (ours.hits, ours.misses) == (1, 1)


def test_seeded_analyses_are_served():
    manager = AnalysisManager()
    module = fresh_module()
    sentinel = object()
    manager.seed(module, alias=sentinel)
    assert manager.alias(module) is sentinel


def _fill_every_artifact(module):
    """Derive every kind of artifact and check that the memo holds each."""
    get_manager().alias(module)
    decode_module(module)
    trace_compile(module, regions=False)
    trace_compile(module, regions=True)
    CPU(module)  # fills "cpu_meta"
    slots = {"decoded", "block", "trace", "cpu_meta", (get_manager(), "alias")}
    assert slots <= set(module.derived())


def test_pass_manager_run_drops_decode_and_analysis_caches():
    module = fresh_module()
    Mem2Reg().run(module)
    module.invalidate_derived()
    _fill_every_artifact(module)

    PassManager([_TouchPass()]).run(module)
    assert module.derived() == {}


def test_empty_pipeline_keeps_caches():
    module = fresh_module()
    Mem2Reg().run(module)
    module.invalidate_derived()
    cached = get_manager().alias(module)
    PassManager([]).run(module)
    assert get_manager().alias(module) is cached


def test_protect_mem2reg_hook_drops_caches():
    module = fresh_module()
    module.invalidate_derived()
    _fill_every_artifact(module)

    # mem2reg runs outside any PassManager, so protect() itself must
    # drop the pre-promotion caches.
    protect(module, scheme="vanilla", clone=False)
    assert module.derived() == {}


def test_vulnerability_report_memoized_on_workload():
    manager = AnalysisManager()
    module = generate_program(get_profile("505.mcf_r")).compile()
    Mem2Reg().run(module)
    report = manager.vulnerability_report(module)
    assert manager.vulnerability_report(module) is report
    assert report.analysis is not None
    assert report.analysis.alias is manager.alias(module)
