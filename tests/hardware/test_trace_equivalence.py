"""Golden equivalence: the trace columns of ``tests/tier_oracle.py``.

The trace tier fuses hot multi-block regions into single generated
functions, so every observable of a run must stay bit-identical to the
reference interpreter's -- including mid-region traps (side-exit
reconciliation), step-limit crossings and attack scenarios.  Every
function is compiled up front (``trace-static``) or tiers up mid-run
(``trace-lazy``, outside ``test_tier_up.py``'s profile sweep).
"""

from __future__ import annotations

import functools
import re
from typing import Dict

import pytest

from repro.attacks import build_scenarios
from repro.core import SCHEMES, protect
from repro.frontend import compile_source
from repro.hardware import CPU, trace_compile
from repro.hardware.errors import DfiTrap
from repro.workloads import profile_names
from tests.tier_oracle import (
    assert_lattice,
    assert_program,
    assert_scenario,
    assert_step_limit,
    assert_timing_falls_back,
    custom_costs,
    generated,
    narrow_issue,
)

#: The trace tiers of the lattice.
TIERS = ("trace-lazy", "trace-static")

#: Loopy profiles whose trace programs fuse blocks.
PROFILES = ("505.mcf_r", "502.gcc_r", "519.lbm_r", "525.x264_r")


# -- benign benchmark sweep ----------------------------------------------------------


@pytest.mark.parametrize("name", profile_names())
def test_profile_equivalence_all_schemes(name):
    """Every function compiled before the run."""
    assert_program(generated(name), ("trace-static",))


# -- attack scenarios: mid-region traps must reconcile their counters ----------------


@pytest.mark.parametrize("scenario_name", sorted(build_scenarios()))
def test_scenario_equivalence_all_schemes(scenario_name):
    assert_scenario(scenario_name, TIERS)


# -- a call-free leaf loop over a global ----------------------------------------------

#: ``leaf``'s loop reads the global ``limit`` on every iteration and
#: makes no call; under ``dfi`` each read is a ``dfi.chkdef`` whose
#: pointer is the same global on every iteration.  ``main`` first stores
#: ``buf[%d]``: in bounds at 0, and at 8 past ``buf``'s end onto
#: ``limit``, which then carries the wrong writer when the loop reads it.
LEAF_LOOP = r"""
char buf[8];
int limit = 3;

int leaf(int n) {
    int total = 0;
    for (int i = 0; i < n; i = i + 1) { total = total + limit * i; }
    return total;
}

int main() {
    buf[%d] = 9;
    printf("t=%%d\n", leaf(6));
    return 0;
}
"""


@pytest.mark.parametrize("index", (0, 8))
def test_leaf_loop_over_a_global_matches_reference(index):
    module = compile_source(LEAF_LOOP % index, name=f"leaf{index}")
    for scheme in SCHEMES:
        protected = protect(module, scheme=scheme)
        context = f"leaf loop, buf[{index}], {scheme}"
        reference = assert_lattice(protected.module, context=context)
        if index == 8 and scheme == "dfi":
            # The overwrite is caught at the loop's read of ``limit``.
            assert isinstance(reference.trap, DfiTrap), context
            assert "writer 1 not in [0]" in str(reference.trap), context
        else:
            assert reference.ok, context
            expected = 45 if index == 0 else 135  # limit 3, or 9
            assert reference.output == f"t={expected}\n".encode(), context


# -- step-limit hand-off ------------------------------------------------------------


@pytest.mark.parametrize("max_steps", (100, 999, 1000, 5000))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_limit_trips_at_the_same_op(scheme, max_steps):
    """A deopt flushes, spills and replays: every scheme."""
    assert_step_limit(scheme, max_steps, TIERS)


# -- codegen shape: one exit per region --------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
def test_each_region_flushes_its_tally_at_most_twice(scheme):
    """Exits share one epilogue; only the except clause repeats the flush.

    A region with internal edges (its function has a ``while True``
    loop) counts each chunk composition's hits in a local and adds it
    to the CPU's hit store (``hits[17] += _k0``).  That line must appear
    once in the epilogue and once in the except clause, however many
    returns, side exits and step-limit guards the region has.
    """
    protected = protect(generated("502.gcc_r").compile(), scheme=scheme)
    trace_program, _ = trace_compile(protected.module)
    tally = re.compile(r"^\s*hits\[(\d+)\] \+= _k\d+$")
    regions = exits = 0
    for source in trace_program.sources.values():
        for function in re.split(r"\n    def ", source)[1:]:
            if "while True:" not in function:
                continue
            regions += 1
            exits += function.count("; break")
            per_opcode: Dict[str, int] = {}
            for line in function.splitlines():
                match = tally.match(line)
                if match:
                    per_opcode[match[1]] = per_opcode.get(match[1], 0) + 1
            assert per_opcode, function.splitlines()[0]
            assert max(per_opcode.values()) <= 2, (
                function.splitlines()[0], per_opcode,
            )
    assert regions >= 1
    assert exits > 2 * regions  # several exits per region on average


#: Bytes of generated source in the trace program of 502.gcc_r under
#: pythia, with each chunk composition id written as ``hits[]`` (ids
#: are numbered process-wide, so their digits depend on what compiled
#: before): 339,572 with chains laid out false arm first (421,783 when
#: ties went to the true arm), plus 1%.  Unlike bytecodes per step, the
#: figure holds on every supported Python version.
SOURCE_BYTES = 342_967


@functools.lru_cache(maxsize=None)
def _gcc_pythia_sources():
    """The generated source of 502.gcc_r/pythia's trace program."""
    protected = protect(generated("502.gcc_r").compile(), scheme="pythia")
    trace_program, _ = trace_compile(protected.module)
    return tuple(trace_program.sources.values())


def test_static_layout_source_bytes_stay_under_their_ceiling():
    emitted = sum(
        len(re.sub(r"hits\[\d+\]", "hits[]", source))
        for source in _gcc_pythia_sources()
    )
    assert emitted <= SOURCE_BYTES, emitted


def test_compiled_code_builds_no_int_to_guard_or_index():
    """Regions guard on the step budget (``_rm < N``), not on
    ``cpu.steps + _st + N > _ms``, and a gep scales its dynamic index
    unflipped."""
    source = "\n".join(_gcc_pythia_sources())
    assert "_rm < " in source
    assert "cpu.steps + _st" not in source
    assert "^ 9223372036854775808) *" not in source


# -- batched accounting bails out when it cannot be trusted --------------------------


def test_custom_costs_fall_back_to_decoded(listing1_module):
    assert_timing_falls_back(listing1_module, custom_costs, TIERS)


def test_non_default_issue_width_falls_back(listing1_module):
    assert_timing_falls_back(listing1_module, narrow_issue, TIERS)


# -- compile caching on the module ---------------------------------------------------


def test_trace_compile_is_cached_on_the_module(listing1_module):
    module = listing1_module.clone()
    program, first_seconds = trace_compile(module)
    again, second_seconds = trace_compile(module)
    assert again is program
    assert second_seconds == 0.0
    assert first_seconds >= 0.0


@pytest.mark.parametrize("name", PROFILES)
def test_trace_program_fuses_blocks(name):
    """At least one multi-block region exists on a loopy benchmark."""
    protected = protect(generated(name).compile(), scheme="vanilla")
    program, _ = trace_compile(protected.module)
    assert program.region_count >= 1
    assert program.fused_blocks > program.region_count  # >1 block somewhere


def test_trace_interpreter_recorded_in_result(listing1_module):
    result = CPU(listing1_module.clone(), interpreter="trace").run()
    assert result.interpreter == "trace"
