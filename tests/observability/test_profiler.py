"""The execution profiler: attribution math and the CPU integration."""

from __future__ import annotations

import pytest

from repro.core.framework import protect
from repro.frontend import compile_source
from repro.hardware import CPU
from repro.observability import PROFILE_SCHEMA, ExecutionProfiler, format_report

SOURCE = """
int helper(int x) {
    int total = 0;
    for (int i = 0; i < x; i = i + 1) { total = total + i; }
    return total;
}

int main() {
    int acc = 0;
    for (int i = 0; i < 20; i = i + 1) { acc = acc + helper(i); }
    return acc % 97;
}
"""


class TestAttributionMath:
    def test_self_excludes_children_inclusive_includes_them(self):
        profiler = ExecutionProfiler()
        profiler.enter("main", 0, 0.0)
        profiler.enter("helper", 10, 5.0)
        profiler.exit(30, 20.0)  # helper: 20 steps, 15 cycles inclusive
        profiler.exit(40, 30.0)  # main: 40 steps, 30 cycles inclusive
        helper = profiler.functions["helper"]
        main = profiler.functions["main"]
        assert helper == [1, 20, 15.0, 20, 15.0]  # leaf: self == inclusive
        assert main[1:] == [20, 15.0, 40, 30.0]  # self = inclusive - child

    def test_self_totals_add_up_across_calls(self):
        profiler = ExecutionProfiler()
        profiler.enter("main", 0, 0.0)
        for start in (10, 40):
            profiler.enter("leaf", start, float(start))
            profiler.exit(start + 20, float(start + 20))
        profiler.exit(100, 100.0)
        leaf = profiler.functions["leaf"]
        main = profiler.functions["main"]
        assert leaf[0] == 2
        assert leaf[1] + main[1] == 100  # self steps partition the run

    def test_block_accumulates(self):
        profiler = ExecutionProfiler()
        profiler.block("f:entry", 3, 2.0)
        profiler.block("f:entry", 5, 4.0)
        assert profiler.blocks["f:entry"] == [2, 8, 6.0]

    def test_report_sorts_by_self_cycles_and_caps_top(self):
        profiler = ExecutionProfiler()
        for index in range(5):
            profiler.enter(f"f{index}", 0, 0.0)
            profiler.exit(1, float(index))
        report = profiler.report(top=2)
        assert report["schema"] == PROFILE_SCHEMA
        assert [entry["name"] for entry in report["functions"]] == ["f4", "f3"]

    def test_trap_recorded(self):
        profiler = ExecutionProfiler()
        profiler.trap("pac_fault", "auth failed at main")
        report = profiler.report()
        assert report["traps"] == [
            {"status": "pac_fault", "detail": "auth failed at main"}
        ]
        assert any("pac_fault" in line for line in format_report(report))


@pytest.fixture(scope="module")
def protected_module():
    return protect(compile_source(SOURCE, name="prof"), scheme="pythia").module


class TestCPUIntegration:
    @pytest.mark.parametrize("interpreter", ["reference", "decoded", "block"])
    def test_self_steps_partition_the_run(self, protected_module, interpreter):
        profiler = ExecutionProfiler()
        result = CPU(
            protected_module, interpreter=interpreter, profiler=profiler
        ).run()
        assert result.ok
        assert sum(
            record[1] for record in profiler.functions.values()
        ) == result.steps
        assert profiler.functions["helper"][0] == 20  # dynamic call count

    def test_block_attribution_only_under_block_tier(self, protected_module):
        for interpreter, expect_blocks in (("decoded", False), ("block", True)):
            profiler = ExecutionProfiler()
            CPU(
                protected_module, interpreter=interpreter, profiler=profiler
            ).run()
            assert bool(profiler.blocks) == expect_blocks
        assert all(":" in label for label in profiler.blocks)

    def test_block_steps_match_run_total(self, protected_module):
        profiler = ExecutionProfiler()
        result = CPU(
            protected_module, interpreter="block", profiler=profiler
        ).run()
        # Blocks containing calls attribute their subtree (call-inclusive),
        # so the per-block sum can exceed the total but never undershoot.
        assert sum(
            record[1] for record in profiler.blocks.values()
        ) >= result.steps

    def test_report_totals_come_from_the_result(self, protected_module):
        profiler = ExecutionProfiler()
        result = CPU(
            protected_module, interpreter="block", profiler=profiler
        ).run()
        report = profiler.report(result, top=5)
        assert report["totals"]["steps"] == result.steps
        assert report["totals"]["interpreter"] == "block"
        assert len(report["opcodes"]) <= 5
        lines = format_report(report)
        assert any(line.startswith("run: status=ok") for line in lines)
        assert any("hot functions" in line for line in lines)
        assert any("hot blocks" in line for line in lines)


def test_trace_profile_report_matches_an_eager_compile():
    """A profiled trace-tier run compiles everything up front, so its
    report (hot regions by header included) is the one an explicitly
    compiled module gives, as before the trace tier compiled lazily."""
    from repro.hardware import trace_compile
    from repro.workloads import generate_program, get_profile

    program = generate_program(get_profile("505.mcf_r"))

    def profiled_report(eager: bool):
        module = protect(program.compile(), scheme="pythia").module
        if eager:
            trace_compile(module)
        profiler = ExecutionProfiler()
        cpu = CPU(module, interpreter="trace", profiler=profiler)
        assert not cpu.tier_program.pending
        return profiler.report(cpu.run(inputs=list(program.inputs)))

    report = profiled_report(eager=False)
    assert report == profiled_report(eager=True)
    assert report["blocks"] and report["totals"]["interpreter"] == "trace"
    assert "hot regions (trace tier, by header, by cycles):" in format_report(
        report
    )


#: Three opcodes run 3 times each (zext, call, ret), and the tiers add
#: them to the histogram in different orders.
TIE_SOURCE = """
int twice(int x) { return x + x; }
int main() {
    int acc = 1;
    for (int i = 0; i < 2; i = i + 1) { acc = twice(acc) % 5; }
    printf("%d\\n", acc);
    return acc;
}
"""


@pytest.mark.parametrize("scheme", ["vanilla", "pythia"])
def test_report_opcodes_and_totals_do_not_depend_on_the_tier(scheme):
    module = protect(compile_source(TIE_SOURCE, name="tie"), scheme=scheme).module
    top = 5
    reports = {}
    for interpreter in ("decoded", "block", "trace"):
        profiler = ExecutionProfiler()
        result = CPU(module, interpreter=interpreter, profiler=profiler).run()
        assert result.ok
        full = sorted(result.opcode_counts.values(), reverse=True)
        # The cut at ``top`` falls inside a run of equal counts.
        assert full[top - 1] == full[top]
        report = profiler.report(result, top=top)
        assert report["totals"].pop("interpreter") == interpreter
        reports[interpreter] = (report["opcodes"], report["totals"])
    assert reports["block"] == reports["decoded"]
    assert reports["trace"] == reports["decoded"]
    assert [row["opcode"] for row in reports["decoded"][0]][-1] == "call"
