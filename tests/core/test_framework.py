"""Tests for the end-to-end protection framework."""

import argparse

import pytest

from repro.core import (
    DefenseConfig,
    SCHEMES,
    clone_module,
    protect,
    protect_all,
)
from repro.cli import build_parser
from repro.core.config import BASELINE, DEFAULT_SCHEME
from repro.core.framework import SCHEME_PASSES
from repro.frontend import compile_source
from repro.hardware import CPU
from repro.ir import print_module, verify_module
from tests.conftest import LISTING1_SOURCE


class TestCloneModule:
    def test_clone_is_structurally_identical(self, listing1_module):
        clone = clone_module(listing1_module)
        assert print_module(clone) == print_module(listing1_module)

    def test_clone_is_independent(self, listing1_module):
        clone = clone_module(listing1_module)
        protect(clone, scheme="cpa", clone=False)
        # original untouched
        from repro.ir import is_pa_instruction

        assert not any(
            is_pa_instruction(i)
            for f in listing1_module.defined_functions()
            for i in f.instructions()
        )


class TestProtect:
    def test_default_does_not_mutate_input(self, listing1_module):
        before = print_module(listing1_module)
        protect(listing1_module, scheme="pythia")
        assert print_module(listing1_module) == before

    def test_vanilla_only_runs_mem2reg(self, listing1_module):
        result = protect(listing1_module, scheme="vanilla")
        assert result.pa_static == 0
        assert result.report is None
        assert result.scheme == "vanilla"

    def test_all_schemes_verify(self, listing1_module):
        for scheme, result in protect_all(listing1_module).items():
            verify_module(result.module)

    def test_config_and_scheme_are_exclusive(self, listing1_module):
        with pytest.raises(ValueError):
            protect(listing1_module, config=DefenseConfig(scheme="cpa"), scheme="dfi")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            DefenseConfig(scheme="magic")

    def test_ablation_stack_only(self):
        source = """
        int main() {
            char *h;
            char s[8];
            h = malloc(8);
            gets(s);
            fgets(h, 8, NULL);
            if (s[0] == 'a') { return 1; }
            return 0;
        }
        """
        module = compile_source(source)
        stack_only = protect(module, config=DefenseConfig(scheme="pythia", protect_heap=False))
        assert "pythia-stack" in stack_only.pass_stats
        assert "pythia-heap" not in stack_only.pass_stats
        heap_only = protect(module, config=DefenseConfig(scheme="pythia", protect_stack=False))
        assert "pythia-heap" in heap_only.pass_stats
        assert "pythia-stack" not in heap_only.pass_stats

    def test_mem2reg_can_be_disabled(self, listing1_module):
        result = protect(
            listing1_module, config=DefenseConfig(scheme="vanilla", run_mem2reg=False)
        )
        # the parameter spill slots survive
        access = result.module.get_function("access_check")
        assert any(a.name.endswith(".addr") for a in access.allocas())


class TestProtectionResult:
    def test_binary_bytes_proportional_to_instructions(self, listing1_module):
        result = protect(listing1_module, scheme="cpa")
        assert result.binary_bytes == result.instruction_count * 4

    def test_pa_static_counts_only_pa(self, listing1_module):
        vanilla = protect(listing1_module, scheme="vanilla")
        pythia = protect(listing1_module, scheme="pythia")
        assert vanilla.pa_static == 0
        assert pythia.pa_static > 0

    def test_canary_count(self, listing1_module):
        pythia = protect(listing1_module, scheme="pythia")
        assert pythia.canary_count == pythia.pass_stats["pythia-stack"]["canaries"]

    def test_instrumented_modules_still_run(self, listing1_module):
        for scheme, result in protect_all(listing1_module).items():
            outcome = CPU(result.module).run(inputs=[b"hello"])
            assert outcome.ok, (scheme, outcome.trap)


def _cli_scheme_flag(command):
    parser = build_parser()
    commands = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flag = next(
        action
        for action in commands.choices[command]._actions
        if "--scheme" in action.option_strings
    )
    return tuple(flag.choices), flag.default


def _config_schemes():
    accepted = []
    for scheme in SCHEMES + ("sgx", "", "Pythia"):
        try:
            DefenseConfig(scheme=scheme)
        except ValueError:
            continue
        accepted.append(scheme)
    return tuple(accepted), DefenseConfig().scheme


#: Every surface that names the schemes: (schemes it accepts, its default).
SCHEME_SURFACES = {
    "pass table": lambda: (
        (BASELINE, *SCHEME_PASSES),
        protect(compile_source("int main() { return 0; }")).scheme,
    ),
    "DefenseConfig": _config_schemes,
    "run --scheme": lambda: _cli_scheme_flag("run"),
    "profile --scheme": lambda: _cli_scheme_flag("profile"),
}


@pytest.mark.parametrize("surface", sorted(SCHEME_SURFACES))
def test_every_surface_reads_the_scheme_table(surface):
    schemes, default = SCHEME_SURFACES[surface]()
    assert sorted(schemes) == sorted(SCHEMES)
    assert len(schemes) == len(set(schemes))
    assert default == DEFAULT_SCHEME
