"""Tests for profiles, the program generator, and the nginx workload."""

import pytest

from repro.core import protect_all
from repro.hardware import CPU
from repro.ir import verify_module
from repro.workloads import (
    ALL_PROFILES,
    DURATION_BATCHES,
    NGINX_PROFILE,
    SPEC_PROFILES,
    generate_program,
    get_profile,
    nginx_program,
    profile_names,
    run_nginx,
    transfer_rate_overhead,
)


class TestProfiles:
    def test_sixteen_benchmarks(self):
        assert len(ALL_PROFILES) == 16
        assert len(SPEC_PROFILES) == 15
        assert "nginx" in ALL_PROFILES

    def test_paper_benchmarks_present(self):
        for name in ("502.gcc_r", "519.lbm_r", "510.parest_r", "525.x264_r"):
            assert name in SPEC_PROFILES

    def test_get_profile(self):
        assert get_profile("nginx") is NGINX_PROFILE
        with pytest.raises(KeyError):
            get_profile("600.nope")

    def test_profile_names_order(self):
        assert profile_names()[-1] == "nginx"

    def test_languages(self):
        assert get_profile("510.parest_r").language == "c++"
        assert get_profile("505.mcf_r").language != "c++"

    def test_fully_protectable_profiles_have_no_opaque_helpers(self):
        for name in ("519.lbm_r", "505.mcf_r", "525.x264_r"):
            assert get_profile(name).opaque_functions == 0

    def test_nginx_ic_mix_is_copy_dominated(self):
        weights = NGINX_PROFILE.ic_weights
        assert weights[1] > 20 * weights[0]  # movecopy >> print


class TestGenerator:
    def test_deterministic(self):
        a = generate_program(get_profile("502.gcc_r"))
        b = generate_program(get_profile("502.gcc_r"))
        assert a.source == b.source
        assert a.inputs == b.inputs

    def test_different_seeds_differ(self):
        a = generate_program(get_profile("502.gcc_r"))
        b = generate_program(get_profile("500.perlbench_r"))
        assert a.source != b.source

    def test_compiles_and_verifies(self):
        module = generate_program(get_profile("505.mcf_r")).compile()
        verify_module(module)

    def test_function_mix_matches_profile(self):
        profile = get_profile("502.gcc_r")
        module = generate_program(profile).compile()
        names = set(module.functions)
        assert f"hot_compute{profile.hot_functions - 1}" in names
        assert f"tainted_compute{profile.tainted_functions - 1}" in names
        assert f"handle_input{profile.ic_handlers - 1}" in names
        assert f"pointer_walk{profile.pointer_functions - 1}" in names

    def test_runs_clean_under_every_scheme(self):
        program = generate_program(get_profile("557.xz_r"))
        for scheme, result in protect_all(program.compile()).items():
            outcome = CPU(result.module).run(inputs=list(program.inputs))
            assert outcome.ok, (scheme, outcome.status, outcome.trap)

    def test_branch_count_scales_with_profile(self):
        small = generate_program(get_profile("519.lbm_r")).compile()
        large = generate_program(get_profile("502.gcc_r")).compile()
        count = lambda m: sum(
            len(f.conditional_branches()) for f in m.defined_functions()
        )
        assert count(large) > count(small)

    def test_ic_distribution_follows_weights(self):
        from repro.analysis import InputChannelAnalysis

        module = generate_program(NGINX_PROFILE).compile()
        dist = InputChannelAnalysis(module).distribution()
        assert dist["movecopy"] > dist["print"]

    def test_inputs_cover_reads(self):
        program = generate_program(get_profile("510.parest_r"))
        outcome = CPU(program.compile()).run(inputs=list(program.inputs))
        assert outcome.ok


class TestNginxWorkload:
    def test_durations(self):
        assert set(DURATION_BATCHES) == {"3s", "30s", "300s"}
        assert DURATION_BATCHES["300s"] > DURATION_BATCHES["3s"]

    def test_program_scales_with_duration(self):
        short = nginx_program("3s")
        long = nginx_program("30s")
        assert short.profile.outer_iterations < long.profile.outer_iterations

    def test_run_nginx_produces_rates(self):
        runs = run_nginx(durations=("3s",), schemes=("vanilla", "pythia"))
        assert len(runs) == 2
        for run in runs:
            assert run.cycles > 0
            assert run.transfer_rate > 0

    def test_failed_batch_names_duration_and_scheme(self, monkeypatch):
        real_run = CPU.run

        def trapped(cpu, *args, **kwargs):
            result = real_run(cpu, *args, **kwargs)
            result.status = "canary_trap"
            return result

        monkeypatch.setattr(CPU, "run", trapped)
        with pytest.raises(RuntimeError, match="^nginx/3s/vanilla: "):
            run_nginx(durations=("3s",), schemes=("vanilla",))

    def test_transfer_rate_overhead_positive(self):
        runs = run_nginx(durations=("3s",), schemes=("vanilla", "pythia", "cpa"))
        pythia = transfer_rate_overhead(runs, "pythia")
        cpa = transfer_rate_overhead(runs, "cpa")
        assert 0 < pythia < cpa < 1
