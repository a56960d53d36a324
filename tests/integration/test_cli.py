"""Tests for the command-line interface."""

import io
import os
import sys

import pytest

from repro.cli import build_parser, main

VICTIM = """
int main() {
    char buf[16];
    char role[16];
    strcpy(role, "user");
    gets(buf);
    if (strncmp(role, "root", 4) == 0) { return 1; }
    printf("hi %s\\n", buf);
    return 0;
}
"""


@pytest.fixture
def victim_path(tmp_path):
    path = tmp_path / "victim.c"
    path.write_text(VICTIM)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompile:
    def test_emits_ir(self, victim_path, capsys):
        code, out, _ = run_cli(["compile", victim_path], capsys)
        assert code == 0
        assert "define i64 @main()" in out
        assert "@gets" in out

    def test_mem2reg_flag(self, tmp_path, capsys):
        path = tmp_path / "scalars.c"
        path.write_text("int main() { int x = 1; int y = x + 2; return y; }")
        _, raw, _ = run_cli(["compile", str(path)], capsys)
        _, ssa, _ = run_cli(["compile", str(path), "--mem2reg"], capsys)
        assert ssa.count("alloca") < raw.count("alloca")

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("int main() { return 0; }"))
        code, out, _ = run_cli(["compile", "-"], capsys)
        assert code == 0 and "ret i64 0" in out


class TestRun:
    def test_benign_run(self, victim_path, capsys):
        code, out, err = run_cli(
            ["run", victim_path, "--scheme", "pythia", "--input", "world"], capsys
        )
        assert code == 0
        assert "hi world" in out
        assert "status=ok" in err

    @pytest.mark.parametrize("scheme", ["vanilla", "cpa", "pythia", "dfi"])
    def test_all_schemes(self, victim_path, capsys, scheme):
        code, out, err = run_cli(
            ["run", victim_path, "--scheme", scheme, "--input", "x"], capsys
        )
        assert code == 0, err

    def test_fields_flag(self, victim_path, capsys):
        code, _, err = run_cli(
            ["run", victim_path, "--fields", "--input", "x"], capsys
        )
        assert code == 0


class TestAnalyze:
    def test_summary(self, victim_path, capsys):
        code, out, _ = run_cli(["analyze", victim_path], capsys)
        assert code == 0
        assert "refined (Pythia) set" in out
        assert "secured:" in out

    def test_verbose_lists_variables(self, victim_path, capsys):
        _, out, _ = run_cli(["analyze", victim_path, "--verbose"], capsys)
        assert "vulnerable:" in out


class TestAttackAndBench:
    def test_attack_scenario(self, capsys):
        code, out, _ = run_cli(["attack", "privilege_escalation"], capsys)
        assert code == 0
        assert "vanilla  -> success" in out
        assert "pythia   -> detected" in out

    def test_attack_unknown(self, capsys):
        code, out, _ = run_cli(["attack", "nope"], capsys)
        assert code == 1

    def test_scenarios_listing(self, capsys):
        code, out, _ = run_cli(["scenarios"], capsys)
        assert code == 0
        assert "privilege_escalation" in out
        assert "heap_overflow" in out

    def test_bench(self, capsys):
        code, out, _ = run_cli(["bench", "519.lbm_r"], capsys)
        assert code == 0
        assert "overhead=" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExitCodes:
    """Failures exit with one-line diagnostics and layered codes."""

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_cli(["run", "/no/such/file.c"], capsys)
        assert code == 3
        assert err.startswith("repro: error:")
        assert "Traceback" not in err

    def test_failing_benign_bench_run_exits_2(self, monkeypatch, capsys):
        from repro.hardware.cpu import CPU

        real_run = CPU.run

        def trapped(cpu, *args, **kwargs):
            result = real_run(cpu, *args, **kwargs)
            result.status = "canary_trap"
            return result

        monkeypatch.setattr(CPU, "run", trapped)
        code, out, err = run_cli(["bench", "519.lbm_r"], capsys)
        assert code == 2
        assert "FAILED" not in out
        assert err.startswith("repro: error:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_parse_error_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text("int main( {")
        code, _, err = run_cli(["compile", str(path)], capsys)
        assert code == 4
        assert "repro: error:" in err
        assert "expected a type" in err

    def test_source_ending_in_a_char_literal_exits_4(self, tmp_path, capsys):
        path = tmp_path / "cut.c"
        path.write_text("int main() { char c = '")
        code, _, err = run_cli(["run", str(path)], capsys)
        assert code == 4
        assert err == "repro: error: unterminated char literal at 1:23\n"

    @pytest.mark.parametrize("source", ["int f() { return 1; }", ""])
    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_program_without_main_exits_4(self, tmp_path, capsys, command, source):
        path = tmp_path / "nomain.c"
        path.write_text(source)
        code, out, err = run_cli([command, str(path)], capsys)
        assert code == 4
        assert out == ""
        assert err == "repro: error: program defines no function 'main'\n"

    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_non_utf8_input_delivers_the_argv_bytes(self, tmp_path, capsys, command):
        path = tmp_path / "echo.c"
        path.write_text(
            "int main() { char buf[16]; gets(buf);"
            ' printf("%d %d\\n", buf[0] & 255, buf[1] & 255); return 0; }'
        )
        # The argv bytes 0xff 0xc3, as Python decodes them for sys.argv.
        item = os.fsdecode(b"\xff\xc3")
        code, out, _ = run_cli([command, str(path), "--input", item], capsys)
        assert code == 0
        assert out.startswith("255 195\n")

    @pytest.mark.parametrize("source", ["int f() { return 1; }", ""])
    def test_program_without_main_still_compiles(self, tmp_path, capsys, source):
        path = tmp_path / "nomain.c"
        path.write_text(source)
        code, out, err = run_cli(["compile", str(path)], capsys)
        assert code == 0
        assert err == ""

    def test_sema_error_exits_4(self, tmp_path, capsys):
        path = tmp_path / "sema.c"
        path.write_text("int main() { return bogus; }")
        code, _, err = run_cli(["compile", str(path)], capsys)
        assert code == 4
        assert "undeclared identifier" in err

    def test_missing_fault_plan_exits_3(self, capsys):
        code, _, err = run_cli(["chaos", "--plan", "/no/such/plan.json"], capsys)
        assert code == 3
        assert "repro: error:" in err

    def test_unknown_env_interpreter_exits_2(self, victim_path, capsys, monkeypatch):
        # --interpreter has argparse choices, but REPRO_INTERPRETER
        # bypasses them; the CPU's UnknownInterpreterError must surface
        # as a one-line diagnostic with the usage exit code, not a
        # traceback.
        monkeypatch.setenv("REPRO_INTERPRETER", "bogus")
        code, _, err = run_cli(["run", victim_path, "--input", "x"], capsys)
        assert code == 2
        assert err.startswith("repro: error:")
        assert "bogus" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ("run", "bench"))
    def test_profile_in_is_an_unknown_argument(self, victim_path, command, capsys):
        target = victim_path if command == "run" else "505.mcf_r"
        with pytest.raises(SystemExit) as exc:
            main([command, target, "--profile-in", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --profile-in x" in capsys.readouterr().err


class TestUsageErrors:
    """A count below its floor, or both endpoints, is a usage error: exit
    2 with argparse's one-line error, before anything forks or listens."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--budget", "0"],
            ["campaign", "--budget", "-3"],
            ["suite", "--jobs", "0"],
            ["suite", "--retries", "-1"],
            ["serve", "--workers", "0"],
            ["serve", "--max-modules", "0"],
            ["loadgen", "--requests", "0"],
            ["loadgen", "--concurrency", "0"],
            ["serve", "--port", "0"],
            ["loadgen", "--port", "0"],
            ["top", "--port", "0"],
        ],
        ids=" ".join,
    )
    def test_exits_2_before_any_work(self, argv, tmp_path, capsys):
        socket = tmp_path / "serve.sock"
        if argv[0] in ("serve", "loadgen", "top"):
            argv = argv + ["--socket", str(socket)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        last = err.strip().splitlines()[-1]
        assert last.startswith(f"repro {argv[0]}: error: argument "), err
        assert "Traceback" not in err
        assert not socket.exists()


class TestChaos:
    def test_smoke_plan_passes_and_writes_manifest(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "chaos.json"
        code, out, _ = run_cli(
            ["chaos", "--seed", "2024", "--manifest", str(manifest)], capsys
        )
        assert code == 0
        assert "OK: every injected fault stayed within its defense contract" in out
        data = json.loads(manifest.read_text())
        assert data["ok"] is True
        assert data["violations"] == []
        assert len(data["cases"]) == len(data["plan"])

    def test_custom_plan_file(self, tmp_path, capsys):
        import json

        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {"seed": 11, "specs": [{"kind": "pac.bits", "trigger": 1}]}
            )
        )
        code, out, _ = run_cli(["chaos", "--plan", str(plan)], capsys)
        assert code == 0
        assert "pac.bits" in out
        assert "contained" in out

    def test_untriggered_strict_fault_fails(self, tmp_path, capsys):
        import json

        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "seed": 11,
                    "specs": [{"kind": "dfi.shadow", "trigger": 999999999}],
                }
            )
        )
        code, out, _ = run_cli(["chaos", "--plan", str(plan)], capsys)
        assert code == 2
        assert "FAIL" in out
        assert "not-triggered" in out

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '{"specs": "not-a-list"}',
            '{"seed": 1, "specs": [{"kind": "bogus.kind", "trigger": 1}]}',
            '{"seed": 1, "specs": [{"trigger": 1}]}',
        ],
        ids=["bad-json", "wrong-schema", "unknown-kind", "missing-kind"],
    )
    def test_malformed_plan_exits_3_with_one_line(self, tmp_path, capsys, text):
        plan = tmp_path / "plan.json"
        plan.write_text(text)
        code, _, err = run_cli(["chaos", "--plan", str(plan)], capsys)
        assert code == 3
        assert err.startswith("repro: error: invalid fault plan")
        assert str(plan) in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestCampaign:
    def test_campaign_writes_matrix_and_manifest(self, tmp_path, capsys):
        import json

        matrix = tmp_path / "matrix.json"
        manifest = tmp_path / "campaign.json"
        code, out, _ = run_cli(
            [
                "campaign", "--seed", "7", "--budget", "3",
                "--families", "pac_reuse,heap_cross,call_bend",
                "--no-reduce",
                "--matrix-out", str(matrix), "--manifest", str(manifest),
            ],
            capsys,
        )
        assert code == 0
        assert "OK: every vanilla bypass" in out
        data = json.loads(matrix.read_text())
        assert data["schema"] == "repro-campaign-matrix-v1"
        assert data["families"] == ["call_bend", "heap_cross", "pac_reuse"]
        full = json.loads(manifest.read_text())
        assert full["schema"] == "repro-campaign-v1"
        assert full["ok"] is True
        assert full["violations"] == []

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run_cli(
            ["campaign", "--budget", "1", "--families", "no_such_family"],
            capsys,
        )
        assert code == 2
        assert "no_such_family" in err


class TestObservabilityFlags:
    def test_run_writes_valid_trace_and_metrics(self, victim_path, tmp_path, capsys):
        import json

        from repro.observability import TRACE_SCHEMA, validate_snapshot

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code, _, err = run_cli(
            [
                "run", victim_path, "--input", "x",
                "--trace-out", str(trace), "--metrics-out", str(metrics),
            ],
            capsys,
        )
        assert code == 0
        assert f"trace written to {trace}" in err
        assert f"metrics written to {metrics}" in err

        loaded = json.loads(trace.read_text())
        assert loaded["schema"] == TRACE_SCHEMA
        names = {event["name"] for event in loaded["traceEvents"]}
        assert "verify" in names and "mem2reg" in names  # compile phases
        assert "execute:pythia" in names

        snapshot = json.loads(metrics.read_text())
        assert validate_snapshot(snapshot) is None
        assert snapshot["counters"]["exec.runs"] == 1
        assert any(
            name.startswith("compile.phase.") for name in snapshot["histograms"]
        )

    def test_metrics_without_trace(self, victim_path, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code, _, err = run_cli(
            ["run", victim_path, "--input", "x", "--metrics-out", str(metrics)],
            capsys,
        )
        assert code == 0
        assert metrics.exists()
        assert "trace written" not in err

    def test_metrics_reset_between_invocations(self, victim_path, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        argv = ["run", victim_path, "--input", "x", "--metrics-out", str(metrics)]
        run_cli(argv, capsys)
        run_cli(argv, capsys)
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["exec.runs"] == 1  # not 2: no carry-over

    def test_timings_stderr_matches_metrics_exactly(
        self, victim_path, tmp_path, capsys
    ):
        """Satellite: --timings is a *view* of the span data, so the
        stderr table must be reproducible byte-for-byte from the
        exported metrics snapshot."""
        import json

        metrics = tmp_path / "metrics.json"
        code, _, err = run_cli(
            [
                "run", victim_path, "--input", "x", "--timings",
                "--metrics-out", str(metrics),
            ],
            capsys,
        )
        assert code == 0
        timing_lines = [
            line for line in err.splitlines() if line.startswith("[timing]")
        ]
        assert timing_lines[-1].startswith("[timing] total")

        snapshot = json.loads(metrics.read_text())
        prefix = "compile.phase."
        phases = {
            name[len(prefix):]: stats["sum"]
            for name, stats in snapshot["histograms"].items()
            if name.startswith(prefix)
        }
        expected = [
            f"[timing] {phase:24s} {seconds * 1e3:8.2f}ms"
            for phase, seconds in sorted(phases.items(), key=lambda item: -item[1])
        ]
        expected.append(f"[timing] {'total':24s} {sum(phases.values()) * 1e3:8.2f}ms")
        assert timing_lines == expected

    def test_timings_report_functions_tiered_up_mid_run(self, tmp_path, capsys):
        # step()'s own steps pass the default tier-up threshold within
        # its first calls; main runs once and stays decoded.
        source = tmp_path / "tierup.c"
        source.write_text(
            "int step(int x) {\n"
            "  int total = 0;\n"
            "  for (int i = 0; i < 8; i = i + 1) { total = total + x * i; }\n"
            "  return total % 1009;\n"
            "}\n"
            "int main() {\n"
            "  int acc = 0;\n"
            "  for (int i = 0; i < 400; i = i + 1) { acc = acc + step(i); }\n"
            "  printf(\"acc=%d\\n\", acc % 9973);\n"
            "  return 0;\n"
            "}\n"
        )
        outputs = {}
        for tier in ("trace", "decoded"):
            code, out, err = run_cli(
                ["run", str(source), "--interpreter", tier, "--timings"], capsys
            )
            assert code == 0
            status = [line for line in err.splitlines() if "status=" in line]
            compiled = [
                line.split()[-1]
                for line in err.splitlines()
                if line.startswith("[exec] compiled functions")
            ]
            outputs[tier] = (out, status, compiled)
        assert outputs["trace"][2] == ["1/2"]
        assert outputs["decoded"][2] == []
        assert outputs["trace"][:2] == outputs["decoded"][:2]

    def test_suite_merges_worker_telemetry(self, tmp_path, capsys):
        import json

        from repro.observability import validate_snapshot

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code, _, _ = run_cli(
            [
                "suite", "505.mcf_r", "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--trace-out", str(trace), "--metrics-out", str(metrics),
            ],
            capsys,
        )
        assert code == 0
        events = json.loads(trace.read_text())["traceEvents"]
        names = {event["name"] for event in events}
        assert "task:505.mcf_r" in names  # per-task span
        assert "verify" in names  # compile phases from the worker
        assert any(name.startswith("execute:") for name in names)
        assert any(name.startswith("cache.") for name in names)  # cache events

        snapshot = json.loads(metrics.read_text())
        assert validate_snapshot(snapshot) is None
        assert snapshot["counters"]["suite.tasks_completed"] == 1
        assert snapshot["counters"]["cache.misses"] > 0

    def test_unwritable_trace_out_exits_3(self, victim_path, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "run", victim_path, "--input", "x",
                "--trace-out", str(tmp_path / "no" / "such" / "dir" / "t.json"),
            ],
            capsys,
        )
        assert code == 3
        assert "repro: error:" in err


class TestProfileCommand:
    def test_prints_hot_spot_tables(self, victim_path, capsys):
        code, out, _ = run_cli(["profile", victim_path, "--input", "x"], capsys)
        assert code == 0
        assert "run: status=ok interpreter=block" in out
        assert "hot functions (by self cycles):" in out
        assert "hot blocks (block tier, by cycles):" in out
        assert "opcode histogram (top):" in out
        assert "main" in out

    def test_top_caps_table_rows(self, victim_path, capsys):
        _, full, _ = run_cli(["profile", victim_path, "--input", "x"], capsys)
        _, capped, _ = run_cli(
            ["profile", victim_path, "--input", "x", "--top", "1"], capsys
        )
        def opcode_rows(text):
            lines = text.splitlines()
            start = lines.index("opcode histogram (top):")
            return [l for l in lines[start + 1:] if l.startswith("  ")]
        assert len(opcode_rows(capped)) == 1
        assert len(opcode_rows(full)) > 1

    def test_non_block_tier_profiles_functions_only(self, victim_path, capsys):
        code, out, _ = run_cli(
            ["profile", victim_path, "--input", "x", "--interpreter", "decoded"],
            capsys,
        )
        assert code == 0
        assert "hot functions (by self cycles):" in out
        assert "hot blocks" not in out

    @pytest.mark.parametrize("interpreter", ("block", "decoded"))
    def test_run_profile_out_writes_the_report(
        self, victim_path, tmp_path, interpreter, capsys
    ):
        import json

        prof = tmp_path / "prof.json"
        code, _, err = run_cli(
            ["run", victim_path, "--input", "x",
             "--interpreter", interpreter, "--profile-out", str(prof)],
            capsys,
        )
        assert code == 0
        assert f"profile written to {prof}" in err
        counts = json.loads(prof.read_text())["block_counts"]
        # Only the block tier attributes per block.
        assert bool(counts) == (interpreter == "block"), counts


class TestTraceInterpreter:
    def test_trace_interpreter_without_profile(self, victim_path, capsys):
        code, out, err = run_cli(
            ["run", victim_path, "--input", "x", "--interpreter", "trace"],
            capsys,
        )
        assert code == 0
        assert "hi x" in out
        assert "status=ok" in err
