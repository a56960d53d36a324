"""The CLI in a fresh interpreter per command.

The other CLI tests call ``main()`` in-process, where the test process
has already imported the whole package, so a subcommand that forgot one
of its own imports would still pass there.  Here every command starts
from ``python -m repro`` with nothing preloaded.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

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

#: Overflows ``buf`` into ``role``: pythia detects it.
OVERFLOW = "A" * 16 + "root"


@pytest.fixture
def victim_path(tmp_path):
    path = tmp_path / "victim.c"
    path.write_text(VICTIM)
    return str(path)


def repro_cli(*argv):
    """Run ``python -m repro *argv`` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_INTERPRETER", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("tier", ["reference", "decoded", "block", "trace"])
def test_run_matches_in_process(victim_path, tmp_path, capsys, monkeypatch, tier):
    monkeypatch.delenv("REPRO_INTERPRETER", raising=False)
    argv = ["run", victim_path, "--interpreter", tier, "--input", "world"]
    if tier == "trace":
        # A profiler makes the trace tier compile every function up
        # front, so the generated code runs (and imports) here too.
        argv += ["--profile-out", str(tmp_path / "profile.json")]
    code = main(argv)
    captured = capsys.readouterr()
    fresh = repro_cli(*argv)
    assert code == 0
    assert fresh.returncode == code
    assert fresh.stdout == captured.out
    assert fresh.stderr == captured.err


def test_detected_run_records_its_trap(victim_path, tmp_path):
    events = str(tmp_path / "events.jsonl")
    completed = repro_cli(
        "run", victim_path, "--input", OVERFLOW, "--events-out", events
    )
    assert completed.returncode == 2, completed.stderr
    assert "status=" in completed.stderr
    with open(events, encoding="utf-8") as handle:
        (trap,) = [json.loads(line) for line in handle]
    assert trap["type"] == "trap" and len(trap["module_digest"]) == 64

    audited = repro_cli("audit", events)
    assert audited.returncode == 0, audited.stderr
    assert "pythia" in audited.stdout


def test_compile(victim_path):
    completed = repro_cli("compile", victim_path, "--mem2reg")
    assert completed.returncode == 0, completed.stderr
    assert "define i64 @main()" in completed.stdout


def test_analyze(victim_path):
    completed = repro_cli("analyze", victim_path)
    assert completed.returncode == 0, completed.stderr
    assert "refined (Pythia) set" in completed.stdout


def test_attack():
    completed = repro_cli("attack", "privilege_escalation")
    assert completed.returncode == 0, completed.stderr
    assert "pythia   -> detected" in completed.stdout


def test_scenarios():
    completed = repro_cli("scenarios")
    assert completed.returncode == 0, completed.stderr
    assert "[campaign family" in completed.stdout


def test_profile(victim_path):
    completed = repro_cli("profile", victim_path, "--input", "world")
    assert completed.returncode == 0, completed.stderr
    assert "hi world" in completed.stdout


def test_failures_keep_their_exit_codes(tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("int main( {")
    invalid = repro_cli("compile", str(bad))
    assert invalid.returncode == 4
    assert invalid.stderr.startswith("repro: error:")
    missing = repro_cli("run", str(tmp_path / "missing.c"))
    assert missing.returncode == 3
    assert missing.stderr.startswith("repro: error:")
