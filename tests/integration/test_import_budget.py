"""Import layering: what a fresh process loads, and when.

Each check runs in a fresh interpreter, because the test process itself
has long since imported the whole package.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules (and module prefixes, ending in ".") ``import repro.cli`` must
#: not load: none of them is needed to parse arguments or map failures.
CLI_FORBIDDEN = (
    "repro.hardware.blockc",
    "repro.hardware.tracec",
    "repro.attacks.",
    "repro.perf.runner",
    "repro.perf.workers",
    "repro.serve.",
    "repro.robustness.",
    "repro.metrics.",
    "multiprocessing",
    "asyncio",
)

#: Every package under ``src/repro``.
PACKAGES = sorted(
    entry.name
    for entry in os.scandir(os.path.dirname(repro.__file__))
    if os.path.isfile(os.path.join(entry.path, "__init__.py"))
)

#: Submodules a package import may load besides ``repro._lazy``:
#: observability builds its process-global state from these (``metrics``
#: imports ``aggregate``), and ``robustness.triage`` is an export sharing
#: its submodule's name.
PACKAGE_EAGER = {
    "observability": ("trace", "metrics", "events", "aggregate"),
    "robustness": ("triage",),
}

TINY_SOURCE = "int main() { puts(\"hi\"); return 0; }"


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_INTERPRETER", None)
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def loaded(modules, forbidden):
    return sorted(
        name
        for name in modules
        for entry in forbidden
        if name == entry or (entry.endswith(".") and name.startswith(entry))
    )


def test_import_cli_stays_within_budget():
    result = run_fresh(
        """
        import json, sys
        import repro.cli
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert loaded(result, CLI_FORBIDDEN) == []


def test_import_repro_loads_no_subpackage():
    result = run_fresh(
        """
        import json, sys
        import repro
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert [name for name in result if name.startswith("repro")] == [
        "repro",
        "repro._lazy",
    ]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_import_loads_no_submodule(package):
    result = run_fresh(
        f"""
        import json, sys
        import repro.{package}
        print(json.dumps(sorted(sys.modules)))
        """
    )
    allowed = {"repro._lazy", f"repro.{package}"}
    allowed.update(f"repro.{package}.{name}" for name in PACKAGE_EAGER.get(package, ()))
    assert [n for n in result if n.startswith("repro.") and n not in allowed] == []


def test_decoded_tier_never_loads_the_tier_compilers():
    result = run_fresh(
        f"""
        import json, sys
        from repro.frontend.driver import compile_source
        from repro.hardware.cpu import CPU
        result = CPU(compile_source({TINY_SOURCE!r}), interpreter="decoded").run()
        assert result.ok
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert loaded(result, ("repro.hardware.blockc", "repro.hardware.tracec")) == []


def test_selecting_a_tier_loads_its_compiler():
    # Block is the trace compiler's no-region policy, so both compiled
    # tiers load the same compiler modules: tracec, which loads blockc.
    compilers = ("repro.hardware.blockc", "repro.hardware.tracec")
    for interpreter in ("block", "trace"):
        result = run_fresh(
            f"""
            import json, sys
            from repro.frontend.driver import compile_source
            from repro.hardware.cpu import CPU
            CPU(compile_source({TINY_SOURCE!r}), interpreter={interpreter!r}).run()
            print(json.dumps(sorted(sys.modules)))
            """
        )
        assert loaded(result, compilers) == list(compilers), interpreter


def test_suite_runner_preloads_before_forking():
    # The worker only inspects its own sys.modules, which a forked child
    # inherits: a module is listed iff the parent had it at fork time.
    result = run_fresh(
        """
        import json, sys
        from repro.perf.runner import run_tasks

        WANTED = ("repro.hardware.blockc", "repro.hardware.tracec", "repro.perf.cache")
        before = [name for name in WANTED if name in sys.modules]

        def worker(payload):
            return [name for name in WANTED if name in sys.modules]

        results, failures = run_tasks([("probe", None)], worker, jobs=1, timeout=60)
        assert not failures
        print(json.dumps({"before": before, "child": results["probe"]}))
        """
    )
    assert result["before"] == []
    assert result["child"] == [
        "repro.hardware.blockc",
        "repro.hardware.tracec",
        "repro.perf.cache",
    ]


def test_serve_pool_preloads_before_forking():
    result = run_fresh(
        """
        import json, sys
        from repro.perf import workers
        from repro.serve.pool import WorkerPool

        WANTED = (
            "repro.attacks.scenarios",
            "repro.hardware.blockc",
            "repro.hardware.tracec",
            "repro.perf.cache",
        )

        class RecordingContext:
            # Records what the parent had loaded as each worker is created.
            def __init__(self, real):
                self.real = real
                self.seen = []

            def Pipe(self, *args, **kwargs):
                return self.real.Pipe(*args, **kwargs)

            def Process(self, *args, **kwargs):
                self.seen.append([name for name in WANTED if name in sys.modules])
                return self.real.Process(*args, **kwargs)

        pool = WorkerPool(workers=1, timeout=30)
        workers._ctx = context = RecordingContext(workers._ctx)
        before = [name for name in WANTED if name in sys.modules]
        pool.start()
        pool.stop()
        print(json.dumps({"before": before, "at_fork": context.seen}))
        """
    )
    assert "repro.hardware.blockc" not in result["before"]
    assert "repro.hardware.tracec" not in result["before"]
    assert "repro.perf.cache" not in result["before"]
    assert result["at_fork"] == [
        [
            "repro.attacks.scenarios",
            "repro.hardware.blockc",
            "repro.hardware.tracec",
            "repro.perf.cache",
        ]
    ]


def test_detected_run_does_not_load_serve(tmp_path):
    path = tmp_path / "victim.c"
    path.write_text(
        "int main() { char buf[8]; char role[8]; strcpy(role, \"user\");"
        " gets(buf); if (strncmp(role, \"root\", 4) == 0) { return 1; }"
        " return 0; }"
    )
    result = run_fresh(
        f"""
        import contextlib, io, json, sys
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", {str(path)!r}, "--input", "AAAAAAAAroot"])
        print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
        """
    )
    assert result["code"] == 2
    assert loaded(result["modules"], CLI_FORBIDDEN) == []
