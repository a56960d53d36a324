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
    "repro.workloads.profiles",
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
#: observability builds its process-global state from these, and
#: ``robustness.triage`` is an export sharing its submodule's name.
PACKAGE_EAGER = {
    "observability": ("trace", "metrics", "events"),
    "robustness": ("triage",),
}

TINY_SOURCE = "int main() { puts(\"hi\"); return 0; }"

#: The defense pass modules each scheme's run instruments with (Pythia's
#: field pass only under ``--fields``).
SCHEME_PASS_MODULES = {
    "vanilla": (),
    "cpa": ("repro.transforms.cpa",),
    "pythia": ("repro.transforms.stack_protect", "repro.transforms.heap_section"),
    "dfi": ("repro.transforms.dfi",),
}

PASS_MODULES = (
    "repro.transforms.cpa",
    "repro.transforms.dfi",
    "repro.transforms.field_protect",
    "repro.transforms.heap_section",
    "repro.transforms.stack_protect",
)


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

        WANTED = (
            "repro.hardware.blockc",
            "repro.hardware.tracec",
            "repro.perf.cache",
            "repro.transforms.cpa",
            "repro.transforms.dfi",
            "repro.transforms.field_protect",
            "repro.transforms.heap_section",
            "repro.transforms.stack_protect",
        )
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
        *PASS_MODULES,
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
            "repro.transforms.cpa",
            "repro.transforms.dfi",
            "repro.transforms.field_protect",
            "repro.transforms.heap_section",
            "repro.transforms.stack_protect",
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
    assert not set(PASS_MODULES) & set(result["before"])
    assert result["at_fork"] == [
        [
            "repro.attacks.scenarios",
            "repro.hardware.blockc",
            "repro.hardware.tracec",
            "repro.perf.cache",
            *PASS_MODULES,
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


@pytest.mark.parametrize("scheme", sorted(SCHEME_PASS_MODULES))
def test_run_loads_only_its_own_scheme(tmp_path, scheme):
    path = tmp_path / "tiny.c"
    path.write_text(TINY_SOURCE)
    result = run_fresh(
        f"""
        import contextlib, io, json, sys
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", {str(path)!r}, "--scheme", {scheme!r}])
        print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
        """
    )
    assert result["code"] == 0
    modules = result["modules"]
    own = SCHEME_PASS_MODULES[scheme]
    assert loaded(modules, PASS_MODULES) == sorted(own)
    forbidden = ("repro.observability.aggregate", "repro.commands", "hashlib")
    if scheme == "vanilla":
        forbidden += ("repro.analysis.", "repro.core.vulnerability")
    assert loaded(modules, forbidden) == []


#: ``repro`` source lines a cold ``repro run`` of ``TINY_SOURCE`` loads,
#: per scheme, as measured (this module's ``cold_runs`` counting) once
#: the trace tier had one region policy.  Import compiles every line it
#: loads where no bytecode is written, so a cold run's import time
#: tracks this count.
COLD_RUN_LINES = {"vanilla": 10_461, "cpa": 12_590, "pythia": 12_698, "dfi": 12_565}

#: Slack over ``COLD_RUN_LINES`` before the budget fails: ~84-102 lines.
COLD_RUN_LINE_SLACK = 0.008

#: The only ``repro`` dataclasses a cold run defines: ``dataclasses``
#: helpers are used on both (``replace`` on a result in perfbench's
#: self-test, ``asdict`` on a config for the cache key).
COLD_RUN_DATACLASSES = [
    "repro.core.config.DefenseConfig",
    "repro.hardware.cpu.ExecutionResult",
]

#: The reference tier and the reference semantics of one instruction,
#: loaded only when a run needs them.
ORACLE = "repro.hardware.oracle"

LOOP_SOURCE = "int main() { int i = 0; while (i < 100) { i = i + 1; } return i; }"


@pytest.fixture(scope="module")
def cold_runs(tmp_path_factory):
    """One fresh-process ``repro run`` per scheme: the modules it loaded,
    their source lines, and the ``repro`` dataclasses they define."""
    path = tmp_path_factory.mktemp("cold") / "tiny.c"
    path.write_text(TINY_SOURCE)
    runs = {}
    for scheme in sorted(SCHEME_PASS_MODULES):
        runs[scheme] = run_fresh(
            f"""
            import contextlib, dataclasses, io, json, sys
            from repro.cli import main
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(["run", {str(path)!r}, "--scheme", {scheme!r}])
            mods = {{n: m for n, m in sys.modules.items() if n == "repro" or n.startswith("repro.")}}
            lines = 0
            for module in mods.values():
                with open(module.__file__, encoding="utf-8") as handle:
                    lines += sum(1 for _ in handle)
            classes = sorted(
                f"{{name}}.{{attr}}"
                for name, module in mods.items()
                for attr, value in vars(module).items()
                if isinstance(value, type)
                and value.__module__ == name
                and dataclasses.is_dataclass(value)
            )
            print(json.dumps({{"code": code, "modules": sorted(sys.modules),
                              "lines": lines, "dataclasses": classes}}))
            """
        )
    return runs


@pytest.mark.parametrize("scheme", sorted(SCHEME_PASS_MODULES))
def test_cold_run_defines_only_the_kept_dataclasses(cold_runs, scheme):
    run = cold_runs[scheme]
    assert run["code"] == 0
    assert run["dataclasses"] == COLD_RUN_DATACLASSES


@pytest.mark.parametrize("scheme", sorted(SCHEME_PASS_MODULES))
def test_cold_run_loads_no_oracle_and_no_profile_table(cold_runs, scheme):
    modules = cold_runs[scheme]["modules"]
    assert loaded(modules, (ORACLE, "repro.workloads.profiles")) == []


@pytest.mark.parametrize("scheme", sorted(SCHEME_PASS_MODULES))
def test_cold_run_stays_within_its_line_budget(cold_runs, scheme):
    budget = COLD_RUN_LINES[scheme] * (1 + COLD_RUN_LINE_SLACK)
    assert cold_runs[scheme]["lines"] <= budget, cold_runs[scheme]["lines"]


@pytest.mark.parametrize(
    ("source", "kwargs", "status", "expected"),
    [
        (LOOP_SOURCE, {"interpreter": "decoded"}, "ok", []),
        (TINY_SOURCE, {"interpreter": "reference"}, "ok", [ORACLE]),
        (LOOP_SOURCE, {"interpreter": "decoded", "max_steps": 50}, "limit", [ORACLE]),
        (LOOP_SOURCE, {"interpreter": "trace", "max_steps": 50}, "limit", [ORACLE]),
    ],
    ids=["decoded", "reference", "decoded-limit", "trace-limit"],
)
def test_oracle_loads_only_when_a_run_needs_it(source, kwargs, status, expected):
    result = run_fresh(
        f"""
        import json, sys
        from repro.frontend.driver import compile_source
        from repro.hardware.cpu import CPU
        result = CPU(compile_source({source!r}), **{kwargs!r}).run()
        print(json.dumps({{"status": result.status, "modules": sorted(sys.modules)}}))
        """
    )
    assert result["status"] == status
    assert loaded(result["modules"], (ORACLE,)) == expected
