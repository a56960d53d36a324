"""The public API surface: everything the README promises."""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import repro

#: Every package whose ``__init__`` re-exports names from its submodules.
PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.attacks",
    "repro.core",
    "repro.frontend",
    "repro.hardware",
    "repro.ir",
    "repro.metrics",
    "repro.observability",
    "repro.perf",
    "repro.robustness",
    "repro.serve",
    "repro.transforms",
    "repro.workloads",
)


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_schemes_constant(self):
        assert repro.SCHEMES == ("vanilla", "cpa", "pythia", "dfi")

    def test_readme_quickstart(self):
        """The exact flow the README's quickstart shows."""
        source = """
        int main() {
            char name[16];
            char role[16];
            strcpy(role, "user");
            gets(name);
            if (strncmp(role, "root", 4) == 0) { return 1; }
            return 0;
        }
        """
        module = repro.compile_source(source)
        protected = repro.protect(module, scheme="pythia")
        result = repro.CPU(protected.module).run(inputs=[b"alice"])
        assert result.ok

        attack = repro.AttackController().add(
            "gets", repro.overflow_payload(b"eve", 16, b"root\x00")
        )
        attacked = repro.CPU(protected.module, attack=attack).run()
        assert attacked.detected

    def test_analysis_entry_points(self, listing1_module):
        report = repro.analyze_module(repro.clone_module(listing1_module))
        assert report.refined_variables
        security = repro.build_security_report(report)
        assert security.total_branches >= 1

    def test_workload_entry_points(self):
        profile = repro.get_profile("519.lbm_r")
        program = repro.generate_program(profile)
        measurement = repro.measure_program(
            program, schemes=("vanilla", "pythia")
        )
        assert measurement.runtime_overhead("pythia") > 0

    def test_scenarios_entry_point(self):
        scenarios = repro.build_scenarios()
        assert len(scenarios) == 9

    def test_ir_roundtrip_entry_points(self, listing1_module):
        text = repro.print_module(listing1_module)
        module = repro.parse_module(text)
        repro.verify_module(module)


@pytest.mark.parametrize("name", PACKAGES)
class TestPackageExports:
    def test_all_names_resolve(self, name):
        package = importlib.import_module(name)
        for export in package.__all__:
            value = getattr(package, export)
            # An export sharing its submodule's name (``triage``) must
            # stay the export, not the module.
            assert not isinstance(value, types.ModuleType), export

    def test_star_import(self, name):
        namespace = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        for export in package.__all__:
            assert namespace[export] is getattr(package, export), export

    def test_unknown_attribute(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export
        assert not hasattr(package, "no_such_export")


def test_dir_lists_names_not_yet_loaded():
    """``dir()`` of a freshly imported package lists its lazy exports."""
    code = (
        "import importlib, json, sys\n"
        f"names = {list(PACKAGES)!r}\n"
        "missing = {}\n"
        "for name in names:\n"
        "    package = importlib.import_module(name)\n"
        "    missing[name] = sorted(set(package.__all__) - set(dir(package)))\n"
        "print(json.dumps(missing))\n"
    )
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    missing = json.loads(completed.stdout)
    assert missing == {name: [] for name in PACKAGES}


def test_submodules_resolve_as_attributes():
    assert repro.hardware.cpu.CPU is repro.CPU
    assert isinstance(repro.perf.trajectory, types.ModuleType)
