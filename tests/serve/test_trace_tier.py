"""Serve executes the nginx mix on the trace tier, compiled once per module.

These run the worker's :class:`RequestHandler` in-process on a fresh
:class:`WarmRegistry`, so the trace program a request builds is the one
the test inspects: a module's first executing request, ``run`` or
``profile``, compiles every function, and no later request compiles
anything.
"""

from __future__ import annotations

import pytest

from repro.core import SCHEMES
from repro.hardware.cpu import CPU
from repro.hardware.tracec import trace_program
from repro.serve.registry import WarmRegistry
from repro.serve.worker import RequestHandler, _execution_result
from repro.workloads.nginx import build_request_mix

PROGRAMS = ("nginx.v0", "nginx.v1", "nginx.v2")


def _bodies(op):
    """The default mix's ``op`` bodies, one per (program, scheme)."""
    bodies = {
        (request["name"], request["scheme"]): request
        for request in build_request_mix(200, mix={op: 1})
    }
    assert sorted(bodies) == sorted((p, s) for p in PROGRAMS for s in SCHEMES)
    return bodies


@pytest.fixture(scope="module")
def runs():
    return _bodies("run")


@pytest.fixture(scope="module")
def profiles():
    return _bodies("profile")


def test_mix_bodies_name_the_trace_tier(runs, profiles):
    for request in [*runs.values(), *profiles.values()]:
        assert request["interpreter"] == "trace"


@pytest.mark.parametrize("first", ["run", "profile"])
def test_first_request_compiles_the_whole_trace_program(runs, profiles, first):
    handler = RequestHandler(WarmRegistry())
    key = ("nginx.v0", "pythia")
    order = [
        dict(runs[key], interpreter="trace"),
        dict(profiles[key], interpreter="trace"),
    ]
    if first == "profile":
        order.reverse()
    response = handler.handle(order[0])
    protection, warm = handler.registry.protection(
        order[0]["source"], order[0]["name"], order[0]["scheme"], False
    )
    assert warm
    program = trace_program(protection.module)
    assert not program.pending
    assert program.functions
    assert response["interpreter"] == "trace"
    compiled = program.compile_seconds
    for request in [*order, *order]:
        assert handler.handle(request)["interpreter"] == "trace"
        assert program.compile_seconds == compiled


@pytest.fixture(scope="module")
def references(runs):
    """One reference-tier run per (program, scheme), on its own registry."""
    registry = WarmRegistry(capacity=len(runs))
    expected = {}
    for key, request in runs.items():
        protection, _ = registry.protection(
            request["source"], request["name"], request["scheme"], False
        )
        execution = CPU(
            protection.module, seed=request["seed"], interpreter="reference"
        ).run(inputs=[item.encode("utf-8") for item in request["inputs"]])
        expected[key] = _execution_result(execution)
    return expected


@pytest.fixture(scope="module")
def warm_handler():
    return RequestHandler(WarmRegistry(capacity=len(PROGRAMS) * len(SCHEMES)))


def _without_tier(result):
    return {k: v for k, v in result.items() if k != "interpreter"}


def test_trace_runs_match_the_reference(runs, references, warm_handler):
    for key, request in runs.items():
        result = warm_handler.handle(request)
        assert result["interpreter"] == "trace"
        observed = {k: result[k] for k in references[key]}
        assert _without_tier(observed) == _without_tier(references[key]), key


@pytest.mark.parametrize("tier", ["block", "decoded"])
def test_named_tiers_are_honoured(runs, profiles, references, warm_handler, tier):
    key = ("nginx.v1", "cpa")
    run = warm_handler.handle(dict(runs[key], interpreter=tier))
    assert run["interpreter"] == tier
    observed = {k: run[k] for k in references[key]}
    assert _without_tier(observed) == _without_tier(references[key])
    profile = warm_handler.handle(dict(profiles[key], interpreter=tier))
    assert profile["interpreter"] == tier
    assert profile["report"]["totals"]["interpreter"] == tier


def test_run_naming_no_tier_stays_on_the_cpu_default(runs, warm_handler, monkeypatch):
    monkeypatch.delenv("REPRO_INTERPRETER", raising=False)
    request = {k: v for k, v in runs[("nginx.v2", "dfi")].items() if k != "interpreter"}
    assert warm_handler.handle(request)["interpreter"] == "decoded"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_profile_function_records_agree_across_tiers(profiles, warm_handler, scheme):
    reports = {
        tier: warm_handler.handle(
            dict(profiles[("nginx.v0", scheme)], interpreter=tier, top=1000)
        )["report"]
        for tier in ("block", "trace", "decoded")
    }
    assert reports["block"]["functions"]
    assert reports["trace"]["functions"] == reports["block"]["functions"]
    assert reports["decoded"]["functions"] == reports["block"]["functions"]
    # Trace counts one entry per region, keyed by the region's header
    # block; block counts every block; decoded attributes no blocks.
    block_labels = set(reports["block"]["block_counts"])
    trace_labels = set(reports["trace"]["block_counts"])
    assert trace_labels < block_labels
    assert reports["decoded"]["block_counts"] == {}
