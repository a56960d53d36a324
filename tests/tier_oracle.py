"""The tier lattice: every way this repo can run a program, held to the
reference tier on :func:`repro.hardware.oracle.observables`.

A lattice cell is a tier and an LLC column.  The tiers:

- ``reference``: the per-instruction interpreter, the oracle;
- ``decoded``: the pre-decoded, chunk-batched loop;
- ``block``: every block compiled alone;
- ``trace-lazy``: nothing compiled up front and a tier-up threshold of
  :data:`LOW_THRESHOLD` steps per instruction, so functions compile
  mid-run and decoded and compiled calls mix.  The lazy program
  persists across the CPUs one :func:`tier_factory` makes, so a sweep
  tiers functions up part-way through and later runs start mixed;
- ``trace-static``: every function compiled before the run (after
  ``trace-lazy``, only the functions that never tiered up are left to
  compile).

Each tier runs without an LLC model and with a fresh
:class:`~repro.hardware.cache.CacheModel` (:data:`CACHES`).

The sweeps over every profile, scenario and step limit hold one tier
column per test file and share one memoized reference run
(:func:`assert_sweep`'s ``key``).
"""

from __future__ import annotations

import dataclasses
import functools
import random
from unittest import mock

from repro.attacks import build_scenarios
from repro.core import SCHEMES, protect
from repro.hardware import CPU, CacheModel, tracec
from repro.hardware.errors import StepLimitExceeded
from repro.hardware.oracle import observables, tier_cpu
from repro.workloads import generate_program, get_profile, profile_names
from repro.workloads.profiles import BenchmarkProfile

TIERS = ("reference", "decoded", "block", "trace-lazy", "trace-static")

#: The tiers held to the reference.
FAST_TIERS = TIERS[1:]

#: The tiers that run generated code.
COMPILED_TIERS = TIERS[2:]

#: LLC columns: no cache model, and a fresh ``CacheModel()`` per CPU.
CACHES = (False, True)

#: Low enough that most functions compile during their first run.
LOW_THRESHOLD = 2

SEED = 2024

#: A generated program small enough to stop at every one of its steps
#: (~700-800 steps per scheme), with calls, loops, phis and IC handlers.
TINY = BenchmarkProfile(
    name="tiny",
    language="c",
    hot_functions=1,
    tainted_functions=1,
    pointer_functions=1,
    field_functions=1,
    ic_handlers=1,
    opaque_functions=1,
    heap_workers=1,
    outer_iterations=1,
    inner_iterations=2,
    array_size=4,
    ic_sites_per_handler=1,
    seed=7,
)

#: Memoized reference results by key, then by (sweep entry, LLC
#: column); see :func:`assert_sweep`.
_REFERENCE = {}


def variants(count=8, seed=SEED):
    """``count`` small generator profiles drawn from one fixed seed.

    Each takes the code shape of a random benchmark profile, a fresh
    generator seed, and function counts and trip counts cut down so
    that a program runs through the whole lattice in well under a
    second.
    """
    rng = random.Random(seed)
    names = profile_names()
    profiles = []
    for index in range(count):
        profile = get_profile(rng.choice(names))
        profiles.append(
            dataclasses.replace(
                profile,
                name=f"{profile.name}~{index}",
                seed=rng.randrange(1, 1 << 20),
                hot_functions=min(profile.hot_functions, 2),
                tainted_functions=min(profile.tainted_functions, 2),
                ic_handlers=min(profile.ic_handlers, 2),
                ic_sites_per_handler=min(profile.ic_sites_per_handler, 2),
                outer_iterations=min(profile.outer_iterations, 2),
                inner_iterations=min(profile.inner_iterations, 6),
            )
        )
    return profiles


def tier_factory(module, tier):
    """Prepare ``module`` for ``tier`` once; returns ``make(cache=False,
    **kwargs)``, which builds a CPU that runs it.

    Make the CPUs of one tier before preparing the next: the trace
    tiers share the module's trace program slot.
    """
    options = {"interpreter": tier.split("-")[0]}
    if tier == "trace-lazy":
        module.derived().pop("trace", None)
        with mock.patch.object(tracec, "TIER_UP_STEPS_PER_INST", LOW_THRESHOLD):
            tracec.trace_program(module)

    def make(cache=False, **kwargs):
        if cache:
            kwargs["cache"] = CacheModel()
        if tier == "trace-lazy":
            return CPU(module, seed=SEED, **options, **kwargs)
        cpu = tier_cpu(module, seed=SEED, **options, **kwargs)
        if tier in COMPILED_TIERS:
            assert cpu.tier_program.functions
        return cpu

    return make


def run(module, tier, inputs=(), **kwargs):
    """One run of ``module`` on ``tier``, without an LLC model."""
    return tier_factory(module, tier)(**kwargs).run(inputs=list(inputs))


def assert_sweep(
    module, inputs=(), context="", sweep=({},), tiers=FAST_TIERS, setup=None,
    tier_up=False, key=None,
):
    """Run ``module`` once per ``sweep`` entry on every (tier, cache) cell.

    A sweep entry is a dict of CPU keyword arguments, except that an
    ``attack`` entry is a factory called for a fresh controller per
    CPU.  ``setup(cpu)``, when given, runs on each CPU before its run.
    Every cell's :func:`observables` must equal the reference's for
    the same entry and LLC column.  Each tier is prepared once for the
    whole sweep.  With ``tier_up``, the ``trace-lazy`` runs must have
    compiled some function.  Returns the reference results of the first
    column (no LLC model), one per entry.

    With a ``key``, the reference results are memoized under it: the
    tests that hold different tiers of one program to the reference
    pass the same key, naming the program, its scheme and the sweep.
    """

    def results(tier):
        make = tier_factory(module, tier)
        for index, entry in enumerate(sweep):
            for cache in CACHES:
                kwargs = dict(entry)
                if kwargs.get("attack") is not None:
                    kwargs["attack"] = kwargs["attack"]()
                cpu = make(cache, **kwargs)
                if setup is not None:
                    setup(cpu)
                yield index, cache, cpu.run(inputs=list(inputs))

    expected = _REFERENCE.get(key)
    if expected is None:
        expected = {
            (index, cache): result for index, cache, result in results("reference")
        }
        if key is not None:
            _REFERENCE[key] = expected
    for tier in tiers:
        for index, cache, result in results(tier):
            where = f"{tier}{' +llc' if cache else ''}: {context} {sweep[index] or ''}"
            assert observables(result) == observables(expected[index, cache]), where
        if tier == "trace-lazy" and tier_up:
            assert module.derived()["trace"].functions, f"{context}: no tier-up"
    return [expected[index, False] for index in range(len(sweep))]


def assert_lattice(
    module, inputs=(), context="", *, tiers=FAST_TIERS, setup=None,
    tier_up=False, key=None, **kwargs,
):
    """:func:`assert_sweep` of the one entry ``kwargs``; returns the
    reference result without an LLC model."""
    return assert_sweep(
        module, inputs, context, [kwargs], tiers, setup, tier_up, key
    )[0]


@functools.lru_cache(maxsize=None)
def generated(name):
    """The generated program of workload profile ``name``."""
    return generate_program(get_profile(name))


def assert_program(program, tiers, tier_up=False):
    """Hold every scheme's protected generated ``program`` to the
    reference on ``tiers``; the program must run to completion."""
    module = program.compile()
    for scheme in SCHEMES:
        protected = protect(module, scheme=scheme).module
        context = f"{program.profile.name}/{scheme}"
        reference = assert_lattice(
            protected, program.inputs, context, tiers=tiers, tier_up=tier_up,
            key=context,
        )
        assert reference.ok, context


def assert_scenario(name, tiers):
    """Hold attack scenario ``name`` to the reference on ``tiers``, under
    every scheme: one benign run and one under attack."""
    scenario = build_scenarios()[name]
    module = scenario.compile()
    for scheme in SCHEMES:
        protected = protect(module, scheme=scheme).module
        context = f"{name}/{scheme}"
        assert_sweep(
            protected, scenario.benign_inputs, context,
            [{}, {"attack": scenario.make_attack}], tiers, key=context,
        )


def assert_step_limit(scheme, max_steps, tiers, tier_up=False):
    """Stop 505.mcf_r under ``scheme`` at ``max_steps`` on ``tiers``:
    deopts flush, spill and replay."""
    program = generated("505.mcf_r")
    module = protect(program.compile(), scheme=scheme).module
    context = f"505.mcf_r/{scheme} max_steps={max_steps}"
    reference = assert_lattice(
        module, program.inputs, context, tiers=tiers, tier_up=tier_up,
        key=context, max_steps=max_steps,
    )
    assert isinstance(reference.trap, StepLimitExceeded), context


def assert_every_step_limit(scheme, tiers):
    """Stop :data:`TINY` under ``scheme`` at each of its steps on
    ``tiers``: every position a hand-off to the reference tier can take."""
    program = generate_program(TINY)
    module = protect(program.compile(), scheme=scheme).module
    full = run(module, "reference", program.inputs)
    assert full.ok
    limits = range(1, full.steps + 2)
    results = assert_sweep(
        module, program.inputs, scheme, [{"max_steps": n} for n in limits], tiers
    )
    for max_steps, result in zip(limits, results):
        assert result.status == ("ok" if max_steps >= full.steps else "limit")


def custom_costs(timing):
    timing.costs["load"] = 7
    timing.costs["add"] = 2
    timing.costs["br"] = 0


def narrow_issue(timing):
    timing.issue_width = 2


def assert_timing_falls_back(module, timing, tiers):
    """Run ``module`` under a non-default ``timing`` on ``tiers``: batched
    accounting cannot be trusted, so every call runs on the reference
    tier although compiled code exists (:func:`tier_factory` checks it)."""
    reference = assert_lattice(
        module, context=timing.__name__, tiers=tiers,
        setup=lambda cpu: timing(cpu.timing),
    )
    assert reference.cycles != run(module, "reference").cycles
