"""The CLI's subcommands other than ``run`` and ``compile``.

:func:`repro.cli.main` imports this module only when it dispatches one
of them, so a cold ``repro run`` never compiles these bodies.  Each
``cmd_*`` takes the parsed arguments of :func:`repro.cli.build_parser`
and returns the process exit code; each imports its own dependencies.
"""

from __future__ import annotations

import argparse
import sys

from .cli import (
    EXIT_CODES,
    _compile_program,
    _fail,
    _load_trace_profile,
    _parse_inputs,
    _read_source,
    _write_profile_report,
)
from .core.config import BASELINE, SCHEMES
from .observability import current_tracer, get_event_log, read_events
from .workloads.profiles import get_profile, profile_names


def cmd_analyze(args: argparse.Namespace) -> int:
    from .core.framework import PreparedModule
    from .core.report import build_security_report
    from .frontend.driver import compile_source

    module = compile_source(_read_source(args.source), name=args.name)
    report = PreparedModule(module, consume=True).report
    security = build_security_report(report)
    categories = report.branch_categories()
    print(f"program variables:      {len(report.all_variables)}")
    print(f"conservative (CPA) set: {len(report.cpa_variables)}")
    print(f"refined (Pythia) set:   {len(report.refined_variables)}")
    print(f"  stack vulnerable:     {len(report.stack_vulnerable)}")
    print(f"  heap vulnerable:      {len(report.heap_vulnerable)}")
    print(f"refinement factor:      {report.refinement_factor():.2f}x")
    print(
        f"branches: {security.total_branches} total | "
        f"{categories['direct']} direct, {categories['indirect']} indirect, "
        f"{categories['unaffected']} unaffected"
    )
    print(
        f"secured:  Pythia {100 * security.pythia_secured_fraction:.1f}% | "
        f"DFI {100 * security.dfi_secured_fraction:.1f}%"
    )
    if args.verbose:
        for obj in sorted(report.refined_variables, key=lambda o: o.label):
            print(f"  vulnerable: {obj.label} ({obj.kind})")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    from .attacks.scenarios import build_scenarios
    from .core.framework import protect_all

    scenarios = build_scenarios()
    if args.scenario not in scenarios:
        print(f"unknown scenario {args.scenario!r}; try: {', '.join(scenarios)}")
        return 1
    scenario = scenarios[args.scenario]
    print(f"{scenario.name}: {scenario.description}")
    failures = 0
    for scheme, protected in protect_all(scenario.compile(), consume=True).items():
        outcome = scenario.attack_outcome(scenario.run_attack(protected.module))
        print(f"  {scheme:8s} -> {outcome}")
        if scheme == BASELINE and outcome != "success":
            failures += 1
    return 0 if not failures else 2


def cmd_bench(args: argparse.Namespace) -> int:
    from .metrics.overhead import measure_module
    from .workloads.generator import generate_program

    program = generate_program(get_profile(args.benchmark))
    module = program.compile()
    trace_profile = _load_trace_profile(args.profile_in) if args.profile_in else None
    print(f"{args.benchmark}: {module.instruction_count()} IR instructions")
    measurement = measure_module(
        module,
        args.benchmark,
        inputs=program.inputs,
        seed=args.seed,
        interpreter=args.interpreter,
        trace_profile=trace_profile,
    )
    for scheme, run in measurement.runs.items():
        result = run.execution
        line = f"  {scheme:8s} cycles={result.cycles:10.0f}"
        if scheme != BASELINE:
            overhead = 100 * measurement.runtime_overhead(scheme)
            line += f" overhead={overhead:6.1f}% pa={result.pa_dynamic}"
        print(line)
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from .perf import run_suite

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}")
        return 1
    known = profile_names()
    for name in args.benchmark:
        if name not in known:
            print(f"unknown benchmark {name!r}; try: {', '.join(known)}")
            return 1
    names = args.benchmark or None
    cache_dir = None if args.no_cache else args.cache_dir
    result = run_suite(
        names=names,
        seed=args.seed,
        jobs=args.jobs,
        interpreter=args.interpreter,
        cache_dir=cache_dir,
        timeout=args.timeout,
        retries=args.retries,
        keep_going=args.keep_going,
    )
    for name in sorted(result.programs):
        program = result.programs[name]
        overheads = " ".join(
            f"{scheme}={100 * program.runtime_overhead(scheme):+.1f}%"
            for scheme in result.schemes
            if scheme != BASELINE
        )
        print(f"  {name:18s} {overheads}")
    print(
        f"{len(result.programs)} benchmarks x {len(result.schemes)} schemes "
        f"in {result.wall_seconds:.2f}s "
        f"({result.jobs} job{'s' if result.jobs != 1 else ''}): "
        f"{result.steps_per_second:,.0f} steps/s, "
        f"decode {result.decode_seconds * 1e3:.1f}ms"
    )
    if cache_dir is not None:
        print(
            f"compilation cache [{cache_dir}]: "
            f"{result.cache_hits} hits, {result.cache_misses} misses"
        )
    if args.manifest:
        import json

        with open(args.manifest, "w", encoding="utf-8") as handle:
            json.dump(result.failure_manifest(), handle, indent=2, sort_keys=True)
        print(f"failure manifest written to {args.manifest}")
    if result.failures:
        for name in result.quarantined:
            failure = result.failures[name]
            print(
                f"  QUARANTINED {name}: {failure.status} after "
                f"{failure.attempts} attempt(s): {failure.message}",
                file=sys.stderr,
            )
        return 2
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .robustness import FaultPlan, smoke_plan
    from .robustness.chaos import run_chaos

    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            plan = FaultPlan.from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
            # Bad JSON (JSONDecodeError is a ValueError), an unknown
            # fault kind (FaultSpec validation), or a wrong schema
            # (missing keys / mis-typed fields): all user input errors.
            detail = str(exc) or type(exc).__name__
            return _fail(
                ValueError(f"invalid fault plan {args.plan}: {detail}"),
                EXIT_CODES["io"],
            )
    else:
        plan = smoke_plan(args.seed)
    report = run_chaos(
        plan, workload=args.workload, seed=args.seed, interpreter=args.interpreter
    )
    print(
        f"chaos: {len(plan.specs)} fault spec(s) against {args.workload!r} "
        f"(plan seed {plan.seed}, run seed {args.seed})"
    )
    for line in report.summary_lines():
        print(line)
    triage = report.triage
    if triage.total_crashes:
        print("triage buckets (uncaught exceptions -- framework bugs):")
        for line in triage.summary_lines():
            print(f"  {line}")
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as handle:
            json.dump(report.to_manifest(), handle, indent=2, sort_keys=True)
        print(f"chaos manifest written to {args.manifest}")
    violations = report.contract_violations()
    if violations:
        print(f"FAIL: {len(violations)} defense-contract violation(s)")
        for case in violations:
            print(f"  [{case.index}] {case.kind}: {case.classification} -- {case.detail}")
        return 2
    print("OK: every injected fault stayed within its defense contract")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from .attacks.scenarios import build_scenarios
    from .robustness.campaign import (
        run_campaign,
        write_manifest,
        write_matrix,
    )

    families = None
    if args.families:
        families = [name.strip() for name in args.families.split(",") if name.strip()]
        known = build_scenarios()
        for name in families:
            if name not in known:
                return _fail(
                    ValueError(
                        f"unknown attack family {name!r}; "
                        f"try: {', '.join(sorted(known))}"
                    ),
                    2,
                )
    with current_tracer().span("campaign", "campaign", seed=args.seed):
        report = run_campaign(
            seed=args.seed,
            budget=args.budget,
            families=families,
            reduce_bypasses=not args.no_reduce,
        )
    print(
        f"campaign: {report.budget} mutants over {len(report.families)} "
        f"families x {len(SCHEMES)} schemes (seed {report.seed})"
    )
    for line in report.render_matrix():
        print(line)
    buckets = report.bypass_buckets()
    if buckets:
        print(f"bypass buckets ({len(buckets)}):")
        for bucket in sorted(buckets):
            records = buckets[bucket]
            exemplar = next(
                (r for r in records if r.reduced_source), records[0]
            )
            shrink = (
                f" (exemplar reduced {exemplar.original_lines}->"
                f"{exemplar.reduced_lines} lines)"
                if exemplar.reduced_lines
                else ""
            )
            print(f"  {bucket}: {len(records)} mutant(s){shrink}")
    triage = report.triage
    if triage.total_crashes:
        print("triage buckets (uncaught exceptions -- framework bugs):")
        for line in triage.summary_lines():
            print(f"  {line}")
    if args.matrix_out:
        write_matrix(report, args.matrix_out)
        print(f"coverage matrix written to {args.matrix_out}")
    if args.manifest:
        write_manifest(report, args.manifest)
        print(f"campaign manifest written to {args.manifest}")
    violations = report.contract_violations()
    if violations or report.crashes:
        print(
            f"FAIL: {len(violations)} contract violation(s), "
            f"{triage.total_crashes} crash(es)"
        )
        for violation in violations:
            print(
                f"  {violation['mutant']}/{violation['scheme']}: "
                f"{violation['reason']}"
            )
        return 2
    print("OK: every vanilla bypass of the new families was trapped or detected")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .core.framework import protect
    from .hardware.cpu import CPU
    from .observability.profile import ExecutionProfiler, format_report

    module = _compile_program(_read_source(args.source), args.name)
    protected = protect(module, scheme=args.scheme)
    profiler = ExecutionProfiler()
    cpu = CPU(
        protected.module,
        seed=args.seed,
        interpreter=args.interpreter or "block",
        profiler=profiler,
    )
    result = cpu.run(inputs=_parse_inputs(args.input))
    sys.stdout.write(result.output.decode("utf-8", "replace"))
    report = profiler.report(result, top=args.top)
    for line in format_report(report):
        print(line)
    if args.profile_out:
        _write_profile_report(args.profile_out, report)
    return 0 if result.ok else 2


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.pool import WorkerPool
    from .serve.server import ReproServer

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}")
        return 1
    if args.socket and args.port is not None:
        print("pass --socket or --port, not both")
        return 1
    cache_dir = None if args.no_cache else args.cache_dir
    timeout = args.timeout if args.timeout and args.timeout > 0 else None
    slo_policy = None
    if args.slo:
        from .observability import SloPolicy

        try:
            slo_policy = SloPolicy.from_json_file(args.slo)
        except ValueError as exc:
            return _fail(exc, EXIT_CODES["io"])
    pool = WorkerPool(
        workers=args.workers,
        capacity=args.max_modules,
        cache_dir=cache_dir,
        timeout=timeout,
        trace=current_tracer().enabled,
        debug_ops=args.debug_ops,
    )
    server = ReproServer(
        pool,
        socket_path=None if args.port is not None else (args.socket or ".repro-serve.sock"),
        port=args.port,
        drain_timeout=args.drain_timeout,
        slo_policy=slo_policy,
    )

    async def _serve() -> None:
        await server.serve_until_stopped()

    # Fork the workers before any event loop exists, so no loop or
    # executor-thread state is duplicated into them.
    pool.start()
    try:
        print(
            f"repro serve: {pool.size} worker(s) on {server.endpoint} "
            + (f"(timeout {timeout}s" if timeout else "(no timeout")
            + (f", cache {cache_dir})" if cache_dir else ", cache off)"),
            file=sys.stderr,
            flush=True,
        )
        asyncio.run(_serve())
    finally:
        pool.stop()
    print(
        f"repro serve: drained after {server.requests} request(s), "
        f"{server.coalesced} coalesced, {pool.restarts} worker restart(s)",
        file=sys.stderr,
    )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    from .serve.loadgen import run_load
    from .workloads.nginx import DEFAULT_MIX, build_request_mix, parse_mix

    try:
        mix = parse_mix(args.mix) if args.mix else dict(DEFAULT_MIX)
    except ValueError as exc:
        return _fail(exc, 2)
    requests = build_request_mix(
        count=args.requests,
        seed=args.seed,
        mix=mix,
        duration=args.size,
        variants=args.variants,
        interpreter=args.interpreter,
    )
    report = run_load(
        requests,
        concurrency=args.concurrency,
        socket_path=None if args.port is not None else (args.socket or ".repro-serve.sock"),
        port=args.port,
        duration_s=args.duration,
        connect_deadline_s=args.connect_wait,
    )
    for line in report.summary_lines():
        print(line)
    if args.report_out:
        import json

        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"load report written to {args.report_out}", file=sys.stderr)
    if args.events_out:
        # The daemon owns the ring; pull it over the events op and
        # adopt it locally, so the shared --events-out exporter writes
        # a file carrying every worker-side trap this load drew.
        from .serve.client import ServeClient

        client = ServeClient(
            socket_path=None
            if args.port is not None
            else (args.socket or ".repro-serve.sock"),
            port=args.port,
        )
        try:
            response = client.request("events")
        finally:
            client.close()
        if response.get("status") != "ok":
            return _fail(
                ValueError(f"events op failed: {response.get('error')}"),
                EXIT_CODES["io"],
            )
        get_event_log().adopt(response["result"]["events"])
    failed = False
    if report.failures:
        print(f"FAIL: {report.failures} request(s) failed", file=sys.stderr)
        failed = True
    if args.max_p99_ms is not None and report.p99_ms() > args.max_p99_ms:
        print(
            f"FAIL: p99 {report.p99_ms():.1f}ms exceeds the "
            f"--max-p99-ms bound of {args.max_p99_ms:.1f}ms",
            file=sys.stderr,
        )
        failed = True
    return 2 if failed else 0


def cmd_top(args: argparse.Namespace) -> int:
    import time as time_module

    from .observability.aggregate import render_dashboard
    from .serve.client import ServeClient

    frames = 0
    try:
        while True:
            client = ServeClient(
                socket_path=None
                if args.port is not None
                else (args.socket or ".repro-serve.sock"),
                port=args.port,
            )
            try:
                response = client.request("stats")
            finally:
                client.close()
            if response.get("status") != "ok":
                return _fail(
                    ValueError(f"stats op failed: {response.get('error')}"),
                    EXIT_CODES["io"],
                )
            frames += 1
            lines = render_dashboard(response["result"])
            if not args.once and sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            print("\n".join(lines), flush=True)
            if args.once or (args.frames is not None and frames >= args.frames):
                return 0
            time_module.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from .observability.audit import audit_events, render_audit

    try:
        events = read_events(args.events)
    except ValueError as exc:
        return _fail(exc, EXIT_CODES["io"])
    report = audit_events(events)
    for line in render_audit(report, path=args.events):
        print(line)
    if args.json_out:
        import json

        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"audit report written to {args.json_out}", file=sys.stderr)
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    from .attacks.scenarios import build_scenarios
    from .robustness.campaign import FAMILY_FAULTS, NEW_FAMILIES

    for name, scenario in build_scenarios().items():
        detected = ",".join(scenario.detected_by) or "-"
        prevented = ",".join(scenario.prevented_by) or "-"
        line = f"{name:22s} detected_by={detected:16s} prevented_by={prevented}"
        if name in NEW_FAMILIES:
            fault = FAMILY_FAULTS.get(name)
            extra = f" + {fault} fault" if fault else ""
            line += f"  [campaign family{extra}]"
        print(line)
    print(
        "every scenario doubles as a campaign attack family "
        "(python -m repro campaign); the [campaign family] rows are the "
        "related-work adversaries beyond the paper's listings"
    )
    return 0
