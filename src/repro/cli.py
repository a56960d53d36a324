"""Command-line interface: ``python -m repro <command>``.

Subcommands:

``compile``   MiniC source -> textual IR (optionally post-mem2reg)
``run``       compile, protect, and execute a program
``analyze``   print the vulnerability analysis of a program
``attack``    replay a built-in attack scenario under every scheme
``bench``     run one generated benchmark under every scheme
``suite``     measure many benchmarks, optionally across worker processes
``chaos``     inject a fault plan and assert the defense contract
``campaign``  fuzz attack families, emit the defense-coverage matrix
``profile``   execute a program under the profiler, print hot spots
``scenarios`` list the built-in attack scenarios / campaign families
``serve``     persistent compile-and-execute daemon over a local socket
``loadgen``   fire a seeded request mix at a running serve daemon
``top``       live terminal dashboard over a running serve daemon
``audit``     offline security summary of a repro-events-v1 file

``run``, ``bench``, ``suite``, ``chaos``, and ``campaign`` accept ``--trace-out FILE``
(a Chrome-trace / Perfetto JSON of the command's spans),
``--metrics-out FILE`` (the ``repro-metrics-v1`` counters snapshot),
and ``--events-out FILE`` (the ``repro-events-v1`` security-event
JSON-lines log); ``serve`` accepts all three plus ``--slo FILE``, and
``loadgen --events-out`` pulls the daemon's ring over the ``events``
op.  See :mod:`repro.observability`.

``run --profile-out`` / ``profile --profile-out`` save an execution
profile whose per-block counts ``run``/``bench`` ``--profile-in`` feed
back into trace-tier region selection (``--interpreter trace``).

Failures exit with a one-line ``repro: error:`` diagnostic and a
distinct code per failure layer (see :data:`EXIT_CODES`) -- never a
traceback: 2 for an undetected attack / broken contract / failed
benign run / suite failure, 3 for I/O (missing file, unreadable plan),
4 for invalid MiniC, 5 for IR verification and protection-pipeline
bugs.

The module imports at its top only what :func:`main` needs to parse
arguments and map failures to exit codes, and it defines only
``compile`` and ``run``: the other twelve subcommands live in
:mod:`repro.commands`, imported only when one of them is dispatched.
Each ``cmd_*`` imports its own dependencies, and protection imports
only its scheme's passes, so a cold ``repro run`` loads only what
``run`` executes.  It loads no other subcommand, no other scheme's
passes, no analysis under the baseline scheme, no dashboard code
(:mod:`repro.observability.aggregate`) and no ``hashlib`` unless the
run traps.  It loads no benchmark profile table (the ``bench`` and
``chaos`` choices resolve on first use) and no per-op interpreter
(:mod:`repro.hardware.oracle`) unless the run needs one.  It builds no
dataclass but ``ExecutionResult`` and ``DefenseConfig``: AST nodes,
tokens, analysis results and the timing model are plain classes.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core.config import DEFAULT_SCHEME, SCHEMES, DefenseConfig
from .frontend.codegen import CodegenError
from .frontend.lexer import LexError
from .frontend.parser import ParseError as CParseError
from .frontend.sema import SemaError
from .hardware.cpu import INTERPRETERS
from .hardware.errors import ReproError
from .ir.verifier import VerificationError
from .observability import (
    current_tracer,
    disable_tracing,
    enable_tracing,
    get_event_log,
    get_metrics,
    publish_execution,
    reset_event_log,
    reset_metrics,
    write_events,
    write_metrics,
    write_trace,
)

#: Exit code per failure layer.  :class:`~repro.hardware.errors.ReproError`
#: subclasses carry their own ``exit_code`` and take precedence.
EXIT_CODES = {
    "io": 3,
    "frontend": 4,
    "verify": 5,
}

#: MiniC front-end failures: invalid *input*, not framework bugs.
_FRONTEND_ERRORS = (LexError, CParseError, SemaError, CodegenError)


class _ProfileNames:
    """The benchmark profile names as argparse ``choices``.

    The profile table loads on the first membership test or iteration
    (parsing a ``bench``/``chaos`` argument, or printing the invalid-choice
    error), not when the parser is built, so ``run`` never loads it.
    """

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __iter__(self):
        return iter(self._names())

    @staticmethod
    def _names() -> List[str]:
        from .workloads.profiles import profile_names

        return profile_names()


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _compile_program(source: str, name: str):
    """Compile a program for ``run``/``profile``, which start at ``main``:
    a source that defines no ``main`` is invalid input, not a crash."""
    from .frontend.driver import compile_source

    module = compile_source(source, name=name)
    main = module.functions.get("main")
    if main is None or main.is_declaration:
        raise SemaError("program defines no function 'main'")
    return module


def _parse_inputs(items: Optional[List[str]]) -> List[bytes]:
    return [item.encode("utf-8") for item in (items or [])]


def _load_trace_profile(path: str) -> dict:
    """Read a ``--profile-out`` report back as trace-tier block counts."""
    import json

    from .observability.profile import PROFILE_SCHEMA, hot_block_counts

    with open(path, "r", encoding="utf-8") as handle:
        try:
            report = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ReproError(f"invalid profile JSON in {path}: {exc}") from exc
    counts = hot_block_counts(report) if isinstance(report, dict) else None
    totals = report.get("totals") if counts is not None else None
    # A trace-tier report counts each fused region under its header.
    if counts is None or (
        isinstance(totals, dict) and totals.get("interpreter") == "trace"
    ):
        raise ReproError(
            f"{path} carries no per-block execution counts (expected a "
            f"{PROFILE_SCHEMA} report from --profile-out under the block "
            f"tier)"
        )
    return counts


def _write_profile_report(path: str, report: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"profile written to {path}", file=sys.stderr)


# -- subcommands ---------------------------------------------------------------


def cmd_compile(args: argparse.Namespace) -> int:
    from .frontend.driver import compile_source
    from .ir.printer import print_module
    from .transforms.mem2reg import Mem2Reg

    module = compile_source(_read_source(args.source), name=args.name)
    if args.mem2reg:
        Mem2Reg().run(module)
    print(print_module(module), end="")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .core.framework import protect
    from .frontend.driver import source_digest
    from .hardware.cpu import CPU

    source = _read_source(args.source)
    module = _compile_program(source, args.name)
    config = DefenseConfig(scheme=args.scheme, protect_fields=args.fields)
    # The module was compiled for this run alone: protect it in place.
    protected = protect(module, config=config, clone=False)
    if args.timings:
        # Read the phases back from the metrics snapshot rather than
        # ``protected.timings``: both views are fed by the same
        # ``phase_span`` clock readings, so stderr and ``--metrics-out``
        # can never disagree.
        prefix = "compile.phase."
        phases = {
            name[len(prefix):]: stats["sum"]
            for name, stats in get_metrics().snapshot()["histograms"].items()
            if name.startswith(prefix)
        }
        total = sum(phases.values())
        for phase, seconds in sorted(phases.items(), key=lambda item: -item[1]):
            print(f"[timing] {phase:24s} {seconds * 1e3:8.2f}ms", file=sys.stderr)
        print(f"[timing] {'total':24s} {total * 1e3:8.2f}ms", file=sys.stderr)
    trace_profile = (
        _load_trace_profile(args.profile_in) if args.profile_in else None
    )
    profiler = None
    if args.profile_out:
        from .observability.profile import ExecutionProfiler

        profiler = ExecutionProfiler()
    cpu = CPU(
        protected.module,
        seed=args.seed,
        interpreter=args.interpreter,
        profiler=profiler,
        trace_profile=trace_profile,
    )
    with current_tracer().span(f"execute:{args.scheme}", "exec"):
        result = cpu.run(inputs=_parse_inputs(args.input))
    publish_execution(get_metrics(), result, scheme=args.scheme)
    if result.detected:
        get_event_log().emit(
            "trap",
            module_digest=source_digest(source),
            scheme=args.scheme,
            tier=result.interpreter,
            status=result.status,
            op="run",
        )
    if profiler is not None:
        _write_profile_report(args.profile_out, profiler.report(result))
    if args.timings:
        # Decode plus every compile, up front or tiered up during the run.
        print(
            f"[exec] {'decode+compile':24s} {result.decode_seconds * 1e3:8.2f}ms",
            file=sys.stderr,
        )
        program = cpu.tier_program
        if program is not None:
            compiled = len(program.functions)
            print(
                f"[exec] {'compiled functions':24s} "
                f"{compiled}/{compiled + len(program.pending)}",
                file=sys.stderr,
            )
    sys.stdout.write(result.output.decode("utf-8", "replace"))
    print(
        f"[{args.scheme}] status={result.status} return={result.return_value} "
        f"cycles={result.cycles:.0f} instructions={result.instructions} "
        f"ipc={result.ipc:.2f} pa={result.pa_dynamic}",
        file=sys.stderr,
    )
    return 0 if result.ok else 2


#: The subcommands defined here; every other one is ``cmd_<name>`` of
#: :mod:`repro.commands`, imported only when it is dispatched.
_COMMANDS = {"compile": cmd_compile, "run": cmd_run}


# -- parser ---------------------------------------------------------------


def _add_observability_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome-trace / Perfetto JSON of this command's spans",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the repro-metrics-v1 counters snapshot as JSON",
    )
    p.add_argument(
        "--events-out",
        default=None,
        metavar="FILE",
        help="write the repro-events-v1 security-event log as JSON lines",
    )


def _add_cache_args(
    p: argparse.ArgumentParser, help: str, cache: str = "compilation cache"
) -> None:
    p.add_argument("--cache-dir", default=".repro-cache", help=help)
    p.add_argument("--no-cache", action="store_true", help=f"disable the {cache}")


def _add_interpreter_arg(
    p: argparse.ArgumentParser,
    default: Optional[str] = None,
    help: str = "CPU backend (default: pre-decoded dispatch)",
) -> None:
    p.add_argument(
        "--interpreter", choices=INTERPRETERS, default=default, help=help
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pythia (ASPLOS 2024) reproduction: compile, protect, attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="MiniC source to textual IR")
    p.add_argument("source", help="path to MiniC source, or - for stdin")
    p.add_argument("--name", default="module")
    p.add_argument("--mem2reg", action="store_true", help="promote to SSA first")

    p = sub.add_parser("run", help="compile, protect, and execute")
    p.add_argument("source")
    p.add_argument("--name", default="module")
    p.add_argument("--scheme", choices=SCHEMES, default=DEFAULT_SCHEME)
    p.add_argument("--fields", action="store_true", help="§6.4 field canaries")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument(
        "--input", action="append", help="queue a benign input line (repeatable)"
    )
    _add_interpreter_arg(p)
    p.add_argument(
        "--timings",
        action="store_true",
        help="print per-phase compile timings, the run's decode and "
        "compile time and its compiled-function count to stderr",
    )
    p.add_argument(
        "--profile-out",
        default=None,
        metavar="FILE",
        help="run under the execution profiler and write its report "
        "(per-block counts need --interpreter block or trace)",
    )
    p.add_argument(
        "--profile-in",
        default=None,
        metavar="FILE",
        help="feed a block-tier --profile-out report to trace-tier region "
        "selection (only the trace interpreter consumes it)",
    )
    _add_observability_args(p)

    p = sub.add_parser("analyze", help="print the vulnerability analysis")
    p.add_argument("source")
    p.add_argument("--name", default="module")
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("attack", help="replay a scenario under every scheme")
    p.add_argument("scenario")

    p = sub.add_parser("bench", help="run one generated benchmark")
    p.add_argument("benchmark", choices=_ProfileNames(), metavar="BENCHMARK")
    p.add_argument("--seed", type=int, default=2024)
    _add_interpreter_arg(p)
    p.add_argument(
        "--profile-in",
        default=None,
        metavar="FILE",
        help="feed a block-tier --profile-out report to trace-tier region "
        "selection (only the trace interpreter consumes it)",
    )
    _add_observability_args(p)

    p = sub.add_parser(
        "suite", help="measure benchmarks under every scheme, optionally in parallel"
    )
    p.add_argument(
        "benchmark",
        nargs="*",
        metavar="BENCHMARK",
        help="benchmarks to measure (default: all profiles)",
    )
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the fan-out (default: 1, serial)",
    )
    _add_interpreter_arg(p)
    _add_cache_args(p, help="compilation cache directory (default: .repro-cache)")
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-benchmark attempt timeout in seconds (default: none)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry a failing benchmark this many times before quarantine",
    )
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="quarantine failing benchmarks and report the rest "
        "instead of aborting the suite",
    )
    p.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="write the completion/quarantine manifest as JSON",
    )
    _add_observability_args(p)

    p = sub.add_parser(
        "chaos", help="inject a fault plan and assert the defense contract"
    )
    p.add_argument(
        "--plan",
        default=None,
        metavar="FILE",
        help="fault plan JSON (default: the built-in one-of-every-kind "
        "smoke plan at --seed)",
    )
    p.add_argument(
        "--workload",
        default="nginx",
        choices=_ProfileNames(),
        metavar="BENCHMARK",
        help="workload to run under faults (default: nginx, the "
        "profile with live heap traffic)",
    )
    p.add_argument("--seed", type=int, default=2024)
    _add_interpreter_arg(p)
    p.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="write the full chaos manifest (cases, violations, triage) as JSON",
    )
    _add_observability_args(p)

    p = sub.add_parser(
        "campaign",
        help="fuzz attack families over every scheme and emit the "
        "defense-coverage matrix",
    )
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument(
        "--budget",
        type=int,
        default=200,
        help="total mutants, spread over the families (default: 200)",
    )
    p.add_argument(
        "--families",
        default=None,
        metavar="NAME[,NAME...]",
        help="comma-separated attack families (default: all scenarios, "
        "incl. the related-work families pac_reuse, call_bend, heap_cross)",
    )
    p.add_argument(
        "--matrix-out",
        default=None,
        metavar="FILE",
        help="write the scheme x family coverage matrix as JSON",
    )
    p.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="write the full campaign manifest (runs, minimized "
        "bypasses, triage) as JSON",
    )
    p.add_argument(
        "--no-reduce",
        action="store_true",
        help="skip ddmin minimization of bypass exemplars",
    )
    _add_observability_args(p)

    p = sub.add_parser(
        "profile", help="execute under the profiler and print hot spots"
    )
    p.add_argument("source")
    p.add_argument("--name", default="module")
    p.add_argument("--scheme", choices=SCHEMES, default=DEFAULT_SCHEME)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument(
        "--input", action="append", help="queue a benign input line (repeatable)"
    )
    _add_interpreter_arg(
        p,
        help="CPU backend (default: block, the tier with per-block attribution)",
    )
    p.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows per hot-spot table (default: 10)",
    )
    p.add_argument(
        "--profile-out",
        default=None,
        metavar="FILE",
        help="also write the report as JSON (feeds run/bench --profile-in)",
    )

    p = sub.add_parser("scenarios", help="list the built-in attack scenarios")

    p = sub.add_parser(
        "serve",
        help="persistent compile-and-execute daemon over a local socket",
    )
    p.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="Unix-domain socket path (default: .repro-serve.sock)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=None,
        help="listen on loopback TCP instead of a Unix socket",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=max(2, min(4, os.cpu_count() or 2)),
        help="persistent worker processes; requests shard across them "
        "by content digest (default: min(4, CPUs), at least 2)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-request worker timeout in seconds; 0 disables "
        "(default: 60)",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to let in-flight requests finish on shutdown "
        "(default: 30)",
    )
    p.add_argument(
        "--max-modules",
        type=int,
        default=32,
        help="warm-registry capacity per worker, in distinct modules "
        "(default: 32)",
    )
    _add_cache_args(
        p,
        help="shared on-disk compilation cache (default: .repro-cache)",
        cache="on-disk compilation cache",
    )
    p.add_argument(
        "--debug-ops",
        action="store_true",
        help="enable the test-only _debug_crash op (crash containment "
        "drills)",
    )
    p.add_argument(
        "--slo",
        default=None,
        metavar="FILE",
        help="SLO policy JSON; enables the background burn-rate "
        "evaluator (emits slo-breach events)",
    )
    _add_observability_args(p)

    p = sub.add_parser(
        "loadgen",
        help="fire a seeded nginx-style request mix at a serve daemon",
    )
    p.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="daemon socket path (default: .repro-serve.sock)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=None,
        help="connect over loopback TCP instead of a Unix socket",
    )
    p.add_argument(
        "--requests",
        type=int,
        default=200,
        help="requests in the mix (default: 200)",
    )
    p.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="concurrent client connections (default: 8)",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="keep cycling the mix for this many seconds instead of "
        "sending it once",
    )
    p.add_argument(
        "--mix",
        default=None,
        metavar="OP=W[,OP=W...]",
        help="op weights (default: run=6,compile=3,attack=2,profile=1)",
    )
    p.add_argument(
        "--variants",
        type=int,
        default=3,
        help="distinct generated programs in the working set (default: 3)",
    )
    p.add_argument(
        "--size",
        default="3s",
        choices=("3s", "30s", "300s"),
        help="nginx workload size per request (default: 3s)",
    )
    _add_interpreter_arg(
        p,
        default="block",
        help="interpreter requested for run/profile ops (default: block)",
    )
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument(
        "--connect-wait",
        type=float,
        default=10.0,
        help="seconds to wait for the daemon to answer ping (default: 10)",
    )
    p.add_argument(
        "--max-p99-ms",
        type=float,
        default=None,
        help="fail (exit 2) when overall p99 latency exceeds this bound",
    )
    p.add_argument(
        "--report-out",
        default=None,
        metavar="FILE",
        help="write the latency/throughput report as JSON",
    )
    p.add_argument(
        "--events-out",
        default=None,
        metavar="FILE",
        help="pull the daemon's security-event ring (events op) and "
        "write it as repro-events-v1 JSON lines",
    )

    p = sub.add_parser(
        "top",
        help="live terminal dashboard over a running serve daemon",
    )
    p.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="daemon socket path (default: .repro-serve.sock)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=None,
        help="connect over loopback TCP instead of a Unix socket",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    p.add_argument(
        "--frames",
        type=int,
        default=None,
        help="stop after this many refreshes (default: until Ctrl-C)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (no screen clearing)",
    )

    p = sub.add_parser(
        "audit",
        help="offline security summary of a repro-events-v1 file",
    )
    p.add_argument("events", help="path to an --events-out JSON-lines file")
    p.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the full audit digest as JSON",
    )

    return parser


def _fail(exc: BaseException, code: int) -> int:
    """One-line diagnostic to stderr, never a traceback."""
    message = str(exc) or type(exc).__name__
    first = message.splitlines()[0]
    rest = len(message.splitlines()) - 1
    if rest > 0:
        first += f" (+{rest} more)"
    print(f"repro: error: {first}", file=sys.stderr)
    return code


def _dispatch(args: argparse.Namespace) -> int:
    command = _COMMANDS.get(args.command)
    if command is None:
        from . import commands

        command = getattr(commands, f"cmd_{args.command}")
    try:
        return command(args)
    except _FRONTEND_ERRORS as exc:
        return _fail(exc, EXIT_CODES["frontend"])
    except VerificationError as exc:
        return _fail(exc, EXIT_CODES["verify"])
    except ReproError as exc:
        return _fail(exc, exc.exit_code)
    except FileNotFoundError as exc:
        return _fail(exc, EXIT_CODES["io"])
    except OSError as exc:
        return _fail(exc, EXIT_CODES["io"])


def _export_observability(
    trace_out: Optional[str],
    metrics_out: Optional[str],
    events_out: Optional[str] = None,
) -> int:
    """Write ``--trace-out``/``--metrics-out``/``--events-out``; 0 on success.

    Runs even when the command itself failed, so a crashing suite still
    leaves its partial trace, counters, and events behind for triage.
    """
    try:
        if trace_out:
            write_trace(trace_out, current_tracer().events)
            print(f"trace written to {trace_out}", file=sys.stderr)
        if metrics_out:
            write_metrics(metrics_out, get_metrics().snapshot())
            print(f"metrics written to {metrics_out}", file=sys.stderr)
        if events_out:
            count = write_events(events_out, get_event_log().snapshot())
            print(
                f"{count} event(s) written to {events_out}", file=sys.stderr
            )
    except OSError as exc:
        return _fail(exc, EXIT_CODES["io"])
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    events_out = getattr(args, "events_out", None)
    reset_metrics()
    reset_event_log()
    if trace_out:
        enable_tracing()
    try:
        code = _dispatch(args)
        export_code = _export_observability(trace_out, metrics_out, events_out)
        return code if code != 0 else export_code
    finally:
        disable_tracing()
