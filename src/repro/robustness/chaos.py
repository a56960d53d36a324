"""Chaos harness: run workloads under a fault plan, assert containment.

Pythia's security argument is about what happens when state is
*corrupted*: a tampered signed pointer must die at authentication, a
foreign write must be flagged by DFI, a rotten cache entry must be
silently recompiled -- never served.  This module turns that argument
into an executable check.  Each spec of a :class:`FaultPlan` becomes
one **chaos case**: a fresh execution (or cache exercise) with exactly
that fault armed, classified against the defense contract:

=================  ==================================================
fault kind         required containment
=================  ==================================================
``pac.bits``       execution status ``pac_trap``
``pac.key``        execution status ``pac_trap``
``pac.reuse``      execution status ``pac_trap`` (the replayed value's
                   MAC is genuine; the *modifier* mismatch must trap)
``dfi.shadow``     execution status ``dfi_trap``
``heap.cross``     execution status ``section_trap`` (the secure
                   allocator's section check must catch the misroute)
``cache.*``        miss / cache-off and a recompile, never a wrong or
                   half-written module served
``mem.flip``,      no strict contract (arbitrary data corruption /
``alloc.header``,  control-flow bending); any trap, fault, divergence,
``call.retarget``  or benign outcome is recorded -- only an *uncaught
                   Python exception* is a bug
=================  ==================================================

Anything outside its contract -- and any uncaught exception anywhere --
lands in a triage bucket (:mod:`repro.robustness.triage`).  Reports are
deterministic: the same plan and seed yield the same fault sites,
classifications, and buckets, which ``python -m repro chaos`` and the
CI smoke job rely on.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.config import DEFAULT_SCHEME, DefenseConfig
from ..core.framework import protect_all
from ..hardware.oracle import tier_cpu
from ..ir.printer import print_module
from ..observability import current_tracer, get_event_log, get_metrics
from ..perf.cache import CompilationCache
from ..workloads.generator import generate_program
from ..workloads.profiles import get_profile
from .faults import FaultInjector, FaultPlan, FaultSpec
from .triage import CrashRecord, TriageReport, record_crash, triage

#: Scheme under which each execution-layer fault kind runs: PAC faults
#: need signed pointers (cpa signs every protected access), DFI faults
#: need an instrumented definitions table, raw corruption runs under
#: the full Pythia defense.
EXECUTION_SCHEME: Dict[str, str] = {
    "pac.bits": "cpa",
    "pac.key": "cpa",
    "pac.reuse": "cpa",
    "dfi.shadow": "dfi",
    "mem.flip": "pythia",
    "alloc.header": "pythia",
    "call.retarget": "vanilla",
    "heap.cross": "pythia",
}

#: Execution status required for strict-contract kinds.
CONTRACT_STATUS: Dict[str, str] = {
    "pac.bits": "pac_trap",
    "pac.key": "pac_trap",
    "pac.reuse": "pac_trap",
    "dfi.shadow": "dfi_trap",
    "heap.cross": "section_trap",
}

CACHE_KINDS = ("cache.corrupt", "cache.truncate", "cache.oserror")

#: Kinds whose contract is strict: anything but ``contained`` is a
#: violation.  The corruption kinds only forbid uncaught exceptions.
STRICT_KINDS = tuple(CONTRACT_STATUS) + CACHE_KINDS


@dataclass(frozen=True)
class ChaosCase:
    """One fault spec's run, classified.

    ``classification`` is one of ``contained`` (the contract held),
    ``detected`` (a different defense trap fired), ``faulted`` (memory
    fault / OOM / step limit), ``benign`` (ran clean, output identical
    to the fault-free baseline), ``diverged`` (ran clean but output
    changed -- a silent wrong answer), ``not-triggered`` (the trigger
    was never reached), or ``unexpected`` (an uncaught exception; see
    the triage report).
    """

    index: int
    kind: str
    scheme: str
    classification: str
    status: str
    detail: str
    events: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "kind": self.kind,
            "scheme": self.scheme,
            "classification": self.classification,
            "status": self.status,
            "detail": self.detail,
            "events": list(self.events),
        }


@dataclass
class ChaosReport:
    """Every case of one chaos run plus the triage of its crashes."""

    plan: FaultPlan
    workload: str
    seed: int
    cases: List[ChaosCase] = field(default_factory=list)
    crashes: List[CrashRecord] = field(default_factory=list)

    @property
    def triage(self) -> TriageReport:
        return triage(self.crashes)

    def contract_violations(self) -> List[ChaosCase]:
        """Cases that broke their defense contract.

        Strict kinds must be ``contained``; every kind forbids
        ``unexpected``.  A strict fault that never fired is also a
        violation -- an untriggered fault proves nothing.
        """
        return [
            case
            for case in self.cases
            if case.classification == "unexpected"
            or (case.kind in STRICT_KINDS and case.classification != "contained")
        ]

    @property
    def ok(self) -> bool:
        return not self.contract_violations()

    def signature(self) -> Tuple[Tuple[str, str, str, Tuple[str, ...]], ...]:
        """The determinism artifact: identical for same seed + plan."""
        return tuple(
            (case.kind, case.classification, case.status, case.events)
            for case in self.cases
        )

    def to_manifest(self) -> Dict[str, object]:
        """JSON-able manifest (the CI chaos job uploads this)."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "plan": [spec.to_dict() for spec in self.plan.specs],
            "cases": [case.to_dict() for case in self.cases],
            "violations": [case.to_dict() for case in self.contract_violations()],
            "triage": self.triage.to_dict(),
            "ok": self.ok,
        }

    def summary_lines(self) -> List[str]:
        lines = []
        for case in self.cases:
            lines.append(
                f"  [{case.index}] {case.kind:14s} {case.scheme:8s} "
                f"{case.classification:13s} status={case.status:10s} {case.detail}"
            )
        return lines


def _classify_execution(
    kind: str, result, baseline, events: Tuple[str, ...]
) -> Tuple[str, str]:
    """Classify one faulty execution against its contract and baseline."""
    if not events:
        return "not-triggered", "fault trigger was never reached"
    required = CONTRACT_STATUS.get(kind)
    if required is not None and result.status == required:
        return "contained", f"trapped as required ({result.trap})"
    if result.status == "ok":
        if result.output == baseline.output and (
            result.return_value == baseline.return_value
        ):
            return "benign", "ran clean, output identical to baseline"
        return "diverged", "ran clean but output differs from baseline"
    if result.detected:
        return "detected", f"defense trap {result.status} ({result.trap})"
    return "faulted", f"{result.status} ({result.trap})"


def _run_execution_case(
    index: int,
    spec: FaultSpec,
    plan: FaultPlan,
    protected_module,
    baseline,
    inputs,
    seed: int,
    interpreter: Optional[str],
) -> Tuple[ChaosCase, Optional[CrashRecord]]:
    scheme = EXECUTION_SCHEME[spec.kind]
    injector = FaultInjector(plan, only=index)
    task = f"chaos[{index}]:{spec.kind}"
    try:
        cpu = tier_cpu(protected_module, interpreter, seed=seed)
        injector.arm(cpu)
        result = cpu.run(inputs=list(inputs))
    except Exception as exc:  # an uncaught interpreter bug: triage it
        record = record_crash(task, exc)
        case = ChaosCase(
            index,
            spec.kind,
            scheme,
            "unexpected",
            "crash",
            f"uncaught {record.exc_type}: {record.message}",
            injector.event_log(),
        )
        return case, record
    classification, detail = _classify_execution(
        spec.kind, result, baseline, injector.event_log()
    )
    return (
        ChaosCase(
            index,
            spec.kind,
            scheme,
            classification,
            result.status,
            detail,
            injector.event_log(),
        ),
        None,
    )


def _run_cache_case(
    index: int,
    spec: FaultSpec,
    plan: FaultPlan,
    module_text: str,
    protected_text: str,
    cache_root: str,
) -> Tuple[ChaosCase, Optional[CrashRecord]]:
    """Exercise the compilation cache with one injected I/O fault.

    The contract for every cache kind is the same: the fault must
    surface as a miss (forcing a silent recompile) or as cache-off --
    never as a served wrong module and never as an exception.
    """
    injector = FaultInjector(plan, only=index)
    task = f"chaos[{index}]:{spec.kind}"
    try:
        cache = CompilationCache(cache_root)
        key = cache.key_for(module_text, DefenseConfig())
        if spec.kind == "cache.corrupt":
            # Prime a clean entry, then read it back through the fault.
            cache.store(key, DEFAULT_SCHEME, protected_text, {})
            cache.fault_hook = injector
            loaded = cache.load(key)
            if not injector.fired:
                classification, detail = "not-triggered", "no cache load fired"
            elif loaded is None and cache.stats.corrupt == 1:
                classification, detail = "contained", "corrupt entry rejected; miss"
            elif loaded is not None and loaded["module"] == protected_text:
                classification, detail = "benign", "corruption did not take"
            else:
                classification, detail = "diverged", "corrupt entry was served"
        else:
            cache.fault_hook = injector
            cache.store(key, DEFAULT_SCHEME, protected_text, {})
            loaded = cache.load(key)
            served_wrong = loaded is not None and loaded["module"] != protected_text
            if not injector.fired:
                classification, detail = "not-triggered", "no cache store fired"
            elif served_wrong:
                classification, detail = "diverged", "damaged entry was served"
            elif spec.kind == "cache.oserror":
                if cache.disabled and cache.stats.io_errors >= 1:
                    classification, detail = (
                        "contained",
                        "store failed; degraded to cache-off",
                    )
                else:
                    classification, detail = "diverged", "OSError not absorbed"
            else:  # cache.truncate
                classification, detail = (
                    "contained",
                    "truncated entry rejected; miss",
                )
        status = "cache-off" if cache.disabled else "miss" if loaded is None else "hit"
    except Exception as exc:  # cache layer let an error escape: a bug
        record = record_crash(task, exc)
        case = ChaosCase(
            index,
            spec.kind,
            "-",
            "unexpected",
            "crash",
            f"uncaught {record.exc_type}: {record.message}",
            injector.event_log(),
        )
        return case, record
    return (
        ChaosCase(
            index, spec.kind, "-", classification, status, detail, injector.event_log()
        ),
        None,
    )


#: Default chaos workload: the only profile with live heap traffic,
#: so allocator-metadata faults actually trigger.
DEFAULT_WORKLOAD = "nginx"


def run_chaos(
    plan: FaultPlan,
    workload: str = DEFAULT_WORKLOAD,
    seed: int = 2024,
    interpreter: Optional[str] = None,
) -> ChaosReport:
    """Run ``workload`` once per fault spec and classify every outcome.

    Each spec runs in isolation (``FaultInjector(plan, only=index)``)
    so a fault is attributable to its own case, while its derived
    randomness stays tied to its index in the full plan -- running a
    spec alone or with siblings injects the identical fault.
    """
    report = ChaosReport(plan=plan, workload=workload, seed=seed)
    program = generate_program(get_profile(workload))
    module = program.compile()
    module_text = print_module(module)

    needed = {
        EXECUTION_SCHEME[spec.kind]
        for spec in plan.specs
        if spec.kind in EXECUTION_SCHEME
    }
    cache_specs = [spec for spec in plan.specs if spec.kind in CACHE_KINDS]
    if cache_specs:
        needed.add(DEFAULT_SCHEME)
    protections = protect_all(module, schemes=tuple(sorted(needed)), consume=True)
    baselines = {
        scheme: tier_cpu(result.module, interpreter, seed=seed).run(
            inputs=list(program.inputs)
        )
        for scheme, result in protections.items()
    }
    protected_text = (
        print_module(protections[DEFAULT_SCHEME].module) if cache_specs else ""
    )

    tracer = current_tracer()
    metrics = get_metrics()
    event_log = get_event_log()
    for index, spec in enumerate(plan.specs):
        with tracer.span(f"chaos:{spec.kind}", "chaos", index=index):
            if spec.kind in CACHE_KINDS:
                with tempfile.TemporaryDirectory(
                    prefix="repro-chaos-cache-"
                ) as root:
                    case, crash = _run_cache_case(
                        index, spec, plan, module_text, protected_text, root
                    )
            else:
                scheme = EXECUTION_SCHEME[spec.kind]
                case, crash = _run_execution_case(
                    index,
                    spec,
                    plan,
                    protections[scheme].module,
                    baselines[scheme],
                    program.inputs,
                    seed,
                    interpreter,
                )
            for event in case.events:
                tracer.instant("fault", "chaos", kind=spec.kind, site=event)
                event_log.emit(
                    "fault-injected",
                    scheme=case.scheme if case.scheme != "-" else None,
                    kind=spec.kind,
                    site=event,
                    case=index,
                )
            if case.status.endswith("_trap"):
                # A defense trap absorbed the fault: the same record a
                # serve worker emits for a detected attack.  (Cache
                # containment is covered by the cache layer's own
                # cache-corrupt-recompile events.)
                event_log.emit(
                    "trap",
                    scheme=case.scheme if case.scheme != "-" else None,
                    status=case.status,
                    kind=spec.kind,
                    case=index,
                )
        metrics.inc("chaos.cases")
        metrics.inc("chaos.faults_fired", len(case.events))
        metrics.inc(f"chaos.classification.{case.classification}")
        report.cases.append(case)
        if crash is not None:
            report.crashes.append(crash)
    return report
