"""Attack-campaign fuzzer: mutate adversaries, matrix the defenses.

The scenario suite (:mod:`repro.attacks.scenarios`) replays the paper's
fixed exploit listings; this module stress-tests the defense *contract*
under whole families of adversaries derived from them.  A campaign is
seeded and fully deterministic: every mutant is derived from
``Random(f"{seed}:{family}:{index}")``, every armed fault from the PR 3
:class:`~repro.robustness.faults.FaultPlan` machinery, and the
artifacts (coverage matrix, bypass manifest) contain no wall-clock
state -- two runs with the same seed and budget are byte-identical.

Attack families
---------------

Each family wraps one victim scenario.  The six paper families mutate
the exploit payload and its injection site; the three related-work
families additionally arm a family-specific fault channel:

===============  =========================================================
family           adversary
===============  =========================================================
``pac_reuse``    signed-pointer reuse/substitution (PACStack): an armed
                 ``pac.reuse`` fault captures the Nth signed value and
                 replays it at a later authentication, on top of the
                 payload that splices signed slots
``call_bend``    indirect-call operand corruption: the payload bends the
                 dispatch selector; injection-site timing is mutated
                 across the router's three input reads
``heap_cross``   cross-heap-section confusion: an armed ``heap.cross``
                 fault misroutes the Nth isolated allocation into the
                 shared arena, on top of the adjacent-chunk overflow
(others)         the paper's listings under payload/site mutation
===============  =========================================================

Outcome taxonomy
----------------

``trapped``
    a defense trap fired (``pac_trap`` / ``canary_trap`` / ``dfi_trap``
    / ``section_trap``).
``detected``
    the adversary acted but was defeated without a trap: the run ended
    in a fault / OOM / step limit, or ran to completion without
    reaching the attack goal (isolation, divergence, absorbed payload).
``bypassed``
    the run completed OK and the scenario's success marker appeared --
    the defense was defeated.
``crashed``
    an uncaught Python exception: an interpreter/compiler bug, bucketed
    by triage fingerprint.
``missed``
    neither the payload nor the armed fault ever fired (mutated
    injection site out of range); proves nothing about the defense.

Every mutant runs under all four schemes and all three compiled
interpreter tiers (decoded / block / trace); tier disagreement is
recorded as a contract violation.  Every ``bypassed`` cell is bucketed,
and one exemplar per bucket is auto-minimized with the ddmin reducer to
a minimal still-bypassing victim source.

The defense contract asserted by :meth:`CampaignReport.contract_violations`
is scoped to the three related-work families: any mutant of those that
bypasses vanilla must be trapped or detected by **both** pythia and dfi.
(The paper families have documented blind spots -- e.g. DFI's
field-insensitivity on ``proftpd_leak`` -- that the scenario matrix
already pins down.)
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..attacks.controller import AttackController
from ..attacks.scenarios import Scenario, build_scenarios
from ..core.config import BASELINE, SCHEMES
from ..core.framework import protect, protect_all
from ..frontend.driver import compile_source
from ..hardware.cpu import CPU
from ..hardware.oracle import observables, tier_cpu
from ..observability import current_tracer, get_event_log, get_metrics
from .faults import FaultInjector, FaultPlan, FaultSpec
from .reduce import reduce_source
from .triage import CrashRecord, TriageReport, record_crash, triage

#: Interpreter tiers every mutant is executed under; the first is the
#: canonical one whose result is classified (the others must agree).
TIERS = ("decoded", "block", "trace")

#: Family -> fault kind armed alongside the payload.  Only the
#: related-work families carry a fault channel; ``call.retarget`` is a
#: chaos-substrate probe, not a data attack, so ``call_bend`` bends the
#: dispatch *operand* through its payload instead.
FAMILY_FAULTS: Dict[str, str] = {
    "pac_reuse": "pac.reuse",
    "heap_cross": "heap.cross",
}

#: The three related-work families the defense contract is scoped to.
NEW_FAMILIES = ("pac_reuse", "call_bend", "heap_cross")

#: The schemes that must stop every baseline bypass of those families.
CONTRACT_SCHEMES = ("pythia", "dfi")

OUTCOMES = ("trapped", "detected", "bypassed", "crashed", "missed")

#: ddmin budget per bypass-bucket exemplar: predicates compile and run
#: the candidate, so the cap bounds campaign latency, not correctness.
REDUCE_MAX_TESTS = 200

_PAYLOAD_OPS = (
    "keep",
    "keep",  # weighted: the unmutated exploit stays common
    "grow",
    "shrink",
    "flip",
    "value",
    "spray",
)


@dataclass(frozen=True)
class Mutant:
    """One deterministic point in the mutation space.

    All randomness is resolved at construction (from the campaign
    seed), never at payload-render time, so the same mutant delivers
    byte-identical payloads under every scheme and tier.
    """

    family: str
    index: int
    payload_op: str
    #: operand of the payload op (pad bytes, bit position, spray length)
    amount: int
    #: planted 64-bit value for the ``value`` op
    planted: int
    #: which occurrence of the input channel the payload fires at
    occurrence: int
    #: trigger of the armed family fault (unused for fault-free families)
    trigger: int

    @property
    def name(self) -> str:
        return f"{self.family}[{self.index}]"

    def describe(self) -> str:
        return (
            f"{self.name} op={self.payload_op}/{self.amount} "
            f"occ={self.occurrence} trigger={self.trigger}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "index": self.index,
            "payload_op": self.payload_op,
            "amount": self.amount,
            "planted": self.planted,
            "occurrence": self.occurrence,
            "trigger": self.trigger,
        }


def make_mutant(seed: int, family: str, index: int) -> Mutant:
    """Derive mutant ``index`` of ``family`` from the campaign seed.

    Index 0 is pinned to the scenario's documented exploit verbatim
    (no payload op, canonical injection site and trigger), so every
    campaign -- whatever its seed -- contains the baseline attack and
    the vanilla-bypass anchor the defense contract reasons from.
    """
    if index == 0:
        return Mutant(
            family=family,
            index=0,
            payload_op="keep",
            amount=0,
            planted=0,
            occurrence=1,
            trigger=1,
        )
    rng = random.Random(f"{seed}:{family}:{index}")
    op = rng.choice(_PAYLOAD_OPS)
    amount = {
        "keep": 0,
        "grow": rng.randrange(1, 17),
        "shrink": rng.randrange(1, 9),
        "flip": rng.randrange(0, 512),
        "value": 0,
        "spray": rng.randrange(8, 97),
    }[op]
    planted = rng.randrange(2, 1 << 31) if op == "value" else 0
    occurrence = rng.randrange(1, 4) if rng.random() < 0.25 else 1
    trigger = rng.randrange(1, 4)
    return Mutant(
        family=family,
        index=index,
        payload_op=op,
        amount=amount,
        planted=planted,
        occurrence=occurrence,
        trigger=trigger,
    )


def mutate_payload(data: bytes, mutant: Mutant) -> bytes:
    """Apply the mutant's byte-level operator to a rendered payload."""
    op, amount = mutant.payload_op, mutant.amount
    if op == "grow":
        return data + b"A" * amount
    if op == "shrink":
        return data[: max(1, len(data) - amount)] if data else data
    if op == "flip":
        if not data:
            return data
        bit = amount % (len(data) * 8)
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        return bytes(flipped)
    if op == "value":
        planted = mutant.planted.to_bytes(8, "little")
        return data[:-8] + planted if len(data) >= 8 else planted
    if op == "spray":
        return b"A" * amount
    return data


def build_attack(scenario: Scenario, mutant: Mutant) -> AttackController:
    """The scenario's exploit, mutated: same channel, altered payload
    and injection site."""
    base = scenario.make_attack()
    controller = AttackController()
    for injection in base.injections:

        def payload(cpu, _injection=injection):
            return mutate_payload(_injection.render(cpu), mutant)

        controller.add(injection.channel, payload, occurrence=mutant.occurrence)
    return controller


def fault_plan_for(seed: int, mutant: Mutant) -> Optional[FaultPlan]:
    """The family fault armed for this mutant, if the family has one."""
    kind = FAMILY_FAULTS.get(mutant.family)
    if kind is None:
        return None
    plan_seed = random.Random(f"{seed}:{mutant.name}:plan").randrange(1 << 31)
    return FaultPlan(
        seed=plan_seed, specs=(FaultSpec(kind, trigger=mutant.trigger),)
    )


@dataclass(frozen=True)
class MutantRun:
    """One (mutant, scheme) cell: the classified canonical-tier result."""

    mutant: Mutant
    scheme: str
    outcome: str
    status: str
    detail: str
    #: fired fault/injection sites, in order (the determinism artifact)
    events: Tuple[str, ...]
    tier_mismatch: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "mutant": self.mutant.to_dict(),
            "scheme": self.scheme,
            "outcome": self.outcome,
            "status": self.status,
            "detail": self.detail,
            "events": list(self.events),
            "tier_mismatch": self.tier_mismatch,
        }


@dataclass(frozen=True)
class BypassRecord:
    """One defense bypass, with its minimized reproducer (exemplars)."""

    bucket: str
    mutant: Mutant
    scheme: str
    reduced_source: str = ""
    original_lines: int = 0
    reduced_lines: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "bucket": self.bucket,
            "mutant": self.mutant.to_dict(),
            "scheme": self.scheme,
            "reduced_source": self.reduced_source,
            "original_lines": self.original_lines,
            "reduced_lines": self.reduced_lines,
        }


@dataclass
class CampaignReport:
    """Everything one campaign produced."""

    seed: int
    budget: int
    families: Tuple[str, ...]
    runs: List[MutantRun] = field(default_factory=list)
    bypasses: List[BypassRecord] = field(default_factory=list)
    crashes: List[CrashRecord] = field(default_factory=list)

    @property
    def triage(self) -> TriageReport:
        return triage(self.crashes)

    def matrix(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """scheme -> family -> outcome -> count (all cells present)."""
        table: Dict[str, Dict[str, Dict[str, int]]] = {
            scheme: {
                family: {outcome: 0 for outcome in OUTCOMES}
                for family in sorted(self.families)
            }
            for scheme in SCHEMES
        }
        for run in self.runs:
            table[run.scheme][run.mutant.family][run.outcome] += 1
        return table

    def contract_violations(self) -> List[Dict[str, object]]:
        """Mutants of the related-work families that defeat the paper.

        A mutant that bypasses vanilla (the vulnerability is real) must
        be trapped or detected by both pythia and dfi; any tier
        disagreement is also a violation.
        """
        by_mutant: Dict[str, Dict[str, MutantRun]] = {}
        for run in self.runs:
            by_mutant.setdefault(run.mutant.name, {})[run.scheme] = run
        violations: List[Dict[str, object]] = []
        for name in sorted(by_mutant):
            cells = by_mutant[name]
            for run in cells.values():
                if run.tier_mismatch:
                    violations.append(
                        {
                            "mutant": name,
                            "scheme": run.scheme,
                            "reason": f"tier mismatch: {run.tier_mismatch}",
                        }
                    )
            family = next(iter(cells.values())).mutant.family
            if family not in NEW_FAMILIES:
                continue
            baseline = cells.get(BASELINE)
            if baseline is None or baseline.outcome != "bypassed":
                continue
            for scheme in CONTRACT_SCHEMES:
                run = cells.get(scheme)
                if run is not None and run.outcome not in (
                    "trapped",
                    "detected",
                ):
                    violations.append(
                        {
                            "mutant": name,
                            "scheme": scheme,
                            "reason": (
                                f"vanilla bypass not stopped: {run.outcome} "
                                f"({run.detail})"
                            ),
                        }
                    )
        return violations

    @property
    def ok(self) -> bool:
        return not self.contract_violations() and not self.crashes

    def bypass_buckets(self) -> Dict[str, List[BypassRecord]]:
        buckets: Dict[str, List[BypassRecord]] = {}
        for record in self.bypasses:
            buckets.setdefault(record.bucket, []).append(record)
        return buckets

    def matrix_manifest(self) -> Dict[str, object]:
        """The coverage-matrix artifact (JSON-able, wall-clock free)."""
        return {
            "schema": "repro-campaign-matrix-v1",
            "seed": self.seed,
            "budget": self.budget,
            "families": sorted(self.families),
            "schemes": list(SCHEMES),
            "outcomes": list(OUTCOMES),
            "matrix": self.matrix(),
        }

    def to_manifest(self) -> Dict[str, object]:
        """The full campaign manifest: runs, bypasses, crashes, verdict."""
        return {
            "schema": "repro-campaign-v1",
            "seed": self.seed,
            "budget": self.budget,
            "families": sorted(self.families),
            "matrix": self.matrix(),
            "runs": [run.to_dict() for run in self.runs],
            "bypasses": {
                bucket: [record.to_dict() for record in records]
                for bucket, records in sorted(self.bypass_buckets().items())
            },
            "triage": self.triage.to_dict(),
            "violations": self.contract_violations(),
            "ok": self.ok,
        }

    def render_matrix(self) -> List[str]:
        """The human-readable coverage table."""
        families = sorted(self.families)
        matrix = self.matrix()
        width = max([len("family")] + [len(f) for f in families]) + 2
        header = "family".ljust(width) + "".join(
            scheme.center(18) for scheme in SCHEMES
        )
        lines = [header, "-" * len(header)]
        for family in families:
            cells = []
            for scheme in SCHEMES:
                counts = matrix[scheme][family]
                cells.append(
                    (
                        f"T{counts['trapped']} D{counts['detected']} "
                        f"B{counts['bypassed']} C{counts['crashed']} "
                        f"M{counts['missed']}"
                    ).center(18)
                )
            lines.append(family.ljust(width) + "".join(cells))
        lines.append(
            "T=trapped D=detected B=bypassed C=crashed M=missed "
            "(counts per scheme x family)"
        )
        return lines


def _classify(
    scenario: Scenario, result, any_fired: bool
) -> Tuple[str, str]:
    if result.detected:
        return "trapped", f"defense trap {result.status} ({result.trap})"
    if result.ok and scenario.success_marker in result.output:
        return "bypassed", "attack goal reached"
    if not any_fired:
        return "missed", "neither payload nor fault ever fired"
    if result.ok:
        return "detected", "ran clean; attack goal not reached"
    return "detected", f"defeated without a trap: {result.status} ({result.trap})"


def _run_one(
    scenario: Scenario,
    module,
    mutant: Mutant,
    plan: Optional[FaultPlan],
    seed: int,
    interpreter: str,
):
    """One execution: fresh controller and injector per tier run."""
    controller = build_attack(scenario, mutant)
    cpu = tier_cpu(module, interpreter, seed=seed, attack=controller)
    injector = None
    if plan is not None:
        injector = FaultInjector(plan)
        injector.arm(cpu)
    result = cpu.run(inputs=list(scenario.benign_inputs))
    events = list(controller.log)
    if injector is not None:
        events.extend(injector.event_log())
    fired = controller.any_fired or (injector is not None and injector.fired)
    return result, tuple(events), fired


def _bypass_predicate(
    scenario: Scenario, mutant: Mutant, scheme: str, seed: int
) -> Callable[[str], bool]:
    """Candidate source still bypasses ``scheme`` under this mutant."""

    def predicate(candidate: str) -> bool:
        try:
            module = compile_source(candidate, name=scenario.name)
            protected = protect(module, scheme=scheme).module
            controller = build_attack(scenario, mutant)
            cpu = CPU(protected, seed=seed, attack=controller)
            result = cpu.run(inputs=list(scenario.benign_inputs))
        except Exception:
            return False
        return result.ok and scenario.success_marker in result.output

    return predicate


def run_campaign(
    seed: int = 2024,
    budget: int = 200,
    families: Optional[Sequence[str]] = None,
    reduce_bypasses: bool = True,
) -> CampaignReport:
    """Run a full campaign: ``budget`` mutants spread over ``families``.

    Each mutant executes under every scheme and every compiled tier.
    The block and trace tiers must agree with the decoded tier on
    every :func:`~repro.hardware.oracle.observables` field and on the
    fired sites; disagreement lands in
    :meth:`CampaignReport.contract_violations`.
    """
    scenarios = build_scenarios()
    if families is None:
        family_names = tuple(sorted(scenarios))
    else:
        family_names = tuple(families)
        for name in family_names:
            if name not in scenarios:
                raise ValueError(
                    f"unknown attack family {name!r}; "
                    f"expected one of {tuple(sorted(scenarios))}"
                )
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    per_family = max(1, budget // len(family_names))
    extra = max(0, budget - per_family * len(family_names))

    report = CampaignReport(seed=seed, budget=budget, families=family_names)
    tracer = current_tracer()
    metrics = get_metrics()
    event_log = get_event_log()
    reduced_buckets: set = set()

    for family_index, family in enumerate(sorted(family_names)):
        scenario = scenarios[family]
        count = per_family + (1 if family_index < extra else 0)
        protections = {
            scheme: result.module
            for scheme, result in protect_all(scenario.compile(), consume=True).items()
        }
        with tracer.span(f"campaign:{family}", "campaign", mutants=count):
            for index in range(count):
                mutant = make_mutant(seed, family, index)
                plan = fault_plan_for(seed, mutant)
                metrics.inc("campaign.mutants")
                for scheme in SCHEMES:
                    run, crash = _run_mutant_cell(
                        scenario,
                        protections[scheme],
                        mutant,
                        plan,
                        seed,
                        scheme,
                    )
                    report.runs.append(run)
                    metrics.inc(f"campaign.outcome.{run.outcome}")
                    metrics.inc(f"campaign.family.{family}.{run.outcome}")
                    if run.outcome in ("trapped", "detected"):
                        event_log.emit(
                            "trap",
                            scheme=scheme,
                            status=run.status,
                            family=family,
                            mutant=mutant.name,
                        )
                    if crash is not None:
                        report.crashes.append(crash)
                    if run.outcome == "bypassed":
                        tracer.instant(
                            "bypass",
                            "campaign",
                            mutant=mutant.name,
                            scheme=scheme,
                        )
                        record = _record_bypass(
                            scenario,
                            mutant,
                            scheme,
                            seed,
                            reduce_bypasses,
                            reduced_buckets,
                        )
                        report.bypasses.append(record)
    return report


def _run_mutant_cell(
    scenario: Scenario,
    module,
    mutant: Mutant,
    plan: Optional[FaultPlan],
    seed: int,
    scheme: str,
) -> Tuple[MutantRun, Optional[CrashRecord]]:
    """Run one (mutant, scheme) under all tiers and classify."""
    results = {}
    try:
        for tier in TIERS:
            results[tier] = _run_one(
                scenario, module, mutant, plan, seed, tier
            )
    except Exception as exc:  # an interpreter/compiler bug: triage it
        crash = record_crash(f"campaign:{mutant.name}:{scheme}", exc)
        return (
            MutantRun(
                mutant=mutant,
                scheme=scheme,
                outcome="crashed",
                status="crash",
                detail=f"uncaught {crash.exc_type}: {crash.message}",
                events=(),
            ),
            crash,
        )
    canonical_result, events, fired = results["decoded"]
    expected = observables(canonical_result)
    mismatch = ""
    for tier in TIERS[1:]:
        other_result, other_events, _ = results[tier]
        got = observables(other_result)
        diverged = [name for name in expected if got[name] != expected[name]]
        if other_events != events:
            diverged.append("events")
        if diverged:
            mismatch = (
                f"{tier}: {other_result.status} vs "
                f"decoded: {canonical_result.status} "
                f"({', '.join(diverged)} diverged)"
            )
            break
    outcome, detail = _classify(scenario, canonical_result, fired)
    return (
        MutantRun(
            mutant=mutant,
            scheme=scheme,
            outcome=outcome,
            status=canonical_result.status,
            detail=detail,
            events=events,
            tier_mismatch=mismatch,
        ),
        None,
    )


def _record_bypass(
    scenario: Scenario,
    mutant: Mutant,
    scheme: str,
    seed: int,
    reduce_bypasses: bool,
    reduced_buckets: set,
) -> BypassRecord:
    """Bucket a bypass; ddmin-minimize the first exemplar per bucket."""
    bucket = f"{scenario.name}:{scheme}:bypass"
    reduced_source = ""
    original_lines = reduced_lines = 0
    if reduce_bypasses and bucket not in reduced_buckets:
        reduced_buckets.add(bucket)
        predicate = _bypass_predicate(scenario, mutant, scheme, seed)
        original = scenario.source
        original_lines = sum(
            1 for line in original.splitlines() if line.strip()
        )
        try:
            reduced_source = reduce_source(
                original, predicate, max_tests=REDUCE_MAX_TESTS
            )
            reduced_lines = sum(
                1 for line in reduced_source.splitlines() if line.strip()
            )
        except ValueError:
            # The bypass does not reproduce outside the tier matrix
            # (it needed an armed fault); keep the unreduced source.
            reduced_source = original
            reduced_lines = original_lines
    return BypassRecord(
        bucket=bucket,
        mutant=mutant,
        scheme=scheme,
        reduced_source=reduced_source,
        original_lines=original_lines,
        reduced_lines=reduced_lines,
    )


def write_matrix(report: CampaignReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.matrix_manifest(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_manifest(report: CampaignReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_manifest(), handle, indent=2, sort_keys=True)
        handle.write("\n")
