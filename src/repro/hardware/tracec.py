"""The compiler of the block and trace tiers: one driver, two policies.

:func:`trace_compile` compiles every defined function of a module from
its decoded program (:mod:`repro.hardware.decoder`) into generated
Python.  Its ``regions`` keyword is the selection policy:

- ``regions=False`` is the block tier (``--interpreter block``): no
  region is selected, so every basic block compiles alone and the
  driver loop in :meth:`CPU._interpret_block` pays one round-trip --
  one Python call, one step-limit guard, two tuple indexings -- per
  dynamic block.
- ``regions=True`` is the trace tier: whole **regions** fuse into one
  generated function each, and the blocks outside every region compile
  exactly as under the block tier.

One emitter, :func:`_gen_region`, writes every generated function.  A
block compiled alone is its base case: a one-block region with no
internal edges, so every edge out of it -- a self-edge included --
returns to the driver, which keeps the block tier's per-block profile
counts exact.  Such a region runs its body once per call, so it
charges the CPU directly and skips the loop machinery below (local
accumulators, method aliases, inline PAC probes, segment guards).

Generated code keeps no opcode histogram and no instruction count.
Each chunk it charges -- a run of ops, or the phis of one edge -- adds
one hit for its composition id (:func:`decoder._chunk_tables`) to the
hit store the driver passes in (``hits``), the decoded loop's own, and
``CPU._fold_chunk_hits`` turns the hits into opcode counts and retired
instructions when ``run()`` returns.  A block compiled alone bumps the
store directly; a region with internal edges counts in one local per
composition and adds them to the store on its way out.

A region is a natural loop (plus the superblock chains hanging off its
header) or, for small functions, the entire function body.  One
generated function per region

- inlines every member block's handler statements, so a loop iteration
  runs without leaving the generated code;
- keeps SSA values whose every read sits inside the region in Python
  *locals* instead of ``frame`` dict slots, including loop-carried
  header phis (pre-loaded from the frame at region entry, routed
  between locals on the back edge);
- loads loop-invariant operands into locals once, in the region
  preamble (the frame copy stays authoritative: nothing re-writes it
  while the region runs);
- routes internal CFG edges with inline parallel assignments and a
  small ``_n`` chain dispatch (direct branches between fused chains
  never return to the driver).

Every return, side exit and step-limit deopt of a region with internal
edges breaks out of its loop to one epilogue, which flushes the local
accumulators and hit counters once; a deopt then spills the live
region locals back to the frame and delegates the rest of the call to
the decoded loop, which raises ``StepLimitExceeded`` at precisely the
right op.  A callee retires steps the entry and segment guards could
not count, so after each call that more ops of its block follow, a
guard hands the rest of the call to the reference tier, from the op
after the call, when those ops would cross the limit
(:func:`_emit_resume_guard`).  The chunk tables and the tail repair of
batched accounting are the decoded loop's own (:mod:`repro.hardware.decoder`); the
traceback-line trap fixup that finds the trapping op is
:func:`blockc._trap_fixup`.  A region carries one
:class:`blockc._BlockMeta` whose op table concatenates all member
blocks, so the same fixup repairs a trapping chunk no matter which
fused block it came from.  A region's entry point is a
:class:`blockc.BlockCode` whose ``blocks`` counts the fused blocks, so
the block drivers dispatch it unchanged.

Region selection is static, a fixed function of the CFG: every
function of at most :data:`WHOLE_FUNCTION_BLOCKS` blocks is one region;
a larger one gets a region per natural loop of at most
:data:`MAX_REGION_BLOCKS` blocks, largest first, dropping loops that
overlap one already chosen.  Inside a region, chains are laid out false
arm first: at a conditional branch the false successor is the
fall-through, then the true one, and chains are seeded in block order,
header first (:func:`_build_chains`).  Programs are cached in the
module's derived-artifact memo (:meth:`repro.ir.module.Module.derived`),
one slot per policy (``"block"``, ``"trace"``).

**Tier-up.**  A :class:`TraceProgram` compiles one function at a time
(:meth:`TraceProgram.compile`).  :func:`trace_compile` compiles every
function still pending; the block tier, a CPU with a ``profiler`` and
the tier-differential harnesses use it.  Any other trace-tier CPU
instead takes the program from :func:`trace_program` with nothing
compiled and tiers functions up:
:meth:`CPU._call` counts the steps each decoded call executes itself
(its callees' steps excluded) on the program's ``steps``, and once a
function's count reaches :data:`TIER_UP_STEPS_PER_INST` times its IR
instruction count, compiles it for its *next* call -- a call already
running stays decoded.  The counters live on the memoized program, so
repeated CPUs on one module converge on compiled code, and
``invalidate_derived()`` resets them.

The constant is the measured break-even: a function pays back its
compile after ~370-400 of its own steps per instruction (pythia
variants, 2-vCPU host, Python 3.11).  A program that runs once --
compile-cold and most of the suite -- then compiles nothing it cannot
amortize.  The known
limit: work inside one long call (a hot loop in ``main``) stays decoded
for the whole call, since compiled code is entered only at a call
boundary; DESIGN.md ("Tier-up") has the measured cost of both sides.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from ..ir.cfg import DominatorTree
from ..ir.function import Function
from ..ir.instructions import (
    Alloca,
    DfiChkDef,
    DfiSetDef,
    Instruction,
    Load,
    PacAuth,
    PacSign,
    Phi,
    Store,
)
from ..ir.module import Module
from ..ir.values import Argument
from .blockc import (
    BlockCode,
    _BlockMeta,
    _FnGen,
    _body_instructions,
    _classify,
    _compare_expr,
    _emit_op,
    _emit_phi_edge,
    _gen_dfi_chk_batch,
    _trap_fixup,
)
from .decoder import (
    BLOCK_RET,
    DecodedBlock,
    DecodedProgram,
    _chunk_tables,
    _spec,
    decode_module,
)
from .errors import CanaryTrap, DfiTrap, NullPointerTrap
from .memory import FAST_MISS, SIZED_CODECS, MemoryFault
from .pac import ADDR_MASK, PAC_BITS, VA_BITS
from .timing import DEFAULT_COSTS

#: Accumulators phi routing charges (issue residue, cycles): region
#: locals, flushed by the epilogue, when the region has internal edges;
#: ``timing``'s own attributes when it has none.
_REGION_ACC = ("_cr", "_cy")
_DIRECT_ACC = ("timing._cheap_run", "timing.cycles")

#: Hard cap on blocks fused into one region; oversized loops are left
#: to the per-block functions rather than truncated (truncation would
#: break the single-entry property region codegen relies on).
MAX_REGION_BLOCKS = 48

#: Functions at or below this many blocks compile as one whole-function
#: region (header = entry), subsuming their loops entirely.
WHOLE_FUNCTION_BLOCKS = 24


#: Tier-up threshold: a function compiles once the steps its decoded
#: calls executed themselves (callees excluded) reach this many per IR
#: instruction of its body.  It is the measured break-even, rounded up:
#: compile cost per instruction over the per-step saving of compiled
#: over decoded code, on the pythia variants (2-vCPU host, Python
#: 3.11.7, median of 21 back-to-back compile/decoded/trace triples per
#: profile, mean of three sessions, one of which shared the host with a
#: test run).  With fused compare-and-branch exits in compiled code it
#: reads 399 (505.mcf_r), 389 (502.gcc_r) and 364 (519.lbm_r), geometric
#: mean ~384; the code before them read 412/425/402 in one of those
#: sessions (~413, and ~418 when first measured), against which 580 had
#: been kept.  No function of a compile-cold program gets near it (at
#: most ~102 own steps per instruction over 192 compile-cold programs,
#: 4 schemes each).
TIER_UP_STEPS_PER_INST = 390


class TraceProgram:
    """All defined functions of one module, compiled under one policy.

    A program starts with nothing compiled: ``pending`` maps every
    defined function to its tier-up threshold, and :meth:`compile`
    moves one function from ``pending`` to ``functions``.
    :func:`trace_compile` compiles every pending function;
    :meth:`CPU._call <repro.hardware.cpu.CPU._call>` feeds :meth:`tick`
    and compiles a function once it is due.

    A block-tier program (``regions=False``) has ``region_count == 0``:
    every entry is a single-block :class:`BlockCode`.
    """

    __slots__ = (
        "functions",
        "compile_seconds",
        "python_compile_seconds",
        "sources",
        "region_count",
        "fused_blocks",
        "steps",
        "pending",
        "_decoded",
        "_regions",
    )

    def __init__(self, decoded: DecodedProgram, regions: bool):
        #: Function -> entry BlockCode (a fused region's when it heads one)
        self.functions: Dict[Function, BlockCode] = {}
        self.compile_seconds = 0.0
        #: the part of compile_seconds spent in CPython's compile()
        self.python_compile_seconds = 0.0
        #: Function -> generated source, kept for debugging
        self.sources: Dict[Function, str] = {}
        self.region_count = 0
        self.fused_blocks = 0
        #: Function -> steps its decoded calls executed, callees excluded
        self.steps: Dict[Function, int] = dict.fromkeys(decoded.functions, 0)
        #: Function -> tier-up threshold, for every function not compiled
        self.pending: Dict[Function, int] = {
            function: TIER_UP_STEPS_PER_INST
            * sum(len(block.instructions) for block in function.blocks)
            for function in decoded.functions
        }
        self._decoded = decoded
        self._regions = regions

    def tick(self, function: Function, steps: int) -> bool:
        """Count ``steps`` of a decoded call; true once it is due to compile."""
        total = self.steps[function] = self.steps[function] + steps
        due = self.pending.get(function)
        return due is not None and total >= due

    def compile(self, function: Function) -> float:
        """Compile one pending function; returns the seconds it took."""
        start = time.perf_counter()
        decoded = self._decoded
        code, source, nregions, fused, python_seconds = _compile_function(
            function,
            decoded.functions[function],
            decoded.global_layout,
            self._regions,
        )
        del self.pending[function]
        self.functions[function] = code
        self.sources[function] = source
        self.region_count += nregions
        self.fused_blocks += fused
        self.python_compile_seconds += python_seconds
        elapsed = time.perf_counter() - start
        self.compile_seconds += elapsed
        return elapsed

    def compile_pending(self) -> float:
        """Compile every pending function; returns the seconds it took."""
        seconds = 0.0
        for function in list(self.pending):
            seconds += self.compile(function)
        return seconds


class _Region:
    """One region before code generation: a selected one, or one block."""

    __slots__ = ("header", "blocks", "ids", "chains", "head_index", "internal")

    def __init__(self, header: DecodedBlock, blocks: List[DecodedBlock]):
        self.header = header
        self.blocks = blocks
        self.ids: Set[int] = {id(b) for b in blocks}
        #: superblock chains; chain 0 starts at the header
        self.chains: List[List[DecodedBlock]] = []
        #: id(chain head) -> chain number, the ``_n`` dispatch table
        self.head_index: Dict[int, int] = {}
        #: whether some edge stays inside the generated code
        self.internal = any(
            id(successor) in self.ids
            for dblock in blocks
            for successor in _successors(dblock)
        )

    @classmethod
    def alone(cls, dblock: DecodedBlock) -> "_Region":
        """The base case: a block outside every region, no internal edges.

        Every edge out of it, a self-edge included, returns to the
        driver, so the block tier's per-block profile counts -- which
        the execution profile reports -- stay exact.
        """
        region = cls(dblock, [dblock])
        region.internal = False
        region.chains = [[dblock]]
        region.head_index = {id(dblock): 0}
        return region


class _RegionPlan:
    """Per-region analysis results consumed by the generator."""

    __slots__ = ("locals_map", "spill", "invariants", "header_phis")

    def __init__(self):
        #: id(value) -> Python local name (region locals + invariants)
        self.locals_map: Dict[int, str] = {}
        #: (value, local name) pairs flushed to the frame before a deopt
        self.spill: List[Tuple[object, str]] = []
        #: (value, local name) preamble loads of loop-invariant operands
        self.invariants: List[Tuple[object, str]] = []
        #: (phi, local name) preamble loads of localized header phis
        self.header_phis: List[Tuple[Phi, str]] = []


def _successors(dblock: DecodedBlock) -> tuple:
    term = dblock.term
    if term[0] == "jump":
        return (term[1],)
    if term[0] == "br":
        return (term[2], term[3])
    return ()


def _function_order(entry: DecodedBlock) -> List[DecodedBlock]:
    """Reachable decoded blocks, BFS from the entry (stable order)."""
    order: List[DecodedBlock] = []
    seen = {id(entry)}
    worklist = [entry]
    while worklist:
        dblock = worklist.pop(0)
        order.append(dblock)
        for successor in _successors(dblock):
            if id(successor) not in seen:
                seen.add(id(successor))
                worklist.append(successor)
    return order


def _block_steps(dblock: DecodedBlock) -> int:
    return len(dblock.ops) + (0 if dblock.term[0] == "fall" else 1)


# ---------------------------------------------------------------------------
# Region selection
# ---------------------------------------------------------------------------


def _natural_loops(
    order: List[DecodedBlock], dom: DominatorTree
) -> List[Tuple[DecodedBlock, Dict[int, DecodedBlock]]]:
    """Natural loops over the decoded CFG, merged per header.

    A back edge is ``X -> H`` with ``H.source`` dominating ``X.source``;
    the loop body is every block that reaches ``X`` backwards without
    passing ``H``.  Natural loops are single-entry: every predecessor
    of a non-header member is itself a member, which is exactly the
    property region codegen needs (outside code can only ever jump to
    the header).
    """
    preds: Dict[int, List[DecodedBlock]] = {}
    for dblock in order:
        for successor in _successors(dblock):
            preds.setdefault(id(successor), []).append(dblock)
    loops: Dict[int, Tuple[DecodedBlock, Dict[int, DecodedBlock]]] = {}
    for dblock in order:
        for successor in _successors(dblock):
            if not dom.dominates(successor.source, dblock.source):
                continue
            header = successor
            entry = loops.get(id(header))
            if entry is None:
                entry = loops[id(header)] = (header, {id(header): header})
            body = entry[1]
            stack = [dblock]
            while stack:
                member = stack.pop()
                if id(member) in body:
                    continue
                body[id(member)] = member
                stack.extend(preds.get(id(member), ()))
    return list(loops.values())


def _select_regions(
    order: List[DecodedBlock], dom: DominatorTree
) -> List[_Region]:
    if len(order) <= WHOLE_FUNCTION_BLOCKS:
        # Small function: one region covering everything, rooted at the
        # entry block.
        return [_Region(order[0], list(order))]

    pos = {id(d): i for i, d in enumerate(order)}
    candidates: List[_Region] = []
    for header, body in _natural_loops(order, dom):
        if len(body) > MAX_REGION_BLOCKS:
            continue
        blocks = sorted(body.values(), key=lambda d: pos[id(d)])
        candidates.append(_Region(header, blocks))
    # Outermost loops first; nested/overlapping ones are dropped so the
    # chosen regions stay disjoint (single-entry is per region).
    candidates.sort(key=lambda r: (-len(r.blocks), pos[id(r.header)]))
    chosen: List[_Region] = []
    taken: Set[int] = set()
    for region in candidates:
        if region.ids & taken:
            continue
        taken |= region.ids
        chosen.append(region)
    return chosen


#: Largest block (in decoded ops) tail duplication may copy into a chain.
DUPLICATE_OPS = 12

#: Emitted-ops growth factor tail duplication may cost per region.
DUPLICATE_GROWTH = 2


def _build_chains(region: _Region) -> None:
    """Greedy superblock layout: fall-through chains, false arm first.

    At a conditional branch the fall-through is the false arm, then the
    true arm; chains are seeded in ``region.blocks`` order, header
    first, so the layout is a fixed function of the CFG.

    A block extends a chain when it is internal, not the header, and
    either unplaced with exactly one internal in-edge, or small enough
    for *tail duplication*: join blocks (several in-edges) are copied
    into each predecessor's chain instead of forcing a trip through the
    ``_n`` dispatch ladder, so a loop iteration spanning an if/else
    diamond fuses into one straight-line segment per path.  Duplication
    is exact -- every copy retires the same ops and resolves its phi
    routes against its actual static predecessor -- and is bounded by
    :data:`DUPLICATE_OPS` per block, :data:`DUPLICATE_GROWTH` per
    region, and a no-revisit rule per chain (which also breaks cycles;
    the back edge to the header always ends the chain).  Chains whose
    head no emitted edge can reach anymore (every predecessor
    duplicated its own copy) are dropped.
    """
    ids = region.ids
    edge_count: Dict[int, int] = {id(b): 0 for b in region.blocks}
    for dblock in region.blocks:
        for successor in _successors(dblock):
            if id(successor) in ids:
                edge_count[id(successor)] += 1

    placed: Set[int] = set()
    budget = DUPLICATE_GROWTH * sum(
        _block_steps(dblock) for dblock in region.blocks
    )

    def eligible(successor: DecodedBlock, chain_ids: Set[int]) -> bool:
        if id(successor) not in ids or successor is region.header:
            return False
        if id(successor) in chain_ids:
            return False  # no revisits: breaks cycles not through the header
        if edge_count[id(successor)] == 1 and id(successor) not in placed:
            return True
        return (
            len(successor.ops) <= DUPLICATE_OPS
            and successor.term[0] != "fall"
            and budget - _block_steps(successor) >= 0
        )

    def fallthrough(
        current: DecodedBlock, chain_ids: Set[int]
    ) -> Optional[DecodedBlock]:
        term = current.term
        if term[0] == "jump":
            targets = [term[1]]
        elif term[0] == "br":
            constant, payload = term[1]
            if constant:
                targets = [term[2] if payload & 1 else term[3]]
            else:
                targets = [term[3], term[2]]
        else:
            return None
        for target in targets:
            if eligible(target, chain_ids):
                return target
        return None

    def goto_targets(
        dblock: DecodedBlock, nxt: Optional[DecodedBlock]
    ) -> List[DecodedBlock]:
        """Internal successors the emitted code dispatches to by goto.

        Mirrors :func:`_emit_region_term`: static transfers (jump /
        constant branch / degenerate branch) reference only their one
        target; the fall-through into the next chain position is not a
        goto at all.
        """
        target = _static_target(dblock)
        if target is not None:
            succs = [target]
        elif dblock.term[0] == "br":
            succs = [dblock.term[2], dblock.term[3]]
        else:
            return []
        return [s for s in succs if s is not nxt and id(s) in ids]

    chains: List[List[DecodedBlock]] = []

    def build_chain(seed: DecodedBlock) -> None:
        chain = [seed]
        chain_ids = {id(seed)}
        placed.add(id(seed))
        current = seed
        while True:
            nxt = fallthrough(current, chain_ids)
            if nxt is None:
                break
            if edge_count[id(nxt)] == 1 and id(nxt) not in placed:
                placed.add(id(nxt))
            else:
                nonlocal budget
                budget -= _block_steps(nxt)
            chain.append(nxt)
            chain_ids.add(id(nxt))
            current = nxt
        chains.append(chain)

    # region.blocks is in BFS order, so the header -- which dominates
    # every member -- comes first and seeds chain 0.
    for seed in region.blocks:
        if id(seed) not in placed:
            build_chain(seed)

    # Duplication can leave a goto dangling: a copied predecessor may
    # branch to a single-in-edge block that sits mid-chain elsewhere and
    # so heads no chain.  Seed forced chains (correctness beats budget)
    # until every emitted goto target is dispatchable.
    while True:
        head_ids = {id(chain[0]) for chain in chains}
        missing: Optional[DecodedBlock] = None
        for chain in chains:
            for position, dblock in enumerate(chain):
                nxt = (
                    chain[position + 1] if position + 1 < len(chain) else None
                )
                for successor in goto_targets(dblock, nxt):
                    if id(successor) not in head_ids:
                        missing = successor
                        break
                if missing is not None:
                    break
            if missing is not None:
                break
        if missing is None:
            break
        build_chain(missing)

    # Drop chains nothing dispatches to anymore: once every predecessor
    # carries its own duplicated copy of a join block, the join's own
    # chain (seeded because duplication never marks a block placed) is
    # dead weight in the dispatch ladder.
    head_of = {id(chain[0]): index for index, chain in enumerate(chains)}
    adjacency: List[Set[int]] = []
    for chain in chains:
        targets: Set[int] = set()
        for position, dblock in enumerate(chain):
            nxt = chain[position + 1] if position + 1 < len(chain) else None
            for successor in goto_targets(dblock, nxt):
                index = head_of.get(id(successor))
                if index is not None:
                    targets.add(index)
        adjacency.append(targets)
    keep = {0}
    worklist = [0]
    while worklist:
        for index in adjacency[worklist.pop()]:
            if index not in keep:
                keep.add(index)
                worklist.append(index)
    region.chains = [chain for i, chain in enumerate(chains) if i in keep]
    region.head_index = {
        id(chain[0]): i for i, chain in enumerate(region.chains)
    }


# ---------------------------------------------------------------------------
# Region analysis: locals and loop invariants
# ---------------------------------------------------------------------------


def _function_reads(
    order: List[DecodedBlock],
) -> Tuple[Set[int], Dict[int, Set[int]]]:
    """(pinned ids, value id -> reader block ids) over a whole function.

    Readers cover body operands, terminator payloads, and the phi
    routes a block applies on its *outgoing* edges (routing runs in the
    predecessor's generated code).  ``pinned`` values are read through
    the frame dict at runtime (fallback handlers, batched DFI checks)
    and can never live in a Python local.
    """
    pinned: Set[int] = set()
    read_in: Dict[int, Set[int]] = {}

    for dblock in order:
        bid = id(dblock)

        def read(value, via_frame=False, bid=bid):
            read_in.setdefault(id(value), set()).add(bid)
            if via_frame:
                pinned.add(id(value))

        body = _body_instructions(dblock)
        for i, inst in enumerate(body):
            impure = dblock.ops[i][2]
            _, reads, via_frame = _classify(inst, impure)
            for value in reads:
                read(value, via_frame)
        term = dblock.term
        if term[0] == "ret":
            spec = term[1]
            if spec is not None and not spec[0]:
                read(spec[1])
        elif term[0] == "br" and not term[1][0]:
            read(term[1][1])
        for successor in _successors(dblock):
            route = successor.phi_routes.get(dblock)
            if isinstance(route, tuple):
                for _, constant, payload in route:
                    if not constant:
                        read(payload)
    return pinned, read_in


def _block_locals(
    dblock: DecodedBlock, pinned: Set[int], read_in: Dict[int, Set[int]]
) -> Dict[int, str]:
    """Which SSA values of a block outside every region become locals.

    A value qualifies when its defining op assigns it from generated
    code and every read happens inside the block's own generated
    function (body operands, the terminator's payloads, and the phi
    routes *this* block applies on its outgoing edges).  Reads from
    another block, from a decoded-handler fallback, or from a batched
    DFI check keep the value in the frame dict.  Allocas, params and
    phis are frame-resident by construction (the frame layout / caller /
    predecessor edges write them), as is everything a step-limit
    delegation to the decoded tier might need -- locals never outlive
    one generated call, and delegation happens only at block entry,
    before any local exists.
    """
    bid = id(dblock)
    names: Dict[int, str] = {}
    for i, inst in enumerate(_body_instructions(dblock)):
        def_ok, _, _ = _classify(inst, dblock.ops[i][2])
        key = id(inst)
        if not def_ok or key in pinned:
            continue
        readers = read_in.get(key)
        if readers is not None and readers != {bid}:
            continue
        names[key] = f"_l{len(names)}"
    return names


def _make_spiller(slots: Tuple[Tuple[object, str], ...]):
    """Closure flushing bound region locals back into the frame dict.

    Called by a region's epilogue right before a deopt to the decoded
    tier; locals not yet bound on this path are simply absent from
    ``locals()`` and skipped.
    """

    def _spill(frame, loc):
        for value, name in slots:
            bound = loc.get(name)
            if bound is not None:
                frame[value] = bound

    return _spill


def _plan_region(
    order: List[DecodedBlock],
    region: _Region,
    dom: DominatorTree,
    layout,
    pinned: Set[int],
    read_in: Dict[int, Set[int]],
) -> _RegionPlan:
    plan = _RegionPlan()
    by_id = {id(d): d for d in order}

    # Everything a region invocation may (re)define: body results --
    # def_ok or not, since fallback handlers write their result through
    # the frame mid-region -- plus the region's own phis.  Allocas are
    # exempt: their frame slot is assigned once at call layout and the
    # generated code never writes it.
    region_defined: Set[int] = set()
    region_bodies: Dict[int, List[object]] = {}
    for dblock in region.blocks:
        body = _body_instructions(dblock)
        region_bodies[id(dblock)] = body
        for inst in body:
            if not isinstance(inst, Alloca):
                region_defined.add(id(inst))
        for phi in dblock.source.phis:
            region_defined.add(id(phi))

    # -- region locals ------------------------------------------------------
    def consider(value, dblock) -> None:
        if id(value) in pinned or id(value) in plan.locals_map:
            return
        readers = read_in.get(id(value), set())
        if not readers <= region.ids:
            return
        # SSA guarantees def-dominates-use; checking it keeps malformed
        # IR on the (accepted) divergence path instead of silently
        # reading a stale local from a previous iteration.
        if not all(
            dom.dominates(dblock.source, by_id[r].source) for r in readers
        ):
            return
        name = f"_l{len(plan.spill)}"
        plan.locals_map[id(value)] = name
        plan.spill.append((value, name))
        if isinstance(value, Phi) and dblock is region.header:
            plan.header_phis.append((value, name))

    for dblock in region.blocks:
        for phi in dblock.source.phis:
            consider(phi, dblock)
        body = region_bodies[id(dblock)]
        for i, inst in enumerate(body):
            impure = dblock.ops[i][2]
            def_ok, _, _ = _classify(inst, impure)
            if def_ok:
                consider(inst, dblock)

    # Without a back edge the body runs once per call: nothing to preload.
    if not any(
        id(successor) in region.ids
        and dom.dominates(successor.source, dblock.source)
        for dblock in region.blocks
        for successor in _successors(dblock)
    ):
        return plan

    # -- loop-invariant operand loads ---------------------------------------
    def invariant(value) -> bool:
        """Not redefined in the region; its frame slot is bound at entry."""
        if id(value) in region_defined:
            return False
        if isinstance(value, (Argument, Alloca)):
            return True
        if isinstance(value, Instruction) and value.parent is not None:
            return dom.dominates(value.parent, region.header.source)
        return False

    seen_inv: Set[int] = set()
    for dblock in region.blocks:
        body = region_bodies[id(dblock)]
        sources: List[object] = []
        for i, inst in enumerate(body):
            impure = dblock.ops[i][2]
            _, reads, via_frame = _classify(inst, impure)
            if not via_frame:
                sources.extend(reads)
        term = dblock.term
        if term[0] == "ret" and term[1] is not None and not term[1][0]:
            sources.append(term[1][1])
        elif term[0] == "br" and not term[1][0]:
            sources.append(term[1][1])
        for successor in _successors(dblock):
            route = successor.phi_routes.get(dblock)
            if isinstance(route, tuple):
                for _, constant, payload in route:
                    if not constant:
                        sources.append(payload)
        for value in sources:
            if id(value) in seen_inv or id(value) in plan.locals_map:
                continue
            seen_inv.add(id(value))
            if _spec(value, layout)[0]:
                continue  # folds to a literal anyway
            if not invariant(value):
                continue
            name = f"_i{len(plan.invariants)}"
            plan.invariants.append((value, name))
            plan.locals_map[id(value)] = name

    return plan


# ---------------------------------------------------------------------------
# Region code generation
# ---------------------------------------------------------------------------


def _emit_region_goto(
    gen: _FnGen,
    region: _Region,
    dblock: DecodedBlock,
    target: DecodedBlock,
    k: int,
    indent: int,
    next_block: Optional[DecodedBlock],
    codes: Dict[int, BlockCode],
    merged: bool,
    leave,
) -> None:
    route = target.phi_routes.get(dblock)
    if route is not None:
        if merged:
            # The edge's charges ride in the op stream as 'phi'
            # pseudo-ops; only the parallel register moves remain.
            targets = ", ".join(gen.target(phi) for phi, _, _ in route)
            values = ", ".join(
                gen.operand((constant, payload))
                for _, constant, payload in route
            )
            gen.emit(f"{targets} = {values}", indent=indent)
        elif _emit_phi_edge(
            gen, route, indent, _REGION_ACC if region.internal else _DIRECT_ACC
        ):
            return
    if region.internal and id(target) in region.ids:
        if target is next_block:
            return  # fall through into the next fused block
        if len(region.chains) > 1:
            gen.emit(f"_n = {region.head_index[id(target)]}", indent=indent)
        gen.emit("continue", indent=indent, op=k)
    else:
        leave(gen.bind(codes[id(target)].self_pair, "S"), indent, k)


def _emit_region_term(
    gen: _FnGen,
    region: _Region,
    dblock: DecodedBlock,
    layout,
    k: int,
    d: int,
    next_block: Optional[DecodedBlock],
    codes: Dict[int, BlockCode],
    static_merged: bool,
    fall_merged: bool,
    leave,
) -> None:
    term = dblock.term
    kind = term[0]
    if kind == "ret":
        spec = term[1]
        if spec is None or spec[0]:
            leave(gen.bind((BLOCK_RET, spec and spec[1]), "R"), d, k)
        else:
            leave(f"(_RET, {gen.operand(spec)})", d, k)
        return
    if kind == "jump":
        _emit_region_goto(
            gen, region, dblock, term[1], k, d, next_block, codes,
            static_merged, leave,
        )
        return
    constant, payload = term[1]
    t_true, t_false = term[2], term[3]
    if constant:
        target = t_true if payload & 1 else t_false
        _emit_region_goto(
            gen, region, dblock, target, k, d, next_block, codes,
            static_merged, leave,
        )
        return
    if t_true is t_false:
        # Degenerate branch: both arms coincide, so the transfer is
        # static (see _static_target) and the pure condition operand
        # need not be evaluated.
        _emit_region_goto(
            gen, region, dblock, t_true, k, d, next_block, codes,
            static_merged, leave,
        )
        return
    # A fused compare-and-branch exit (DecodedBlock.fused) tests the
    # compare itself; its ops emitted no code.  Its test line maps to
    # the compare's first op, where the reference would read operands.
    fused = dblock.fused
    if fused is None:
        cond, kt = f"{gen.operand(term[1])} & 1", k
    else:
        cond, kt = _compare_expr(gen, fused[0], layout), k - fused[1]
    if (
        not region.internal
        and dblock not in t_true.phi_routes
        and dblock not in t_false.phi_routes
    ):
        # Nothing to route: one conditional return.
        true_pair = gen.bind(codes[id(t_true)].self_pair, "S")
        false_pair = gen.bind(codes[id(t_false)].self_pair, "S")
        gen.emit(
            f"return {true_pair} if {cond} else {false_pair}",
            indent=d,
            op=kt,
        )
        return
    # The arm that is not the fall-through into the next fused block
    # (the true arm when neither is) goes inside the test.  Only the
    # fall-through edge can carry merged phi charges.
    test, inner, outer = "if", t_true, t_false
    if t_true is next_block:
        test, inner, outer = "if not", t_false, t_true
    gen.emit(f"{test} ({cond}):", indent=d, op=kt)
    _emit_region_goto(
        gen, region, dblock, inner, k, d + 1, None, codes, False, leave
    )
    _emit_region_goto(
        gen, region, dblock, outer, k, d, next_block, codes, fall_merged, leave
    )


_PAC_FIELD = (1 << PAC_BITS) - 1
_U64_MASK = (1 << 64) - 1


def _emit_pac_inline(gen: _FnGen, inst, layout, k: int, d: int) -> None:
    """Open-code the MAC-memo probe of ``PointerAuthentication.sign``/``auth``.

    The signed or authenticated value is often dynamically stable, so
    the shared ``_pac_cache`` usually holds the expected PAC already.
    The probe replicates the method's own hit path -- same key tuple,
    same counter bump, same strip -- and any miss (or, for auth,
    mismatch) defers to the real method, which recomputes, stores, and
    raises exactly as before.  The probe stands
    down whenever a fault hook is installed: sign routes through the
    hook and auth routes substitution faults (``on_pac_auth``) through
    the full method, so chaos runs must never short-circuit a PAC site.
    """
    value = gen.operand(_spec(inst.value, layout))
    modifier = gen.operand(_spec(inst.modifier, layout))
    target = gen.target(inst)
    gen.emit(
        f"_t = None if pac.fault_hook is not None else "
        f"_pg(({inst.key_id!r}, ({value}) & {ADDR_MASK}, "
        f"({modifier}) & {_U64_MASK}, pac.key_epoch))",
        indent=d,
        op=k,
    )
    if isinstance(inst, PacAuth):
        gen.emit(
            f"if _t is not None and ((({value}) >> {VA_BITS}) & {_PAC_FIELD}) == _t:",
            indent=d,
        )
        gen.emit("    pac.auth_count += 1", indent=d)
        gen.emit(f"    {target} = ({value}) & {ADDR_MASK}", indent=d)
        gen.emit("else:", indent=d)
        gen.emit(
            f"    {target} = _pa({value}, {modifier}, {inst.key_id!r})",
            indent=d,
            op=k,
        )
        return
    gen.emit("if _t is None:", indent=d)
    gen.emit(
        f"    {target} = _ps({value}, {modifier}, {inst.key_id!r})",
        indent=d,
        op=k,
    )
    gen.emit("else:", indent=d)
    gen.emit("    pac.sign_count += 1", indent=d)
    gen.emit(
        f"    {target} = (({value}) & {ADDR_MASK}) | (_t << {VA_BITS})",
        indent=d,
    )


def _chain_segments(chain: List[DecodedBlock]) -> List[Tuple[int, int]]:
    """Split a chain into guard segments at call-carrying blocks.

    Returns ``(start, end)`` position ranges.  A segment is the unit of
    step-limit guarding: one check at the segment head covers every
    step its fused chunks charge.  A block whose ops include an impure
    op (a call) ends its segment, because the callee retires an unknown
    number of steps -- the next block must re-check against
    ``max_steps`` before charging anything, which is exactly where the
    block tier's per-block guard would re-check.  A triggered guard
    deopts the whole segment to the decoded oracle from the segment
    head, whose replay retires bit-identical state to running the fused
    blocks one tier down.
    """
    segments: List[Tuple[int, int]] = []
    start = 0
    for position, dblock in enumerate(chain):
        if any(op[2] for op in dblock.ops):
            segments.append((start, position + 1))
            start = position + 1
    if start < len(chain):
        segments.append((start, len(chain)))
    return segments


def _static_target(dblock: DecodedBlock) -> Optional[DecodedBlock]:
    """The successor an emitted block reaches unconditionally, if any.

    Jumps, constant-condition branches, and degenerate branches whose
    arms coincide all transfer control to one statically-known block;
    their outgoing phi routing can therefore charge inside the
    preceding chunk (the condition operand of a degenerate branch is
    pure, so not evaluating it is unobservable).
    """
    term = dblock.term
    if term[0] == "jump":
        return term[1]
    if term[0] == "br":
        constant, payload = term[1]
        if constant:
            return term[2] if payload & 1 else term[3]
        if term[2] is term[3]:
            return term[2]
    return None


def _emit_chunk_charges(gen: _FnGen, all_info, s: int, e: int) -> None:
    """Batched retirement for one (possibly cross-block) pure chunk.

    A chunk may span every block fused between two impure ops or
    conditional branches, plus the 'phi' pseudo-ops of statically-taken
    edges inside that span.  All charges land in the region's local
    accumulators (``_cy`` cycles, ``_cr`` issue residue, ``_st`` steps
    -- phi routing retires issue slots but no steps) plus the region's
    local hit counter for the chunk's composition (:meth:`_FnGen.hit`),
    which the epilogue adds to the CPU's hit store and which stands for
    the chunk's opcodes and retired instructions; only the chunk-entry
    residue ``_r0`` stays materialised because the trap fixup reads it
    from the frame.
    """
    _, cycles_table, cheap_table, cid = _chunk_tables(
        tuple(info[0] for info in all_info[s:e])
    )
    n = e - s
    nsteps = sum(1 for i in range(s, e) if all_info[i][0] != "phi")
    gen.emit("_r0 = _cr")
    parts = [
        f"_cy += {gen.bind(cycles_table, 'T')}[_r0]",
        f"_cr = {gen.bind(cheap_table, 'T')}[_r0]",
    ]
    if nsteps:
        parts.append(f"_st += {nsteps}")
    parts.append(f"{gen.hit(cid)} += 1")
    gen.emit("; ".join(parts))


def _emit_impure_charges(gen: _FnGen, all_info, s: int) -> None:
    """Flush-and-charge for an impure single-op chunk.

    The callee (or fallback handler) reads and charges ``cpu.steps``,
    ``timing.cycles`` and ``timing._cheap_run`` itself, so the pending
    local accumulators for those must flush *before* re-entry -- this
    is also what keeps a step-limit or trap raised inside the callee
    bit-identical to the block tier.  The hit stays local: nothing reads
    the hit store before the run's fold, and the region's epilogue (or
    its exception handler) flushes it.  The caller emits the op
    statement itself, then re-reads ``_cr`` (the callee moved the
    residue).
    """
    _, cycles_table, cheap_table, cid = _chunk_tables((all_info[s][0],))
    gen.emit(f"timing.cycles += _cy + {gen.bind(cycles_table, 'T')}[_cr]")
    gen.emit(f"timing._cheap_run = {gen.bind(cheap_table, 'T')}[_cr]")
    gen.emit("_cy = 0")
    gen.emit("cpu.steps += _st + 1; _st = 0")
    gen.emit(f"{gen.hit(cid)} += 1")


def _emit_direct_charges(gen: _FnGen, all_info, s: int, e: int) -> None:
    """Batched retirement for one chunk of a region with no internal edges.

    Its code runs once per call, so local accumulators would cost more
    than they save: every chunk, pure or impure, charges cycles, the
    issue residue and ``cpu.steps`` directly and counts one hit of its
    composition in the CPU's hit store (its opcodes and retired
    instructions), before its ops run.
    """
    opcodes, cycles_table, cheap_table, cid = _chunk_tables(
        tuple(info[0] for info in all_info[s:e])
    )
    gen.emit(
        f"_r0 = timing._cheap_run; "
        f"timing.cycles += {gen.bind(cycles_table, 'T')}[_r0]; "
        f"timing._cheap_run = {gen.bind(cheap_table, 'T')}[_r0]"
    )
    gen.emit(f"cpu.steps += {e - s - opcodes.count('phi')}; hits[{cid}] += 1")


def _make_resumer(dblock: DecodedBlock, body, block_locals: Dict[int, str]):
    """Closure a block compiled alone returns through to hand the rest
    of its call to the reference tier (see :func:`_emit_resume_guard`);
    it spills the block's locals first."""
    spill = _make_spiller(
        tuple((value, block_locals[id(value)]) for value in body if id(value) in block_locals)
    )

    def _resume(cpu, frame, loc, start):
        spill(frame, loc)
        return (BLOCK_RET, cpu._resume_on_reference(dblock, frame, start))

    return _resume


def _emit_resume_guard(
    gen: _FnGen, nsteps: int, dblock: DecodedBlock, i: int, resume: Optional[str]
) -> None:
    """Step-limit guard after impure op ``i`` of ``dblock``.

    The driver's entry guard (or a segment guard) covered the block's
    own steps, but a callee retires steps of its own, so the block's
    remaining ``nsteps`` may cross ``max_steps`` after the call returns.
    When they would, the rest of the call runs on the reference tier
    from op ``i + 1`` (``CPU._resume_on_reference``), which stops at
    the exact op -- within this block, so the slow loop runs only a
    handful of ops.  Nothing after op ``i`` is charged yet, and every
    earlier charge has been applied, so the hand-off needs only the
    block's locals in the frame: a region's epilogue spills them, and a
    block compiled alone returns through its ``resume`` closure
    (:func:`_make_resumer`), which does.
    """
    if resume is None:
        gen.emit(
            f"if cpu.steps + {nsteps} > _ms: "
            f"_dx = {gen.bind(dblock, 'D')}; _rs = {i + 1}; break"
        )
    else:
        gen.emit(
            f"if cpu.steps + {nsteps} > cpu.max_steps: "
            f"return {resume}(cpu, frame, locals(), {i + 1})"
        )


#: ``uses_mem`` bits: the generated code loads, stores
_LOADS, _STORES = 1, 2


def _memory_preamble(uses_mem: int) -> str:
    """Bind ``mem`` and the windows the inline accesses index."""
    line = "mem = cpu.memory"
    if uses_mem & _LOADS:
        line += "; _md = mem.windows"
    if uses_mem & _STORES:
        line += "; _wd = mem.write_windows"
    return line


def _emit_loop_preamble(
    gen: _FnGen,
    region: _Region,
    plan: _RegionPlan,
    uses_mem: int,
    uses_pac: bool,
    uses_dfi: bool,
) -> int:
    """Region entry up to ``while True:`` for a region with internal edges.

    Returns the index in ``gen.lines`` of the accumulator line, which
    :func:`_gen_region` completes with the hit counters' initialisation
    (and ``_rs``, when some call has a resume guard) once the body has
    been emitted.
    """
    # Local accounting accumulators (initialised before anything that
    # can raise -- the except clause flushes them unconditionally):
    # _cy cycles, _st steps, _cr issue residue, _kN per-composition hit
    # counters; _dx is the block a deopt replays from, and _rs the op
    # it resumes at (0: the block's entry).  Hot-loop chunks
    # touch only these locals; attribute and dict traffic happens once,
    # in the epilogue.
    gen.emit("_cy = 0; _st = 0; _dx = None", indent=3)
    init_line = len(gen.lines) - 1
    gen.emit("_cr = timing._cheap_run", indent=3)

    # Loop-invariant aliases: generated op bodies are rewritten (see
    # emit_default in _gen_region) to call these pre-bound methods
    # instead of chasing cpu.pac / cpu.dfi_shadow attributes on every
    # hot-loop iteration, and index the memory windows bound here.
    # Key epochs stay live -- they are read inside the bound methods.
    # The write windows capture whether a memory fault hook is armed,
    # which happens before a run, never inside one.
    if uses_mem:
        gen.emit(_memory_preamble(uses_mem), indent=3)
        gen.emit("_ch = cpu.cache is not None; _ca = cpu._cache_access", indent=3)
    if uses_pac:
        gen.emit("pac = cpu.pac", indent=3)
        gen.emit("_ps = pac.sign; _pa = pac.auth", indent=3)
        # _pac_cache survives corrupt_key/rekey (they clear() in place,
        # never rebind), so a bound .get stays valid across epochs; the
        # epoch lives in the lookup key, read live at each site.
        gen.emit("_pg = pac._pac_cache.get", indent=3)
    if uses_dfi:
        gen.emit("dfi = cpu.dfi_shadow", indent=3)
        gen.emit(
            "_ds = dfi.set_range; _dr = dfi.check_range; _db = dfi.check_batch",
            indent=3,
        )
    gen.emit("_ms = cpu.max_steps", indent=3)
    for value, name in plan.invariants:
        gen.emit(f"{name} = frame[{gen.bind(value, 'V')}]", indent=3)
    for phi, name in plan.header_phis:
        gen.emit(f"{name} = frame[{gen.bind(phi, 'V')}]", indent=3)
    if len(region.chains) > 1:
        gen.emit("_n = 0", indent=3)
    gen.emit("while True:", indent=3)
    return init_line


def _gen_region(
    gen: _FnGen,
    fn_name: str,
    region: _Region,
    layout,
    meta: _BlockMeta,
    codes: Dict[int, BlockCode],
    plan: _RegionPlan,
) -> None:
    phi_cost = DEFAULT_COSTS["phi"]
    # A region with no internal edges -- above all a block compiled
    # alone -- runs its body once per call.  It charges the CPU directly
    # and keeps none of the loop machinery: no local accumulators, method
    # aliases, inline PAC probes, segment guards (the driver checked
    # ``nsteps`` already) or ``while True``.
    direct = not region.internal

    # -- superblock charge planning -------------------------------------
    # Chains split into guard segments (see _chain_segments); within a
    # segment the charges of consecutive fused blocks merge into
    # cross-block chunks, splitting only at impure ops (their own chunk,
    # as in the block tier) and *after* an unresolved conditional branch
    # (ops beyond it are path-dependent).  Phi routing on edges whose
    # traversal is certain once a chunk runs -- the static (jump /
    # constant-branch) edge out of a block, or the conditional
    # fall-through into the next fused block of the same segment --
    # charges as 'phi' pseudo-ops inside the op stream, leaving only the
    # parallel register moves at the edge itself.  A conditional
    # fall-through crossing a segment boundary keeps the full inline
    # edge: its charges must land *before* the next segment's guard can
    # deopt to the decoded oracle, which replays from the target block
    # and would never re-charge the already-traversed edge.
    # Tail duplication means one block may be emitted several times, so
    # every per-emission structure below keys on the *position*
    # (chain index, index within the chain), never on the block object.
    chains_segments = [_chain_segments(chain) for chain in region.chains]
    seg_steps: Dict[Tuple[int, int], int] = {}  # (ci, start pos) -> steps
    for ci, segments in enumerate(chains_segments):
        chain = region.chains[ci]
        for start, end in segments:
            seg_steps[(ci, start)] = sum(
                _block_steps(chain[p]) for p in range(start, end)
            )

    trailing_merge: Dict[Tuple[int, int], object] = {}  # static-edge route
    leading_merge: Dict[Tuple[int, int], object] = {}  # fall-in route
    for ci, chain in enumerate(region.chains):
        for position, dblock in enumerate(chain):
            next_block = (
                chain[position + 1] if position + 1 < len(chain) else None
            )
            target = _static_target(dblock)
            if target is not None:
                route = target.phi_routes.get(dblock)
                if route is not None and not isinstance(route, str) and route:
                    trailing_merge[(ci, position)] = route
                continue
            if (
                dblock.term[0] == "br"
                and next_block is not None
                and not any(op[2] for op in dblock.ops)
            ):
                route = next_block.phi_routes.get(dblock)
                if route is not None and not isinstance(route, str) and route:
                    leading_merge[(ci, position + 1)] = route

    # Concatenated op metadata: merged leading phis, body ops, one
    # terminator pseudo-op per block (br/jump/ret), merged trailing
    # phis -- with *global* indices and chunk bounds so the shared trap
    # fixup replays the right chunk wherever it trapped.  Every emission
    # of a duplicated block gets its own index range and chunk bounds.
    infos = []
    all_info: List[List[object]] = []
    info_by_pos: Dict[Tuple[int, int], tuple] = {}
    base = 0
    for ci, chain in enumerate(region.chains):
        for position, dblock in enumerate(chain):
            body = _body_instructions(dblock)
            lead = leading_merge.get((ci, position))
            nlead = len(lead) if lead else 0
            op_info: List[List[object]] = [
                ["phi", phi_cost, False] for _ in range(nlead)
            ]
            op_info.extend(
                [opcode, cost, impure]
                for opcode, cost, impure, _ in dblock.ops
            )
            term = dblock.term
            if term[0] == "ret":
                op_info.append(["ret", DEFAULT_COSTS["ret"], False])
            elif term[0] in ("jump", "br"):
                op_info.append(["br", DEFAULT_COSTS["br"], False])
            trail = trailing_merge.get((ci, position))
            op_info.extend(
                ["phi", phi_cost, False]
                for _ in range(len(trail) if trail else 0)
            )
            item = (dblock, body, op_info, base, nlead, len(body))
            infos.append(item)
            info_by_pos[(ci, position)] = item
            all_info.extend(op_info)
            base += len(op_info)

    chunk_at: Dict[int, Tuple[int, int]] = {}  # chunk start -> (s, e)
    chunk_of: Dict[int, Tuple[int, int]] = {}  # any op index -> its chunk
    for ci, segments in enumerate(chains_segments):
        chain = region.chains[ci]
        for start, end in segments:
            first = info_by_pos[(ci, start)]
            last = info_by_pos[(ci, end - 1)]
            s0 = first[3]
            e0 = last[3] + len(last[2])
            splits: Set[int] = set()
            for p in range(start, end):
                term = chain[p].term
                if (
                    term[0] == "br"
                    and not term[1][0]
                    and term[2] is not term[3]
                ):
                    item = info_by_pos[(ci, p)]
                    splits.add(item[3] + item[4] + item[5])
            chunks: List[Tuple[int, int]] = []
            start = s0
            for g in range(s0, e0):
                if all_info[g][2]:
                    if g > start:
                        chunks.append((start, g))
                    chunks.append((g, g + 1))
                    start = g + 1
                elif g in splits:
                    chunks.append((start, g + 1))
                    start = g + 1
            if start < e0:
                chunks.append((start, e0))
            for s, e in chunks:
                chunk_at[s] = (s, e)
                for g in range(s, e):
                    chunk_of[g] = (s, e)
    meta.ops = tuple(
        (info[0], info[1], info[2]) + chunk_of[g]
        for g, info in enumerate(all_info)
    )

    uses_mem = 0  # _LOADS | _STORES: which memory windows the code indexes
    uses_pac = uses_dfi = False
    for _, body, _, _, _, _ in infos:
        for inst in body:
            if isinstance(inst, Load):
                uses_mem |= _LOADS
            elif isinstance(inst, Store):
                uses_mem |= _STORES
            elif isinstance(inst, (PacSign, PacAuth)):
                uses_pac = True
            elif isinstance(inst, (DfiSetDef, DfiChkDef)):
                uses_dfi = True

    meta_name = gen.bind(meta, "M")
    gen.fn_names.append(fn_name)
    gen.current_map = meta.line_map
    gen.block_locals = plan.locals_map
    # A region with internal edges counts its hits in one local per
    # composition (allocated as the body is emitted), flushed with the
    # other accumulators; a direct region bumps the CPU's hit store.
    gen.counters = None if direct else {}
    gen.emit(f"def {fn_name}(cpu, frame, timing, hits):", indent=1)
    gen.emit("try:", indent=2)
    if direct:
        for used, line in (
            (uses_mem, _memory_preamble(uses_mem)),
            (uses_pac, "pac = cpu.pac"),
            (uses_dfi, "dfi = cpu.dfi_shadow"),
        ):
            if used:
                gen.emit(line, indent=3)
    else:
        init_line = _emit_loop_preamble(
            gen, region, plan, uses_mem, uses_pac, uses_dfi
        )

    def leave(value: str, indent: int, k: int) -> None:
        """Exit the region: directly, or through the loop's one epilogue."""
        if direct:
            gen.emit(f"return {value}", indent=indent, op=k)
        else:
            gen.emit(f"_x = {value}; break", indent=indent, op=k)

    def flush(indent: int, residue: bool) -> None:
        gen.emit("timing.cycles += _cy", indent=indent)
        gen.emit("cpu.steps += _st", indent=indent)
        if residue:
            gen.emit("timing._cheap_run = _cr", indent=indent)
        for cid, counter in gen.counters.items():
            gen.emit(f"hits[{cid}] += {counter}", indent=indent)

    multi = len(region.chains) > 1
    resumes = False  # some call is followed by a step-limit guard
    resume = None  # a direct region's resume closure, once bound
    old_emit = gen.emit
    for ci, chain in enumerate(region.chains):
        if multi:
            keyword = "if" if ci == 0 else "elif"
            old_emit(f"{keyword} _n == {ci}:", indent=4)
            d = 5
        else:
            d = 3 if direct else 4

        def emit_default(text, indent=d, op=None):
            if not direct and "(" in text:
                text = (
                    text.replace(
                        "if cpu.cache is not None: cpu._cache_access(",
                        "if _ch: _ca(",
                    )
                    .replace("pac.sign(", "_ps(")
                    .replace("pac.auth(", "_pa(")
                    .replace("dfi.set_range(", "_ds(")
                    .replace("dfi.check_range(", "_dr(")
                    .replace("dfi.check_batch(", "_db(")
                )
            old_emit(text, indent=indent, op=op)

        gen.emit = emit_default  # type: ignore[method-assign]
        try:
            for position, dblock in enumerate(chain):
                next_block = (
                    chain[position + 1] if position + 1 < len(chain) else None
                )
                _, body, op_info, bbase, nlead, nbody = info_by_pos[
                    (ci, position)
                ]
                nsteps = None if direct else seg_steps.get((ci, position))
                if nsteps is not None:
                    # Deopt: the epilogue replays the call from here.
                    gen.emit(
                        f"if cpu.steps + _st + {nsteps} > _ms: "
                        f"_dx = {gen.bind(dblock, 'D')}; break"
                    )
                tidx = (
                    nlead + nbody if dblock.term[0] != "fall" else len(op_info)
                )
                # body ops from index ``unfused`` on are the fused compare's
                unfused = nbody - (dblock.fused[1] if dblock.fused else 0)
                j = 0
                nops = len(op_info)
                while j < nops:
                    g = bbase + j
                    bounds = chunk_at.get(g)
                    if bounds is not None:
                        if direct:
                            _emit_direct_charges(gen, all_info, *bounds)
                        elif all_info[g][2]:
                            _emit_impure_charges(gen, all_info, g)
                        else:
                            _emit_chunk_charges(
                                gen, all_info, bounds[0], bounds[1]
                            )
                    if j < nlead or j > tidx:
                        j += 1  # 'phi' pseudo-op: charge-only
                        continue
                    if j == tidx:
                        _emit_region_term(
                            gen,
                            region,
                            dblock,
                            layout,
                            g,
                            d,
                            next_block,
                            codes,
                            (ci, position) in trailing_merge,
                            (ci, position + 1) in leading_merge,
                            leave,
                        )
                        j += 1
                        continue
                    i = j - nlead
                    if i >= unfused:
                        j += 1  # an op of the fused compare: charge-only
                        continue
                    inst = body[i]
                    if isinstance(inst, DfiChkDef):
                        run = [(g, inst)]
                        nxt = i + 1
                        while (
                            nxt < nbody
                            and isinstance(body[nxt], DfiChkDef)
                            and chunk_of[bbase + nlead + nxt] == chunk_of[g]
                        ):
                            run.append((bbase + nlead + nxt, body[nxt]))
                            nxt += 1
                        if len(run) >= 2:
                            _gen_dfi_chk_batch(gen, run, layout)
                            j = nlead + nxt
                            continue
                    if isinstance(inst, (PacSign, PacAuth)) and not (
                        direct or dblock.ops[i][2]
                    ):
                        _emit_pac_inline(gen, inst, layout, g, d)
                        j += 1
                        continue
                    _emit_op(gen, inst, dblock.ops[i], layout, g)
                    if dblock.ops[i][2]:
                        if not direct:
                            # The callee moved the issue residue; re-seed
                            # the local before the next chunk charges.
                            gen.emit("_cr = timing._cheap_run")
                        rest = sum(1 for op in op_info[j + 1:] if op[0] != "phi")
                        if rest:
                            if direct and resume is None:
                                # A direct region is one block.
                                resume = gen.bind(
                                    _make_resumer(dblock, body, gen.block_locals),
                                    "Z",
                                )
                            resumes = True
                            _emit_resume_guard(gen, rest, dblock, i, resume)
                    j += 1
                if dblock.term[0] == "fall":
                    source = dblock.source
                    owner = (
                        source.parent.name if source.parent is not None else "?"
                    )
                    message = f"block %{source.name} in @{owner} fell through"
                    gen.emit(f"raise RuntimeError({message!r})")
        finally:
            gen.emit = old_emit  # type: ignore[method-assign]
    if not direct:
        if resumes:
            gen.lines[init_line] += "; _rs = 0"
        if gen.counters:
            gen.lines[init_line] += "; " + " = ".join(gen.counters.values()) + " = 0"
    gen.emit("except BaseException as _exc:", indent=2)
    if not direct:
        # Flush pending local charges so the trap fixup reconciles
        # against complete totals.  The issue residue is deliberately
        # NOT flushed: for a trap at a fused op the fixup recomputes it
        # exactly (from the _r0 frame local), and for an exception out
        # of a callee, timing._cheap_run is already live (the local _cr
        # is the stale pre-call value).
        flush(3, residue=False)
    gen.emit(f"    _FIX(cpu, timing, {meta_name}, _exc)", indent=2)
    gen.emit("    raise", indent=2)
    if not direct:
        # The loop's one way out.  A deopt's replay only adds to
        # instructions and opcode counts, so flushing first commutes,
        # and it runs outside the try: an exception it raises needs no
        # second flush.
        flush(2, residue=True)
        gen.emit("if _dx is not None:", indent=2)
        if plan.spill:
            spill = gen.bind(_make_spiller(tuple(plan.spill)), "P")
            gen.emit(f"    {spill}(frame, locals())", indent=2)
        if resumes:
            gen.emit(
                "    if _rs: return (_RET, cpu._resume_on_reference(_dx, frame, _rs))",
                indent=2,
            )
        gen.emit(
            "    return (_RET, cpu._interpret_decoded(_dx, frame))", indent=2
        )
        gen.emit("return _x", indent=2)
    gen.current_map = None
    gen.block_locals = {}
    gen.counters = None


# ---------------------------------------------------------------------------
# Function / module compilation
# ---------------------------------------------------------------------------


def _compile_function(
    function: Function,
    entry: DecodedBlock,
    layout,
    select_regions: bool,
) -> Tuple[BlockCode, str, int, int, float]:
    """Compile one function: its regions fused, every other block alone.

    Returns the entry code, the generated source, the region and fused
    block counts, and the seconds CPython's ``compile()`` took.

    With ``select_regions`` false no region is selected (the block
    tier), so the dominator tree is not built.
    """
    order = _function_order(entry)
    regions: List[_Region] = []
    if select_regions:
        dom = DominatorTree(function)
        regions = _select_regions(order, dom)

    fused_ids: Set[int] = set()
    for region in regions:
        _build_chains(region)
        fused_ids |= region.ids

    # Every block outside the selected regions -- under the block tier,
    # every block -- compiles as a one-block region, ahead of them.
    pinned, read_in = _function_reads(order)
    units: List[Tuple[str, _Region, _RegionPlan]] = []
    for dblock in order:
        if id(dblock) not in fused_ids:
            plan = _RegionPlan()
            plan.locals_map = _block_locals(dblock, pinned, read_in)
            units.append((f"_b{len(units)}", _Region.alone(dblock), plan))
    for index, region in enumerate(regions):
        plan = _plan_region(order, region, dom, layout, pinned, read_in)
        units.append((f"_t{index}", region, plan))

    codes: Dict[int, BlockCode] = {}
    for _, region, _ in units:
        header = region.header
        codes[id(header)] = BlockCode(
            header,
            _block_steps(header),
            f"{function.name}:{header.source.name}",
            len(region.blocks),
        )

    gen = _FnGen(f"<tracec:{function.name}>")
    gen.lines.append("def _make_blocks(_C):")
    gen.lines.append("")  # placeholder: unpack of _C, patched below

    # Shared helpers come first so their names are stable.
    for helper, name in (
        (_trap_fixup, "_FIX"),
        (BLOCK_RET, "_RET"),
        (NullPointerTrap, "_NPT"),
        (CanaryTrap, "_CT"),
        (DfiTrap, "_DT"),
        (MemoryFault, "_MF"),
        (FAST_MISS, "_MISS"),
        (SIZED_CODECS[2][0], "_L2"),
        (SIZED_CODECS[4][0], "_L4"),
        (SIZED_CODECS[8][0], "_L8"),
        (SIZED_CODECS[2][1], "_S2"),
        (SIZED_CODECS[4][1], "_S4"),
        (SIZED_CODECS[8][1], "_S8"),
    ):
        gen.consts.append(helper)
        gen.const_names.append(name)
        gen._by_id[id(helper)] = name

    targets: List[BlockCode] = []
    for fn_name, region, plan in units:
        meta = _BlockMeta()
        code = codes[id(region.header)]
        code.meta = meta
        _gen_region(gen, fn_name, region, layout, meta, codes, plan)
        targets.append(code)

    gen.emit(f"return ({', '.join(gen.fn_names)},)", indent=1)
    gen.lines[1] = "    ({},) = _C".format(", ".join(gen.const_names))

    source = "\n".join(gen.lines)
    namespace: Dict[str, object] = {}
    start = time.perf_counter()
    code_object = compile(source, gen.filename, "exec")
    python_seconds = time.perf_counter() - start
    exec(code_object, namespace)
    functions = namespace["_make_blocks"](tuple(gen.consts))
    for target, fn in zip(targets, functions):
        target.fn = fn

    fused = sum(len(region.blocks) for region in regions)
    return codes[id(entry)], source, len(regions), fused, python_seconds


def trace_program(
    module: Module, *, regions: bool = True, memo: Optional[dict] = None
) -> TraceProgram:
    """The program cached for ``module`` under one policy.

    Nothing is compiled here: a new program has every function pending.
    ``regions`` selects the policy: true (the trace tier) fuses the
    statically selected regions, false (the block tier) selects none, so
    every block compiles to its own function.  Block
    and trace programs each cache in their own slot of the module's
    derived memo (``"block"`` and ``"trace"``), so alternating them
    compiles nothing twice.  ``memo`` is ``module.derived()`` when the
    caller already holds it.
    """
    slot = "trace" if regions else "block"
    if memo is None:
        memo = module.derived()
    program = memo.get(slot)
    if program is None:
        decoded, _ = decode_module(module, memo)
        program = memo[slot] = TraceProgram(decoded, regions)
    return program


def trace_compile(
    module: Module, *, regions: bool = True, memo: Optional[dict] = None
) -> Tuple[TraceProgram, float]:
    """Compile every function of ``module`` still pending (see
    :func:`trace_program` for ``regions``, ``memo`` and the cache).

    Returns ``(program, seconds)`` where ``seconds`` is the compile time
    spent by *this* call -- ``0.0`` when nothing was left to compile.
    """
    program = trace_program(module, regions=regions, memo=memo)
    return program, program.compile_pending()
