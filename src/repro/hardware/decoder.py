"""Pre-decoded interpreter dispatch: compile IR once, execute many times.

The reference interpreter in :mod:`repro.hardware.oracle` resolves every
dynamic step through a long ``isinstance`` chain and re-resolves every
operand (constant? global? frame slot?) on each execution.  For the
evaluation pipeline -- 16 benchmarks x 4 schemes, plus brute-force
attack campaigns that re-execute one module thousands of times -- that
dispatch is the dominant cost of the whole reproduction.

This module performs that resolution *once per module*:

- every instruction is compiled to a bound handler closure
  ``handler(cpu, frame)`` specialised on its opcode and operand kinds,
  which wraps and sign-converts with inline masks, compares through
  ``operator`` functions and does each sized load and store inline
  against the ``Memory`` windows;
- constant and global operands are pre-folded to plain integers
  (the global segment layout is a pure function of the module);
- ``getelementptr`` strides for constant indices are pre-resolved into
  a single constant offset plus a short list of dynamic (slot, stride)
  terms;
- phi routing is precomputed per CFG edge, and the first-non-phi index
  disappears entirely (decoded blocks simply begin after the phis);
- each block gets one *exit* tuple (:attr:`DecodedBlock.exit`) whose
  edges carry the successor and that edge's phi route, so the loop
  picks an edge and routes its phis with no lookup;
- a conditional branch on a compare whose result nothing else reads --
  ``icmp P a, b; br``, or the frontend's ``icmp P a, b; zext; icmp ne
  0; br`` for every C condition -- becomes a *fused compare-and-branch
  exit* that tests ``P`` on the operands and returns the taken edge
  (:func:`_fused_compare`).  The compare's ops stay in their chunk's
  composition, so they are charged and counted as before, and only
  their handlers are dropped.  The block records what it fused
  (:attr:`DecodedBlock.fused`), and the block and trace tiers emit the
  same fused test from that record instead of the compare's ops.

The decoded program is cached in the module's derived-artifact memo
(:meth:`~repro.ir.module.Module.derived`, slot ``"decoded"``), which a
transform pipeline drops and whose shape guard catches modules mutated
outside the pass manager.

Each decoded block is also split into *chunks*: maximal runs of ops
that end at an impure op (a call or a fallback handler, which may
re-enter an interpreter loop) or at the terminator, whose charge joins
the block's last chunk.  A chunk's cost sequence is fixed at decode
time, so the cycles it charges and the issue residue it leaves are
precomputed for every entry residue (:func:`_chunk_tables`, interned by
opcode sequence, which also gives each distinct sequence a
process-wide composition id).  ``CPU._interpret_decoded`` charges a
whole chunk at once -- one step-limit check, one add each to steps and
to its issue state (cycles and residue in one int), one per-CPU hit
counter keyed by the composition id -- and calls its handlers with no
per-op bookkeeping; the opcode
histogram and the retired instructions are rebuilt from the hit
counters and each composition (:data:`CHUNK_OPS`) when the run's
result is built.  The block and trace tiers (:mod:`repro.hardware.blockc`,
:mod:`repro.hardware.tracec`) batch their accounting the same way,
bump the same hit counters, and share the tables and the trap-time
repair here.

Decoded execution is semantically bit-identical to the reference
interpreter for well-formed modules: the same traps, the same counters
at every call, trap and step-limit stop, the same ``ExecutionResult``.
The reference interpreter charges each op *before* executing it, so
when an op traps mid-chunk the charges of the chunk's later ops are
taken back (:func:`_undo_chunk_tail`); a fused compare cannot trap, and
a step-limit stop inside its chunk hands the reference tier the
compare's ops, which the decoded loop had not run.  The order of cycle
accumulation within a chunk differs from the reference, but every
charge in the model is a dyadic rational (integer costs, 0.25-per-byte
library calls), so float accumulation is exact and order-insensitive.
Chunk tables bake in ``DEFAULT_COSTS`` and the default issue width; a
CPU with another cost table or width runs every call on the reference
tier instead, and a chunk that would cross the step limit hands the
rest of its call to the reference tier from the chunk's first op
(:func:`repro.hardware.oracle.interpret_reference`, whose ``start``
counts instructions past the phis, as decoded op indices do).
(The one deliberate difference: using a value that was never computed
-- malformed, unverified IR -- surfaces as a ``KeyError`` rather than
the reference interpreter's ``RuntimeError``, possibly with different
charges applied.)
"""

from __future__ import annotations

import time
from functools import lru_cache
from operator import (
    add, and_, eq, ge, gt, itemgetter, le, lshift, lt, mul, ne, or_, rshift, sub, xor,
)
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..ir.function import BasicBlock, Function
from ..ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    CondBranch,
    DfiChkDef,
    DfiSetDef,
    GetElementPtr,
    ICmp,
    Instruction,
    Jump,
    Load,
    PacAuth,
    PacSign,
    Phi,
    Ret,
    SecAssert,
    Select,
    Store,
)
from ..ir.module import Module
from ..ir.types import ArrayType, I64, IntType, StructType
from ..ir.values import Constant, GlobalVariable, UndefValue, Value
from .errors import CanaryTrap, DfiTrap, NullPointerTrap
from .memory import FAST_MISS, GLOBAL_BASE, SIZED_CODECS, WINDOW_MASK, MemoryFault
from .timing import DEFAULT_COSTS

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63
_to_signed64 = I64.to_signed

#: An operand spec: ``(True, folded_int)`` or ``(False, frame_key)``.
OperandSpec = Tuple[bool, Union[int, Value]]
#: A decoded non-terminator step: ``(opcode, default_cost, impure, handler)``.
Handler = Callable[["object", Dict[Value, int]], None]
#: ``(n, pure_handlers, impure_handler, charges, cid)``; see
#: :attr:`DecodedBlock.chunks`.
Chunk = Tuple[int, Tuple[Handler, ...], Optional[Handler], tuple, int]

#: The issue width every chunk table is computed for (the TimingModel
#: default).  The CPU runs batched accounting -- decoded chunks and the
#: compiled tiers -- only while its timing model has this width and
#: ``DEFAULT_COSTS``.
CHUNK_ISSUE_WIDTH = 4


def compute_global_layout(module: Module) -> Dict[str, int]:
    """Address of every global -- a pure function of the module.

    This is the single source of truth for the global segment layout;
    :meth:`CPU._layout_globals` uses it too, which is what lets the
    decoder pre-fold global operands into plain integers.
    """
    layout: Dict[str, int] = {}
    cursor = GLOBAL_BASE + 16
    for gvar in module.globals.values():
        alignment = max(1, gvar.value_type.alignment)
        cursor = (cursor + alignment - 1) // alignment * alignment
        layout[gvar.name] = cursor
        cursor += max(1, gvar.value_type.size)
    return layout


def _spec(value: Value, layout: Dict[str, int]) -> OperandSpec:
    """Fold an operand to an int where possible, else keep the frame key."""
    if isinstance(value, Constant):
        return True, value.value & _MASK64
    if isinstance(value, GlobalVariable):
        return True, layout[value.name]
    if isinstance(value, UndefValue):
        return True, 0
    return False, value


# ---------------------------------------------------------------------------
# Batched accounting, shared by every tier that charges per chunk
# ---------------------------------------------------------------------------


def _simulate(costs: Sequence[int], width: int, r0: int) -> Tuple[int, int]:
    """Replay the bounded-width issue model over a cost sequence."""
    cycles = 0
    r = r0
    for cost in costs:
        if cost <= 1:
            r += 1
            if r >= width:
                cycles += 1
                r = 0
        else:
            cycles += cost
            r = 0
    return cycles, r


#: composition id -> a chunk's opcodes in order: what one hit of that
#: chunk adds to the opcode histogram and to the retired instructions
#: (``CPU._fold_chunk_hits``), and what a trap inside it replays.
#: Append-only and process-wide, so a composition id stays valid for
#: every CPU and every compiled program, whenever it was allocated.
CHUNK_OPS: List[Tuple[str, ...]] = []


@lru_cache(maxsize=None)
def _chunk_tables(opcodes: Tuple[str, ...]) -> Tuple[Tuple[str, ...], tuple, tuple, int]:
    """``(opcodes, cycles, residues, cid)`` for a chunk's opcode sequence.

    ``cycles[r]`` and ``residues[r]`` are what the chunk charges and the
    issue residue it leaves from entry residue ``r``, under
    ``DEFAULT_COSTS``; ``cid`` indexes :data:`CHUNK_OPS` and the CPU's
    hit counters.  Interned: chunks with the same opcodes share one
    ``opcodes`` tuple, one pair of tables and one id, across blocks,
    functions, modules and tiers.
    """
    costs = [DEFAULT_COSTS.get(name, 1) for name in opcodes]
    runs = [_simulate(costs, CHUNK_ISSUE_WIDTH, r) for r in range(CHUNK_ISSUE_WIDTH)]
    CHUNK_OPS.append(opcodes)
    return (
        opcodes,
        tuple(run[0] for run in runs),
        tuple(run[1] for run in runs),
        len(CHUNK_OPS) - 1,
    )


def _undo_chunk_tail(cpu, timing, opcodes: Sequence[str], k: int, r0: int) -> None:
    """Take back the charges of the ops after op ``k`` of a chunk.

    The chunk (``opcodes``) was charged whole from issue residue ``r0``
    before its first op ran, and op ``k`` trapped.  The reference
    interpreter charges each op just before running it, so the counters
    must read as if nothing after ``k`` had been charged.  ``'phi'``
    pseudo-ops (the trace tier's edge-routing charges) retire
    instructions and issue slots but no step.  Instructions and opcode
    counts are decremented in place: the chunk's hit adds the whole
    chunk to both when the run's hits are folded, and additions commute.
    """
    costs = [DEFAULT_COSTS.get(name, 1) for name in opcodes]
    applied, _ = _simulate(costs, CHUNK_ISSUE_WIDTH, r0)
    actual, residue = _simulate(costs[:k + 1], CHUNK_ISSUE_WIDTH, r0)
    timing.cycles -= applied - actual
    timing._cheap_run = residue
    tail = opcodes[k + 1:]
    if tail:
        timing.instructions -= len(tail)
        counts = timing.opcode_counts
        for name in tail:
            counts[name] -= 1
        cpu.steps -= len(tail) - tail.count("phi")


# ---------------------------------------------------------------------------
# Decoded containers
# ---------------------------------------------------------------------------


class DecodedBlock:
    """One basic block compiled to handler closures plus a terminator."""

    __slots__ = ("source", "ops", "term", "phi_routes", "chunks", "exit", "fused")

    def __init__(self, source: BasicBlock):
        self.source = source
        #: tuple of (opcode, default_cost, impure, handler) entries for
        #: the straight-line body; the cost is pre-resolved from
        #: DEFAULT_COSTS and only trusted when the CPU's timing model
        #: still uses the default cost table, ``impure`` flags handlers
        #: that may re-enter an interpreter loop (calls and fallbacks),
        #: and two kinds of op have no handler (None): an alloca, whose
        #: frame slot the call's frame layout assigns, and an op of a
        #: fused compare (see :func:`_fused_compare`), which the exit
        #: evaluates
        self.ops: Tuple[Tuple[str, int, bool, Optional[Handler]], ...] = ()
        #: ("ret", spec|None) | ("jump", block) | ("br", spec, t, f) | ("fall",)
        self.term: tuple = ("fall",)
        #: predecessor DecodedBlock -> phi routing for that edge; a route
        #: is a tuple of (phi, is_const, payload) triples, or an error
        #: message string when a phi has no incoming for the edge.
        self.phi_routes: Dict["DecodedBlock", object] = {}
        #: the body and terminator as chunks, one tuple each:
        #: ``(n, pure, impure, charges, cid)`` -- ``n`` ops charged at
        #: once (the terminator counts in the last chunk), the pure
        #: handlers that run first, then the chunk's closing impure
        #: handler or None; ``charges[r]`` is what the chunk adds to the
        #: decoded loop's issue state (see :func:`_make_chunk`) from entry
        #: residue ``r``; ``cid`` is the composition id (:data:`CHUNK_OPS`).
        self.chunks: Tuple[Chunk, ...] = ()
        #: how the decoded loop leaves the block: ``(branch, successor,
        #: route)``.  A conditional exit's ``branch(frame)`` returns the
        #: edge ``(successor, route)`` taken; a jump's exit is its one
        #: edge with no ``branch``; a return's is ``(None, None,
        #: result)``, where ``result(frame)`` is the value returned (or
        #: raises, for a block that falls through).  ``route`` is the
        #: successor's phi routing for the edge (:func:`_edge_route`).
        self.exit: tuple = ()
        #: ``(icmp, n)`` when the conditional branch tests ``icmp``
        #: directly and the last ``n`` body ops are its compare chain
        #: (:func:`_fused_compare`), else None; the block and trace
        #: tiers emit the same fused test from it
        self.fused: Optional[Tuple[ICmp, int]] = None


class DecodedProgram:
    """All defined functions of one module, decoded."""

    __slots__ = ("functions", "global_layout", "decode_seconds")

    def __init__(
        self,
        functions: Dict[Function, DecodedBlock],
        global_layout: Dict[str, int],
    ):
        #: Function -> entry DecodedBlock
        self.functions = functions
        self.global_layout = global_layout
        #: wall seconds spent building this decode (set by decode_module)
        self.decode_seconds = 0.0


# ---------------------------------------------------------------------------
# Handler factories
# ---------------------------------------------------------------------------
#
# Each factory returns a closure ``handler(cpu, frame)``.  The factories
# pre-bind everything resolvable at decode time and specialise the hot
# ops on their operand kinds; elsewhere an operand fetch is a pre-bound
# ``v if c else frame[v]`` ternary.  Handlers wrap with ``& mask`` and
# read a ``bits``-wide value as signed with ``((x & mask) ^ sign) - sign``
# (``sign`` is the type's sign bit), inline rather than through the IR
# types.  Frame values and folded constants are always in
# ``[0, 2**64)``, so a 64-bit value needs no mask to be read as signed
# (``(x ^ sign) - sign``) or compared in signed order.
# Handlers do no accounting: the interpreter loop (see
# ``CPU._interpret_decoded``) counts, limit-checks and charges once per
# chunk, and takes back the charges of the ops after one that traps.


#: bits -> ``(mask, sign)``: the wrap mask and the sign bit of every
#: integer width, one pair of ints that every handler shares.
_MASK_SIGN = {bits: ((1 << bits) - 1, 1 << (bits - 1)) for bits in (1, 8, 16, 32, 64)}


def _mask_sign(vtype) -> Tuple[int, int]:
    """``(mask, sign)`` of a value type (a pointer is 64 bits wide)."""
    return _MASK_SIGN[vtype.bits if isinstance(vtype, IntType) else 64]


def _make_load(inst: Load, layout: Dict[str, int]) -> Handler:
    # The sized access is inline (see the Memory class docstring): one
    # window index and an unpack, with the generic path on a miss.
    pc, pv = _spec(inst.pointer, layout)
    size = max(1, inst.type.size)
    codec = SIZED_CODECS.get(size)
    if codec is None:
        def handler(cpu, frame, inst=inst, pc=pc, pv=pv, size=size):
            address = pv if pc else frame[pv]
            if address == 0:
                raise NullPointerTrap(f"load through null in {inst}")
            if cpu.cache is not None:
                cpu._cache_access(address, size)
            frame[inst] = cpu.memory.read_int(address, size)
    elif pc:
        def handler(cpu, frame, inst=inst, address=pv, size=size, unpack=codec[0],
                    window=pv >> 32, offset=pv & WINDOW_MASK):
            if address == 0:
                raise NullPointerTrap(f"load through null in {inst}")
            if cpu.cache is not None:
                cpu._cache_access(address, size)
            try:
                frame[inst] = unpack(cpu.memory.windows[window], offset)[0]
            except FAST_MISS:
                frame[inst] = cpu.memory.read_int(address, size)
    else:
        def handler(cpu, frame, inst=inst, ptr=pv, size=size, unpack=codec[0]):
            address = frame[ptr]
            if address == 0:
                raise NullPointerTrap(f"load through null in {inst}")
            if cpu.cache is not None:
                cpu._cache_access(address, size)
            try:
                frame[inst] = unpack(
                    cpu.memory.windows[address >> 32], address & WINDOW_MASK
                )[0]
            except FAST_MISS:
                frame[inst] = cpu.memory.read_int(address, size)
    return handler


def _make_store(inst: Store, layout: Dict[str, int]) -> Handler:
    # A value out of the width's range (a constant is masked here) makes
    # the pack raise struct.error, and write_int masks it.
    vc, vv = _spec(inst.value, layout)
    pc, pv = _spec(inst.pointer, layout)
    size = max(1, inst.value.type.size)
    codec = SIZED_CODECS.get(size)
    if codec is None:
        def handler(cpu, frame, inst=inst, vc=vc, vv=vv, pc=pc, pv=pv, size=size):
            address = pv if pc else frame[pv]
            if address == 0:
                raise NullPointerTrap(f"store through null in {inst}")
            if cpu.cache is not None:
                cpu._cache_access(address, size)
            cpu.memory.write_int(address, vv if vc else frame[vv], size)

        return handler
    if vc:
        vv &= (1 << (8 * size)) - 1

    def handler(cpu, frame, inst=inst, vc=vc, vv=vv, pc=pc, pv=pv, size=size,
                pack=codec[1]):
        address = pv if pc else frame[pv]
        if address == 0:
            raise NullPointerTrap(f"store through null in {inst}")
        if cpu.cache is not None:
            cpu._cache_access(address, size)
        value = vv if vc else frame[vv]
        try:
            pack(cpu.memory.write_windows[address >> 32], address & WINDOW_MASK, value)
        except FAST_MISS:
            cpu.memory.write_int(address, value, size)

    return handler


def _gep_plan(
    inst: GetElementPtr, layout: Dict[str, int]
) -> Optional[Tuple[bool, object, int, Tuple[Tuple[Value, int], ...]]]:
    """Resolve a gep to ``(base_c, base_v, const_off, dyn_terms)``.

    Shared by the decoded and block tiers so both make identical
    specialisation decisions.  Returns ``None`` for a malformed gep
    (the reference interpreter raises at runtime) and raises
    ``_DecodeFallback`` for a dynamic struct index.
    """
    base_c, base_v = _spec(inst.pointer, layout)
    pointee = inst.pointer.type.pointee  # type: ignore[union-attr]
    const_off = 0
    dyn: List[Tuple[Value, int]] = []

    c, v = _spec(inst.indices[0], layout)
    stride = max(1, pointee.size)
    if c:
        const_off += _to_signed64(v) * stride
    else:
        dyn.append((v, stride))
    current = pointee
    for index in inst.indices[1:]:
        if isinstance(current, ArrayType):
            c, v = _spec(index, layout)
            stride = max(1, current.element.size)
            if c:
                const_off += _to_signed64(v) * stride
            else:
                dyn.append((v, stride))
            current = current.element
        elif isinstance(current, StructType):
            c, v = _spec(index, layout)
            if not c:
                # dynamic struct index: fall back to interpretive walk
                raise _DecodeFallback
            const_off += current.field_offset(v)
            current = current.field_type(v)
        else:
            return None
    return base_c, base_v, const_off, tuple(dyn)


def _make_gep(inst: GetElementPtr, layout: Dict[str, int]) -> Handler:
    plan = _gep_plan(inst, layout)
    if plan is None:
        # malformed gep: the reference interpreter raises at runtime
        def handler(cpu, frame, inst=inst):
            raise RuntimeError(f"malformed gep: {inst}")

        return handler
    base_c, base_v, const_off, dyn = plan
    # A dynamic index is signed: (x ^ S) - S with S the 64-bit sign bit,
    # whose ``- S * stride`` folds into the constant offset.
    off = const_off
    for _, stride in dyn:
        off -= _SIGN64 * stride

    if not dyn:
        if base_c:
            result = (base_v + off) & _MASK64

            def handler(cpu, frame, inst=inst, result=result):
                frame[inst] = result
        else:
            def handler(cpu, frame, inst=inst, base=base_v, off=off, mask=_MASK64):
                frame[inst] = (frame[base] + off) & mask
    elif len(dyn) == 1:
        key, stride = dyn[0]
        if base_c:
            def handler(cpu, frame, inst=inst, base=base_v + off, key=key,
                        stride=stride, sign=_SIGN64, mask=_MASK64):
                frame[inst] = (base + (frame[key] ^ sign) * stride) & mask
        else:
            def handler(cpu, frame, inst=inst, base=base_v, off=off, key=key,
                        stride=stride, sign=_SIGN64, mask=_MASK64):
                frame[inst] = (frame[base] + off + (frame[key] ^ sign) * stride) & mask
    else:
        def handler(cpu, frame, inst=inst, base_c=base_c, base=base_v, off=off,
                    dyn=dyn, sign=_SIGN64, mask=_MASK64):
            address = (base if base_c else frame[base]) + off
            for key, stride in dyn:
                address += (frame[key] ^ sign) * stride
            frame[inst] = address & mask

    return handler


_ARITHMETIC = {"add": add, "sub": sub, "mul": mul, "and": and_, "or": or_, "xor": xor}
_SHIFTS = {"shl": lshift, "lshr": rshift}


def _make_binop(inst: BinOp, layout: Dict[str, int]) -> Handler:
    op = inst.op
    mask, sign = _mask_sign(inst.type)
    bits = mask.bit_length()
    lc, lv = _spec(inst.lhs, layout)
    rc, rv = _spec(inst.rhs, layout)
    if op == "sub" and rc and not lc:
        op, rv = "add", -rv  # (x - c) & mask == (x + -c) & mask
    if op == "add" and lc and not rc:
        lc, lv, rc, rv = rc, rv, lc, lv

    if op == "add" and not lc:
        if rc:
            def handler(cpu, frame, inst=inst, key=lv, rv=rv, mask=mask):
                frame[inst] = (frame[key] + rv) & mask
        else:
            def handler(cpu, frame, inst=inst, lv=lv, rv=rv, mask=mask):
                frame[inst] = (frame[lv] + frame[rv]) & mask
    elif op == "sub" and not (lc or rc):
        def handler(cpu, frame, inst=inst, lv=lv, rv=rv, mask=mask):
            frame[inst] = (frame[lv] - frame[rv]) & mask
    elif op in _ARITHMETIC:
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv,
                    fn=_ARITHMETIC[op], mask=mask):
            frame[inst] = fn(lv if lc else frame[lv], rv if rc else frame[rv]) & mask
    elif op in _SHIFTS:
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv,
                    fn=_SHIFTS[op], bits=bits, mask=mask):
            frame[inst] = fn(lv if lc else frame[lv], (rv if rc else frame[rv]) % bits) & mask
    elif op == "ashr":
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv,
                    bits=bits, mask=mask, sign=sign):
            a = (((lv if lc else frame[lv]) & mask) ^ sign) - sign
            frame[inst] = (a >> ((rv if rc else frame[rv]) % bits)) & mask
    elif op in ("sdiv", "srem"):
        srem = op == "srem"
        message = f"integer {'remainder' if srem else 'divide'} by zero"

        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv,
                    mask=mask, sign=sign, srem=srem, message=message):
            a = (((lv if lc else frame[lv]) & mask) ^ sign) - sign
            b = (((rv if rc else frame[rv]) & mask) ^ sign) - sign
            if b == 0:
                raise MemoryFault(0, 0, message)
            frame[inst] = (a - int(a / b) * b if srem else int(a / b)) & mask
    else:
        def handler(cpu, frame, op=op):
            raise RuntimeError(f"unknown binop {op}")

    return handler


#: icmp predicate -> (comparison, whether it orders the operands as signed)
_PREDICATES = {
    "eq": (eq, False),
    "ne": (ne, False),
    "slt": (lt, True),
    "sle": (le, True),
    "sgt": (gt, True),
    "sge": (ge, True),
    "ult": (lt, False),
    "ule": (le, False),
    "ugt": (gt, False),
    "uge": (ge, False),
}
#: a comparison with its operands swapped
_SWAPPED = {eq: eq, ne: ne, lt: gt, le: ge, gt: lt, ge: le}


def _make_compare(inst: ICmp, layout: Dict[str, int], if_true, if_false):
    """``compare(frame)``: ``if_true`` when ``inst`` holds, else ``if_false``.

    The icmp handler stores its result (1 or 0) through one; a fused
    compare-and-branch exit returns its taken edge from another.  A
    signed predicate compares ``(x & mask) ^ sign``: flipping the sign
    bit maps the signed order of ``bits``-wide values onto the unsigned
    one.  Unsigned predicates, and every predicate on pointers, compare
    the raw frame values, as the reference does.
    """
    test, signed = _PREDICATES[inst.predicate]
    mask, sign = _MASK64, 0
    if signed and isinstance(inst.lhs.type, IntType):
        mask, sign = _mask_sign(inst.lhs.type)
    lc, lv = _spec(inst.lhs, layout)
    rc, rv = _spec(inst.rhs, layout)
    if lc and not rc:
        lc, lv, rc, rv, test = rc, rv, lc, lv, _SWAPPED[test]
    if lc:
        result = if_true if test((lv & mask) ^ sign, (rv & mask) ^ sign) else if_false

        def compare(frame, result=result):
            return result
    elif mask != _MASK64:
        if rc:
            def compare(frame, key=lv, rv=(rv & mask) ^ sign, test=test, mask=mask,
                        sign=sign, t=if_true, f=if_false):
                return t if test((frame[key] & mask) ^ sign, rv) else f
        else:
            def compare(frame, lv=lv, rv=rv, test=test, mask=mask, sign=sign,
                        t=if_true, f=if_false):
                return t if test((frame[lv] & mask) ^ sign, (frame[rv] & mask) ^ sign) else f
    elif rc:
        def compare(frame, key=lv, rv=rv ^ sign, test=test, sign=sign,
                    t=if_true, f=if_false):
            return t if test(frame[key] ^ sign, rv) else f
    else:
        def compare(frame, lv=lv, rv=rv, test=test, sign=sign, t=if_true, f=if_false):
            return t if test(frame[lv] ^ sign, frame[rv] ^ sign) else f
    return compare


def _make_icmp(inst: ICmp, layout: Dict[str, int]) -> Handler:
    def handler(cpu, frame, inst=inst, compare=_make_compare(inst, layout, 1, 0)):
        frame[inst] = compare(frame)

    return handler


def _make_cast(inst: Cast, layout: Dict[str, int]) -> Handler:
    op = inst.op
    vc, vv = _spec(inst.value, layout)
    mask, _ = _mask_sign(inst.type)
    source = inst.value.type
    if op == "sext" and isinstance(source, IntType):
        smask, sign = _mask_sign(source)
        if vc:
            result = (((vv & smask) ^ sign) - sign) & mask
        else:
            def handler(cpu, frame, inst=inst, key=vv, smask=smask, sign=sign, mask=mask):
                frame[inst] = (((frame[key] & smask) ^ sign) - sign) & mask

            return handler
    elif op in ("trunc", "zext", "sext", "ptrtoint", "inttoptr", "bitcast"):
        if vc:
            result = vv & mask
        else:
            def handler(cpu, frame, inst=inst, key=vv, mask=mask):
                frame[inst] = frame[key] & mask

            return handler
    else:
        def handler(cpu, frame, op=op):
            raise RuntimeError(f"unknown cast {op}")

        return handler

    def handler(cpu, frame, inst=inst, result=result):
        frame[inst] = result

    return handler


def _make_select(inst: Select, layout: Dict[str, int]) -> Handler:
    cc, cv = _spec(inst.condition, layout)
    tc, tv = _spec(inst.true_value, layout)
    fc, fv = _spec(inst.false_value, layout)

    def handler(cpu, frame, inst=inst, cc=cc, cv=cv, tc=tc, tv=tv, fc=fc, fv=fv):
        if (cv if cc else frame[cv]) & 1:
            frame[inst] = tv if tc else frame[tv]
        else:
            frame[inst] = fv if fc else frame[fv]

    return handler


def _make_call(inst: Call, layout: Dict[str, int]) -> Handler:
    specs = tuple(_spec(argument, layout) for argument in inst.args)
    callee = inst.callee
    if inst.type.is_void:
        def handler(cpu, frame, callee=callee, specs=specs):
            cpu._call(callee, [v if c else frame[v] for c, v in specs])
    else:
        def handler(cpu, frame, inst=inst, callee=callee, specs=specs):
            result = cpu._call(callee, [v if c else frame[v] for c, v in specs])
            frame[inst] = 0 if result is None else result
    return handler


def _make_pac_sign(inst: PacSign, layout: Dict[str, int]) -> Handler:
    vc, vv = _spec(inst.value, layout)
    mc, mv = _spec(inst.modifier, layout)

    def handler(cpu, frame, inst=inst, vc=vc, vv=vv, mc=mc, mv=mv, key=inst.key_id):
        frame[inst] = cpu.pac.sign(vv if vc else frame[vv], mv if mc else frame[mv], key)

    return handler


def _make_pac_auth(inst: PacAuth, layout: Dict[str, int]) -> Handler:
    vc, vv = _spec(inst.value, layout)
    mc, mv = _spec(inst.modifier, layout)

    def handler(cpu, frame, inst=inst, vc=vc, vv=vv, mc=mc, mv=mv, key=inst.key_id):
        frame[inst] = cpu.pac.auth(vv if vc else frame[vv], mv if mc else frame[mv], key)

    return handler


def _make_sec_assert(inst: SecAssert, layout: Dict[str, int]) -> Handler:
    cc, cv = _spec(inst.condition, layout)

    def handler(cpu, frame, cc=cc, cv=cv, kind=inst.kind):
        if not ((cv if cc else frame[cv]) & 1):
            raise CanaryTrap(f"{kind} check failed")

    return handler


def _make_dfi_setdef(inst: DfiSetDef, layout: Dict[str, int]) -> Handler:
    pc, pv = _spec(inst.pointer, layout)

    def handler(cpu, frame, pc=pc, pv=pv, size=inst.size, def_id=inst.def_id):
        cpu.dfi_shadow.set_range(pv if pc else frame[pv], size, def_id)

    return handler


def _make_dfi_chkdef(inst: DfiChkDef, layout: Dict[str, int]) -> Handler:
    pc, pv = _spec(inst.pointer, layout)

    def handler(cpu, frame, pc=pc, pv=pv, size=inst.size, allowed=inst.allowed):
        violation = cpu.dfi_shadow.check_range(pv if pc else frame[pv], size, allowed)
        if violation is not None:
            raise DfiTrap(violation[0], violation[1], allowed)

    return handler


class _DecodeFallbackError(Exception):
    """Signal that an instruction resists specialised decoding."""


_DecodeFallback = _DecodeFallbackError()


def _make_fallback(inst: Instruction) -> Handler:
    """Interpretive execution via the reference semantics."""
    from .oracle import execute

    def handler(cpu, frame, inst=inst, execute=execute):
        execute(cpu, inst, frame)

    return handler


_DECODERS = {
    Alloca: lambda inst, layout: None,
    Load: _make_load,
    Store: _make_store,
    GetElementPtr: _make_gep,
    BinOp: _make_binop,
    ICmp: _make_icmp,
    Cast: _make_cast,
    Select: _make_select,
    Call: _make_call,
    PacSign: _make_pac_sign,
    PacAuth: _make_pac_auth,
    SecAssert: _make_sec_assert,
    DfiSetDef: _make_dfi_setdef,
    DfiChkDef: _make_dfi_chkdef,
}


def _decode_instruction(
    inst: Instruction, layout: Dict[str, int]
) -> Tuple[str, int, bool, Optional[Handler]]:
    opcode = inst.opcode
    cost = DEFAULT_COSTS.get(opcode, 1)
    maker = _DECODERS.get(type(inst))
    if maker is not None:
        try:
            # ``impure`` marks handlers that may re-enter an interpreter
            # loop (calls); the decoded loop syncs its local counter
            # mirrors with the CPU around exactly those ops.
            return opcode, cost, isinstance(inst, Call), maker(inst, layout)
        except Exception:
            # Anything the specialiser cannot prove at decode time is
            # handed to the reference semantics at runtime instead --
            # including decode-time surprises the reference interpreter
            # would only raise when (and if) the instruction executes.
            pass
    return opcode, cost, True, _make_fallback(inst)


# ---------------------------------------------------------------------------
# Function and module decode
# ---------------------------------------------------------------------------


#: Terminator kind -> the opcode it is charged as.
_TERM_OPCODES = {"ret": "ret", "jump": "br", "br": "br"}


def _chunk_block(ops, term: tuple) -> Tuple[Chunk, ...]:
    """Split a block's ops and terminator charge into chunks.

    A chunk ends after each impure op, which must run with every earlier
    charge of its block applied and none of the later ones; the
    terminator's charge joins the last chunk.
    """
    chunks = []
    start = 0
    for end, op in enumerate(ops, 1):
        if op[2]:
            chunks.append(_make_chunk(ops[start:end - 1], op[0], op[3]))
            start = end
    closing = _TERM_OPCODES.get(term[0])
    if start < len(ops) or closing is not None:
        chunks.append(_make_chunk(ops[start:], closing, None))
    return tuple(chunks)


def _make_chunk(pure_ops, closing, impure) -> Chunk:
    """One chunk: ``pure_ops``, then the ``closing`` opcode if any (an
    impure op's, whose handler is ``impure``, or the terminator's).

    The decoded loop keeps the issue model's state in one int, ``4 *
    cycles + residue`` at the default issue width: a cheap op adds 1
    (carrying into the cycles at the width), and a chunk entered at
    residue ``r`` adds ``charges[r]``.  An op without a handler (an
    alloca, or an op of the compare the block's exit evaluates) is
    charged and runs nothing.
    """
    opcodes = [op[0] for op in pure_ops]
    if closing is not None:
        opcodes.append(closing)
    opcodes = tuple(opcodes)
    return (
        len(opcodes),
        tuple([op[3] for op in pure_ops if op[3] is not None]),
        impure,
    ) + _chunk_charges(opcodes)


@lru_cache(maxsize=None)
def _chunk_charges(opcodes: Tuple[str, ...]) -> Tuple[tuple, int]:
    """``(charges, cid)`` of a chunk's opcode sequence, interned."""
    _, cycles, residues, cid = _chunk_tables(opcodes)
    charges = tuple(
        CHUNK_ISSUE_WIDTH * cycles[r] + residues[r] - r
        for r in range(CHUNK_ISSUE_WIDTH)
    )
    return charges, cid


def _chunk_start(block: DecodedBlock, pure: tuple, impure) -> int:
    """The op index where ``block``'s chunk with these handlers starts:
    chunks of one composition can repeat in a block, but no two chunks
    share their handlers."""
    start = 0
    for chunk in block.chunks:
        if chunk[1] is pure and chunk[2] is impure:
            break
        start += chunk[0]
    return start


#: The decoded ops of a fused compare's last one or three body ops
#: (:func:`_fused_compare`): charged, with no handler to run.
_FUSED_OPS = tuple(
    (opcode, DEFAULT_COSTS.get(opcode, 1), False, None)
    for opcode in ("icmp", "zext", "icmp")
)


def _fused_compare(body: List[Instruction], branch: CondBranch):
    """``(icmp, n)``: the compare a conditional branch tests directly and
    the number of trailing body ops that covers, or ``(None, 0)``.

    ``icmp P a, b; br`` fuses when the branch is the compare's only use,
    and the frontend's lowering of every C condition, ``icmp P a, b;
    zext; icmp ne %z, 0; br``, when none of the three values has another
    use: the branch is taken exactly when ``icmp P a, b`` holds.  The
    covered ops keep their charges but get no handler.
    """
    cond = branch.condition
    if not (body and body[-1] is cond and isinstance(cond, ICmp)
            and len(cond.uses) == 1):
        return None, 0
    rhs = cond.rhs
    if (len(body) >= 3 and cond.predicate == "ne"
            and isinstance(rhs, Constant) and rhs.value == 0):
        zext, inner = body[-2], body[-3]
        if (cond.lhs is zext and isinstance(zext, Cast) and zext.op == "zext"
                and len(zext.uses) == 1 and zext.value is inner
                and isinstance(inner, ICmp) and len(inner.uses) == 1):
            return inner, 3
    return cond, 1


def _edge_route(route) -> Optional[tuple]:
    """A phi route (:attr:`DecodedBlock.phi_routes`) as the decoded loop
    applies it on its edge: None without phis, else ``(n, phi, is_const,
    payload)`` -- one phi and its incoming spec; or, for ``n > 1``, the
    phis and a reader returning every incoming value at once (parallel
    evaluation: all are read before any is written).  A route whose phi
    has no incoming reads its error message as a frame key, raising
    ``KeyError(message)`` before any phi is written.
    """
    if route is None:
        return None
    if route.__class__ is str:
        return 1, None, False, route
    if len(route) == 1:
        return (1,) + route[0]
    phis = tuple(phi for phi, _, _ in route)
    if not any(constant for _, constant, _ in route):
        return len(route), phis, False, itemgetter(*(key for _, _, key in route))
    specs = tuple((constant, payload) for _, constant, payload in route)

    def reader(frame, specs=specs):
        return [payload if constant else frame[payload] for constant, payload in specs]

    return len(route), phis, False, reader


def _return_none(frame):
    return None


def _make_exit(dblock: DecodedBlock, edges: list, layout) -> tuple:
    """``dblock``'s :attr:`~DecodedBlock.exit`, given the ``(successor,
    route)`` edges of its terminator."""
    term = dblock.term
    kind = term[0]
    if kind == "jump":
        return (None,) + edges[0]
    if kind == "br":
        taken, other = edges
        if dblock.fused is not None:
            return _make_compare(dblock.fused[0], layout, taken, other), None, None
        constant, payload = term[1]
        if constant:
            return (None,) + (taken if payload & 1 else other)

        def branch(frame, key=payload, t=taken, f=other):
            return t if frame[key] & 1 else f

        return branch, None, None
    if kind == "ret":
        spec = term[1]
        if spec is None:
            return None, None, _return_none
        constant, payload = spec
        if constant:
            return None, None, lambda frame, value=payload: value
        return None, None, itemgetter(payload)
    source = dblock.source
    owner = source.parent.name if source.parent is not None else "?"
    message = f"block %{source.name} in @{owner} fell through"

    def fall_through(frame):
        raise RuntimeError(message)

    return None, None, fall_through


def _decode_function(function: Function, layout: Dict[str, int]) -> DecodedBlock:
    dmap: Dict[BasicBlock, DecodedBlock] = {}
    pending: List[BasicBlock] = []

    def get(block: BasicBlock) -> DecodedBlock:
        dblock = dmap.get(block)
        if dblock is None:
            dblock = DecodedBlock(block)
            dmap[block] = dblock
            pending.append(block)
        return dblock

    entry = get(function.entry_block)
    while pending:
        block = pending.pop()
        dblock = dmap[block]
        body: List[Instruction] = []
        inst = None
        for inst in block.instructions[block.first_non_phi_index():]:
            if isinstance(inst, (Ret, Jump, CondBranch)):
                break
            body.append(inst)
        covered = 0
        if isinstance(inst, Ret):
            term: tuple = ("ret", None if inst.value is None else _spec(inst.value, layout))
        elif isinstance(inst, Jump):
            term = ("jump", get(inst.target))
        elif isinstance(inst, CondBranch):
            term = (
                "br",
                _spec(inst.condition, layout),
                get(inst.true_block),
                get(inst.false_block),
            )
            compare, covered = _fused_compare(body, inst)
            if compare is not None:
                dblock.fused = (compare, covered)
        else:
            term = ("fall",)
        ops = [_decode_instruction(inst, layout) for inst in body[:len(body) - covered]]
        dblock.ops = tuple(ops) + _FUSED_OPS[len(_FUSED_OPS) - covered:]
        dblock.term = term
        dblock.chunks = _chunk_block(dblock.ops, term)

    # Phi routing, per decoded CFG edge, and each block's exit.
    for block, dblock in dmap.items():
        term = dblock.term
        if term[0] == "jump":
            successors = (term[1],)
        elif term[0] == "br":
            successors = (term[2], term[3])
        else:
            successors = ()
        edges = []
        for sdblock in successors:
            phis = sdblock.source.phis
            route: object = None
            if phis:
                specs: List[Tuple[Phi, bool, object]] = []
                for phi in phis:
                    try:
                        incoming = phi.incoming_for_block(block)
                    except KeyError:
                        route = f"phi has no incoming for block {block.name}"
                        break
                    c, v = _spec(incoming, layout)
                    specs.append((phi, c, v))
                else:
                    route = tuple(specs)
                sdblock.phi_routes[dblock] = route
            edges.append((sdblock, _edge_route(route)))
        dblock.exit = _make_exit(dblock, edges, layout)
    return entry


#: Sentinel of the block and trace tiers: generated functions return
#: ``(BLOCK_RET, value)`` from ``ret`` terminators and the successor's
#: ``(BlockCode, None)`` ``self_pair`` otherwise (phi routing runs inline
#: in the terminator before the pair is returned).  It lives here, not in
#: the compiler (:mod:`~repro.hardware.tracec`), so the CPU's dispatch
#: loops can test for it without loading it.
BLOCK_RET = object()


def decode_module(
    module: Module, memo: Optional[Dict[object, object]] = None
) -> Tuple[DecodedProgram, float]:
    """Decode ``module`` (or return the decode in its ``"decoded"`` memo slot).

    ``memo`` is ``module.derived()`` when the caller already holds it.
    Returns ``(program, seconds)`` where ``seconds`` is the decode time
    actually spent by *this* call -- ``0.0`` on a cache hit.
    """
    if memo is None:
        memo = module.derived()
    cached = memo.get("decoded")
    if cached is not None:
        return cached, 0.0
    start = time.perf_counter()
    layout = compute_global_layout(module)
    functions = {
        function: _decode_function(function, layout)
        for function in module.defined_functions()
    }
    program = DecodedProgram(functions, layout)
    elapsed = time.perf_counter() - start
    program.decode_seconds = elapsed
    memo["decoded"] = program
    return program, elapsed
