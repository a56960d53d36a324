"""Pre-decoded interpreter dispatch: compile IR once, execute many times.

The reference interpreter in :mod:`repro.hardware.cpu` resolves every
dynamic step through a long ``isinstance`` chain and re-resolves every
operand (constant? global? frame slot?) on each execution.  For the
evaluation pipeline -- 16 benchmarks x 4 schemes, plus brute-force
attack campaigns that re-execute one module thousands of times -- that
dispatch is the dominant cost of the whole reproduction.

This module performs that resolution *once per module*:

- every instruction is compiled to a bound handler closure
  ``handler(cpu, frame)`` specialised on its opcode and operand kinds;
- constant and global operands are pre-folded to plain integers
  (the global segment layout is a pure function of the module);
- ``getelementptr`` strides for constant indices are pre-resolved into
  a single constant offset plus a short list of dynamic (slot, stride)
  terms;
- phi routing is precomputed per CFG edge, and the first-non-phi index
  disappears entirely (decoded blocks simply begin after the phis);
- terminators are decoded into direct links between decoded blocks.

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
cycles, one per-CPU hit counter keyed by the composition id -- and
then calls its handlers with no per-op bookkeeping; the opcode
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
taken back (:func:`_undo_chunk_tail`).  The order of cycle
accumulation within a chunk differs from the reference, but every
charge in the model is a dyadic rational (integer costs, 0.25-per-byte
library calls), so float accumulation is exact and order-insensitive.
Chunk tables bake in ``DEFAULT_COSTS`` and the default issue width; a
CPU with another cost table or width, and a chunk that would cross the
step limit, run the per-op loop (:func:`repro.hardware.oracle.interpret_exact`)
instead.
(The one deliberate difference: using a value that was never computed
-- malformed, unverified IR -- surfaces as a ``KeyError`` rather than
the reference interpreter's ``RuntimeError``, possibly with a different
count of phi charges applied.)
"""

from __future__ import annotations

import time
from functools import lru_cache
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
from .memory import GLOBAL_BASE, MemoryFault
from .timing import DEFAULT_COSTS

_MASK64 = (1 << 64) - 1
_to_signed64 = I64.to_signed

#: An operand spec: ``(True, folded_int)`` or ``(False, frame_key)``.
OperandSpec = Tuple[bool, Union[int, Value]]
#: A decoded non-terminator step: ``(opcode, default_cost, impure, handler)``.
Handler = Callable[["object", Dict[Value, int]], None]
#: ``(n, pure_handlers, impure_handler, cycles, residues, cid)``; see
#: :attr:`DecodedBlock.chunks`.
Chunk = Tuple[int, Tuple[Handler, ...], Optional[Handler], tuple, tuple, int]

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

    __slots__ = ("source", "ops", "term", "phi_routes", "chunks")

    def __init__(self, source: BasicBlock):
        self.source = source
        #: tuple of (opcode, default_cost, impure, handler) entries for
        #: the straight-line body; the cost is pre-resolved from
        #: DEFAULT_COSTS and only trusted when the CPU's timing model
        #: still uses the default cost table, and ``impure`` flags
        #: handlers that may re-enter an interpreter loop (calls and
        #: fallbacks)
        self.ops: Tuple[Tuple[str, int, bool, Handler], ...] = ()
        #: ("ret", spec|None) | ("jump", block) | ("br", spec, t, f) | ("fall",)
        self.term: tuple = ("fall",)
        #: predecessor DecodedBlock -> phi routing for that edge; a route
        #: is a tuple of (phi, is_const, payload) triples, or an error
        #: message string when a phi has no incoming for the edge.
        self.phi_routes: Dict["DecodedBlock", object] = {}
        #: the body and terminator as chunks, one tuple each:
        #: ``(n, pure, impure, cycles, residues, cid)`` -- ``n`` ops
        #: charged at once (the terminator counts in the last chunk),
        #: the pure handlers that run first, then the chunk's closing
        #: impure handler or None; ``cycles[r]``/``residues[r]`` are the
        #: cycles charged and issue residue left from entry residue
        #: ``r``; ``cid`` is the composition id (:data:`CHUNK_OPS`).
        self.chunks: Tuple[Chunk, ...] = ()


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
# pre-bind everything resolvable at decode time; operand fetches use a
# pre-bound ``v if c else frame[v]`` ternary, which costs two trivial
# bytecodes when the operand is constant and nothing when it is not.
# Handlers do no accounting: the interpreter loop (see
# ``CPU._interpret_decoded``) counts, limit-checks and charges once per
# chunk, before the chunk's handlers run, and takes back the charges
# of the ops after one that traps.


def _make_alloca(inst: Alloca, layout: Dict[str, int]) -> Handler:
    # Frame addresses are assigned by CPU._layout_frame; executing an
    # alloca only charges its (zero-cost) opcode, done by the loop.
    def handler(cpu, frame):
        return None

    return handler


def _make_load(inst: Load, layout: Dict[str, int]) -> Handler:
    pc, pv = _spec(inst.pointer, layout)
    size = max(1, inst.type.size)
    if pc:
        def handler(cpu, frame, inst=inst, address=pv, size=size):
            if address == 0:
                raise NullPointerTrap(f"load through null in {inst}")
            if cpu.cache is not None:
                cpu._cache_access(address, size)
            frame[inst] = cpu.memory.read_int(address, size)
    else:
        def handler(cpu, frame, inst=inst, ptr=pv, size=size):
            address = frame[ptr]
            if address == 0:
                raise NullPointerTrap(f"load through null in {inst}")
            if cpu.cache is not None:
                cpu._cache_access(address, size)
            frame[inst] = cpu.memory.read_int(address, size)
    return handler


def _make_store(inst: Store, layout: Dict[str, int]) -> Handler:
    vc, vv = _spec(inst.value, layout)
    pc, pv = _spec(inst.pointer, layout)
    size = max(1, inst.value.type.size)

    def handler(cpu, frame, inst=inst, vc=vc, vv=vv, pc=pc, pv=pv, size=size):
        address = pv if pc else frame[pv]
        if address == 0:
            raise NullPointerTrap(f"store through null in {inst}")
        if cpu.cache is not None:
            cpu._cache_access(address, size)
        cpu.memory.write_int(address, vv if vc else frame[vv], size)

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

    if not dyn:
        if base_c:
            result = (base_v + const_off) & _MASK64

            def handler(cpu, frame, inst=inst, result=result):
                frame[inst] = result
        else:
            def handler(cpu, frame, inst=inst, base=base_v, off=const_off):
                frame[inst] = (frame[base] + off) & _MASK64
    elif len(dyn) == 1:
        key, stride = dyn[0]
        if base_c:
            folded = base_v + const_off

            def handler(cpu, frame, inst=inst, base=folded, key=key,
                        stride=stride, ts=_to_signed64):
                frame[inst] = (base + ts(frame[key]) * stride) & _MASK64
        else:
            def handler(cpu, frame, inst=inst, base=base_v, off=const_off,
                        key=key, stride=stride, ts=_to_signed64):
                frame[inst] = (frame[base] + off + ts(frame[key]) * stride) & _MASK64
    else:
        def handler(cpu, frame, inst=inst, base_c=base_c, base=base_v,
                    off=const_off, dyn=tuple(dyn), ts=_to_signed64):
            address = (base if base_c else frame[base]) + off
            for key, stride in dyn:
                address += ts(frame[key]) * stride
            frame[inst] = address & _MASK64

    return handler


def _make_binop(inst: BinOp, layout: Dict[str, int]) -> Handler:
    op = inst.op
    vtype = inst.type
    lc, lv = _spec(inst.lhs, layout)
    rc, rv = _spec(inst.rhs, layout)
    if isinstance(vtype, IntType):
        wrap = vtype.wrap
        signed = vtype.to_signed
        bits = vtype.bits
    else:  # pointer arithmetic through int ops on addresses
        wrap = lambda v: v & _MASK64  # noqa: E731
        signed = _to_signed64
        bits = 64

    if op == "add":
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv, wrap=wrap):
            frame[inst] = wrap((lv if lc else frame[lv]) + (rv if rc else frame[rv]))
    elif op == "sub":
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv, wrap=wrap):
            frame[inst] = wrap((lv if lc else frame[lv]) - (rv if rc else frame[rv]))
    elif op == "mul":
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv, wrap=wrap):
            frame[inst] = wrap((lv if lc else frame[lv]) * (rv if rc else frame[rv]))
    elif op == "sdiv":
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv,
                    wrap=wrap, signed=signed):
            a = signed(lv if lc else frame[lv])
            b = signed(rv if rc else frame[rv])
            if b == 0:
                raise MemoryFault(0, 0, "integer divide by zero")
            frame[inst] = wrap(int(a / b))
    elif op == "srem":
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv,
                    wrap=wrap, signed=signed):
            a = signed(lv if lc else frame[lv])
            b = signed(rv if rc else frame[rv])
            if b == 0:
                raise MemoryFault(0, 0, "integer remainder by zero")
            frame[inst] = wrap(a - int(a / b) * b)
    elif op == "and":
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv, wrap=wrap):
            frame[inst] = wrap((lv if lc else frame[lv]) & (rv if rc else frame[rv]))
    elif op == "or":
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv, wrap=wrap):
            frame[inst] = wrap((lv if lc else frame[lv]) | (rv if rc else frame[rv]))
    elif op == "xor":
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv, wrap=wrap):
            frame[inst] = wrap((lv if lc else frame[lv]) ^ (rv if rc else frame[rv]))
    elif op == "shl":
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv,
                    wrap=wrap, bits=bits):
            frame[inst] = wrap((lv if lc else frame[lv]) << ((rv if rc else frame[rv]) % bits))
    elif op == "ashr":
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv,
                    wrap=wrap, signed=signed, bits=bits):
            frame[inst] = wrap(signed(lv if lc else frame[lv]) >> ((rv if rc else frame[rv]) % bits))
    elif op == "lshr":
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv,
                    wrap=wrap, bits=bits):
            frame[inst] = wrap((lv if lc else frame[lv]) >> ((rv if rc else frame[rv]) % bits))
    else:
        def handler(cpu, frame, op=op):
            raise RuntimeError(f"unknown binop {op}")

    return handler


_UNSIGNED_PREDICATES = ("eq", "ne", "ult", "ule", "ugt", "uge")
_CMP_TESTS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
    "ult": lambda a, b: a < b,
    "ule": lambda a, b: a <= b,
    "ugt": lambda a, b: a > b,
    "uge": lambda a, b: a >= b,
}


def _make_icmp(inst: ICmp, layout: Dict[str, int]) -> Handler:
    predicate = inst.predicate
    test = _CMP_TESTS[predicate]
    vtype = inst.lhs.type
    lc, lv = _spec(inst.lhs, layout)
    rc, rv = _spec(inst.rhs, layout)
    if predicate in _UNSIGNED_PREDICATES or not isinstance(vtype, IntType):
        def handler(cpu, frame, inst=inst, lc=lc, lv=lv, rc=rc, rv=rv, test=test):
            frame[inst] = 1 if test(lv if lc else frame[lv], rv if rc else frame[rv]) else 0
    else:
        ts = vtype.to_signed
        slv = ts(lv) if lc else lv
        srv = ts(rv) if rc else rv

        def handler(cpu, frame, inst=inst, lc=lc, lv=slv, rc=rc, rv=srv,
                    ts=ts, test=test):
            frame[inst] = 1 if test(lv if lc else ts(frame[lv]), rv if rc else ts(frame[rv])) else 0
    return handler


def _identity(value: int) -> int:
    return value


def _mask64(value: int) -> int:
    return value & _MASK64


def _make_cast(inst: Cast, layout: Dict[str, int]) -> Handler:
    op = inst.op
    vc, vv = _spec(inst.value, layout)
    target = inst.type
    post = target.wrap if isinstance(target, IntType) else _mask64
    if op in ("trunc", "zext", "ptrtoint", "inttoptr", "bitcast"):
        conv = post
    elif op == "sext":
        source = inst.value.type
        pre = source.to_signed if isinstance(source, IntType) else _identity

        def conv(value, pre=pre, post=post):
            return post(pre(value))
    else:
        def handler(cpu, frame, op=op):
            raise RuntimeError(f"unknown cast {op}")

        return handler

    if vc:
        result = conv(vv)

        def handler(cpu, frame, inst=inst, result=result):
            frame[inst] = result
    else:
        def handler(cpu, frame, inst=inst, key=vv, conv=conv):
            frame[inst] = conv(frame[key])
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
    Alloca: _make_alloca,
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
) -> Tuple[str, int, bool, Handler]:
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
    impure op's, whose handler is ``impure``, or the terminator's)."""
    opcodes = [op[0] for op in pure_ops]
    if closing is not None:
        opcodes.append(closing)
    opcodes, cycles, residues, cid = _chunk_tables(tuple(opcodes))
    return (
        len(opcodes),
        tuple([op[3] for op in pure_ops]),
        impure,
        cycles,
        residues,
        cid,
    )


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
        ops: List[Tuple[str, int, bool, Handler]] = []
        term: Optional[tuple] = None
        for inst in block.instructions[block.first_non_phi_index():]:
            if isinstance(inst, Ret):
                spec = None if inst.value is None else _spec(inst.value, layout)
                term = ("ret", spec)
                break
            if isinstance(inst, Jump):
                term = ("jump", get(inst.target))
                break
            if isinstance(inst, CondBranch):
                term = (
                    "br",
                    _spec(inst.condition, layout),
                    get(inst.true_block),
                    get(inst.false_block),
                )
                break
            ops.append(_decode_instruction(inst, layout))
        dblock.ops = tuple(ops)
        dblock.term = term if term is not None else ("fall",)
        dblock.chunks = _chunk_block(dblock.ops, dblock.term)

    # Phi routing, per decoded CFG edge.
    for block, dblock in dmap.items():
        term = dblock.term
        if term[0] == "jump":
            successors = (term[1],)
        elif term[0] == "br":
            successors = (term[2], term[3])
        else:
            continue
        for sdblock in successors:
            phis = sdblock.source.phis
            if not phis:
                continue
            route: List[Tuple[Phi, bool, object]] = []
            edge: object = None
            for phi in phis:
                try:
                    incoming = phi.incoming_for_block(block)
                except KeyError:
                    edge = f"phi has no incoming for block {block.name}"
                    break
                c, v = _spec(incoming, layout)
                route.append((phi, c, v))
            sdblock.phi_routes[dblock] = edge if edge is not None else tuple(route)

    return entry


#: Sentinel of the block and trace tiers: generated functions return
#: ``(BLOCK_RET, value)`` from ``ret`` terminators and the successor's
#: ``(BlockCode, None)`` ``self_pair`` otherwise (phi routing runs inline
#: in the terminator before the pair is returned).  It lives here, not in
#: the compiler (:mod:`~repro.hardware.tracec`), so the CPU's dispatch
#: loops can test for it without loading it.
BLOCK_RET = object()


def decode_module(module: Module) -> Tuple[DecodedProgram, float]:
    """Decode ``module`` (or return the decode in its ``"decoded"`` memo slot).

    Returns ``(program, seconds)`` where ``seconds`` is the decode time
    actually spent by *this* call -- ``0.0`` on a cache hit.
    """
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
