"""Block code generation: the op and phi-edge emitters of the compiled
tiers, plus the trap-time counter fix-up they share.

The decoded tier (:mod:`repro.hardware.decoder`) removed operand and
opcode dispatch and charges its accounting once per *chunk* (a maximal
run of ops with no interpreter re-entry), but still pays one Python
call per dynamic instruction (``handler(cpu, frame)``) and one loop
iteration per chunk.  The emitters here remove both: a decoded basic
block is fused into a *single generated Python function* that

- inlines the straight-line handler bodies (loads, stores, geps, int
  arithmetic, compares, casts, selects, PAC and DFI intrinsics) as
  plain statements over ``frame[...]`` slots;
- charges each chunk as one inline update, from the decoder's tables
  of cycles and issue residue per entry state of the cheap-op run
  counter, plus one hit of the chunk's composition in the CPU's hit
  store (the opcode counts and retired instructions are folded from
  the hits when the run returns), and may merge chunks across fused
  blocks;
- compiles phi routing inline into the terminator as one parallel
  tuple assignment per taken edge;
- direct-threads control flow: each generated function returns the
  pre-built ``(successor, edge)`` pair, so the driver loop in
  :meth:`CPU._interpret_block` is two tuple indexings per block.

This module has no compile driver and no body emitter of its own.
Both live in :mod:`repro.hardware.tracec`: the block tier
(``--interpreter block``) is the driver's no-region policy,
``trace_compile(module, regions=False)``, and ``tracec._gen_region``
emits every generated function, a block outside every region as a
one-block region with no internal edges.  It builds on the op
emitters, :func:`_emit_phi_edge` and :func:`_trap_fixup` here.

Bit-identity with the reference interpreter
-------------------------------------------

The reference interpreter charges each op *before* executing it, so a
trap mid-block must observe the counters exactly as if every op after
the trapping one had never been charged.  Batched accounting applies a
chunk's charges up front; the generated function therefore wraps its
body in ``except BaseException`` and repairs the counters before
re-raising: the traceback's line number (every generated line is mapped
to its op index at compile time) identifies the trapping op, the
chunk's recorded entry state ``_r0`` replays the issue model up to that
op, and the overshoot is subtracted -- the same repair the decoded
loop makes (:func:`~repro.hardware.decoder._undo_chunk_tail`).  Order
of cycle accumulation within a chunk differs from the reference, but
every charge in the model is a dyadic rational (integer costs,
0.25-per-byte library calls), so float accumulation is exact and
order-insensitive.

Batched accounting bakes in ``DEFAULT_COSTS`` and the default issue
width; :meth:`CPU._call` only dispatches to compiled code while the
timing model still matches, and runs the call on the reference tier
otherwise.  A block whose execution could cross the step limit is
delegated, pending phi routing included, to the decoded loop, which
hands the crossing chunk to the reference tier, and that raises
``StepLimitExceeded`` at exactly the right op; the rest of a block
after a call, whose callee retired steps the entry guard could not
count, goes to the reference tier directly
(``tracec._emit_resume_guard``).

The deliberate divergence on *malformed, unverified* IR is shared with
the decoded tier (``KeyError`` instead of the reference
``RuntimeError``), and the tiers may apply different numbers of a
malformed edge's phi charges before its ``KeyError``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
    Jump,
    Load,
    PacAuth,
    PacSign,
    Ret,
    SecAssert,
    Select,
    Store,
)
from ..ir.types import IntType
from .decoder import (
    DecodedBlock,
    _chunk_tables,
    _gep_plan,
    _spec,
    _undo_chunk_tail,
)
from .memory import WINDOW_MASK

_MASK64 = (1 << 64) - 1


class BlockCode:
    """One compiled entry point: a basic block or a fused region.

    ``nsteps`` is the (header) block's step count, the driver's entry
    guard; ``dblock`` is its decoded twin, the step-limit delegation and
    deopt target; ``self_pair`` is what terminators and side exits hand
    the driver.
    """

    __slots__ = ("fn", "dblock", "nsteps", "meta", "self_pair", "label", "blocks")

    def __init__(self, dblock: DecodedBlock, nsteps: int, label: str, blocks: int):
        self.fn = None
        self.dblock = dblock
        self.nsteps = nsteps
        self.meta: Optional["_BlockMeta"] = None
        self.self_pair = (self, None)
        #: ``function:block`` tag the profiled block driver attributes
        #: to; for a region, the header's
        self.label = label
        #: number of basic blocks fused into this code
        self.blocks = blocks


class _BlockMeta:
    """Per-block data for the trap-time counter fixup.

    Generated code records a chunk's opcodes only as one hit of its
    composition, which the run's fold expands.  When an op traps, the
    fixup takes the chunk's unexecuted tail back out of the steps,
    cycles, instructions and opcode counts, so it needs each op's
    opcode, cost and chunk bounds: this table.
    """

    __slots__ = ("ops", "line_map")

    def __init__(self):
        #: per op index: (opcode, cost, impure, chunk_start, chunk_end)
        self.ops: Tuple[Tuple[str, int, bool, int, int], ...] = ()
        #: generated lineno -> op index; -1 means "read the ``_k`` local"
        self.line_map: Dict[int, int] = {}


def _trap_fixup(cpu, timing, meta: _BlockMeta, exc: BaseException) -> None:
    """Undo the not-yet-executed tail of the trapping op's chunk.

    Called from the generated ``except`` clause; the traceback's head
    frame is the generated function's own invocation, so its lineno and
    locals identify the trapping op and the chunk entry state, and
    :func:`~repro.hardware.decoder._undo_chunk_tail` (shared with the
    decoded loop) takes the tail's charges back.
    """
    tb = exc.__traceback__
    if tb is None:
        return
    k = meta.line_map.get(tb.tb_lineno)
    if k is None:
        return
    frame_locals = tb.tb_frame.f_locals
    if k < 0:
        k = frame_locals.get("_k")
        if k is None:
            return
    ops = meta.ops
    opcode, cost, impure, s, e = ops[k]
    if impure:
        # Calls and fallback handlers are their own chunk and were
        # accounted exactly before re-entry; the callee owns anything
        # charged since.
        return
    r0 = frame_locals.get("_r0")
    if r0 is None:
        return
    _undo_chunk_tail(cpu, timing, [op[0] for op in ops[s:e]], k - s, r0)


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

_CMP_PYOPS = {
    "eq": "==",
    "ne": "!=",
    "slt": "<",
    "sle": "<=",
    "sgt": ">",
    "sge": ">=",
    "ult": "<",
    "ule": "<=",
    "ugt": ">",
    "uge": ">=",
}
_SIGNED_PREDICATES = ("slt", "sle", "sgt", "sge")


class _FnGen:
    """Accumulates the generated source for one function."""

    def __init__(self, filename: str):
        self.filename = filename
        self.lines: List[str] = []
        self.consts: List[object] = []
        self.const_names: List[str] = []
        self._by_id: Dict[int, str] = {}
        self.fn_names: List[str] = []
        #: line_map of the function currently being generated
        self.current_map: Optional[Dict[int, int]] = None
        #: id(value) -> Python local name for the SSA values the function
        #: currently being generated keeps out of the frame
        self.block_locals: Dict[int, str] = {}
        #: composition id -> local hit counter of the region being
        #: generated; None while its hits go straight to the hit store
        self.counters: Optional[Dict[int, str]] = None

    def hit(self, cid: int) -> str:
        """The counter one hit of composition ``cid`` increments: the
        CPU's hit store (the generated function's ``hits`` argument),
        or the current region's local counter for ``cid``."""
        counters = self.counters
        if counters is None:
            return f"hits[{cid}]"
        name = counters.get(cid)
        if name is None:
            name = counters[cid] = f"_k{len(counters)}"
        return name

    def bind(self, obj: object, prefix: str) -> str:
        name = self._by_id.get(id(obj))
        if name is None:
            name = f"_{prefix}{len(self.consts)}"
            self._by_id[id(obj)] = name
            self.consts.append(obj)
            self.const_names.append(name)
        return name

    def emit(self, text: str, indent: int = 2, op: Optional[int] = None) -> None:
        self.lines.append("    " * indent + text)
        if op is not None and self.current_map is not None:
            self.current_map[len(self.lines)] = op

    def operand(self, spec) -> str:
        constant, value = spec
        if constant:
            return repr(value)
        name = self.block_locals.get(id(value))
        if name is not None:
            return name
        return f"frame[{self.bind(value, 'V')}]"

    def target(self, inst) -> str:
        """Assignment target for ``inst``'s result: local or frame slot."""
        name = self.block_locals.get(id(inst))
        if name is not None:
            return name
        return f"frame[{self.bind(inst, 'V')}]"


def _signed_expr(expr: str, bits: int) -> str:
    """``expr`` read as a signed ``bits``-wide value, as one expression:
    ``((x & mask) ^ sign) - sign``, the decoded handlers' idiom.  Frame
    values and folded constants are always below 2**64, so a 64-bit
    value needs no mask."""
    sign = 1 << (bits - 1)
    if bits < 64:
        expr = f"({expr}) & {(1 << bits) - 1}"
    return f"((({expr}) ^ {sign}) - {sign})"


def _flipped(gen: _FnGen, spec, bits: int) -> str:
    """An operand with its sign bit flipped, ``(x & mask) ^ sign``: the
    signed order of ``bits``-wide values as the unsigned order of the
    flipped ones.  A constant is flipped at compile time."""
    mask, sign = (1 << bits) - 1, 1 << (bits - 1)
    constant, value = spec
    if constant:
        return repr((value & mask) ^ sign)
    expr = gen.operand(spec)
    if bits < 64:
        expr = f"({expr} & {mask})"
    return f"({expr} ^ {sign})"


def _compare_expr(gen: _FnGen, inst: ICmp, layout) -> str:
    """A Python expression that is true exactly when ``inst`` holds.

    A signed predicate on integers compares sign-flipped operands
    (:func:`_flipped`); unsigned predicates, and every predicate on
    pointers, compare the raw values, as the reference does.
    """
    pyop = _CMP_PYOPS[inst.predicate]
    lspec = _spec(inst.lhs, layout)
    rspec = _spec(inst.rhs, layout)
    vtype = inst.lhs.type
    if inst.predicate in _SIGNED_PREDICATES and isinstance(vtype, IntType):
        return f"{_flipped(gen, lspec, vtype.bits)} {pyop} {_flipped(gen, rspec, vtype.bits)}"
    return f"{gen.operand(lspec)} {pyop} {gen.operand(rspec)}"


def _signed_const(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value > (1 << (bits - 1)) - 1:
        value -= 1 << bits
    return value


def _int_params(vtype) -> Tuple[int, int]:
    """(wrap mask, bits) for a value type, pointer arithmetic included."""
    if isinstance(vtype, IntType):
        return (1 << vtype.bits) - 1, vtype.bits
    return _MASK64, 64


def _gen_pointer(gen: _FnGen, spec, message: str, k: int) -> Optional[str]:
    """Emit the null check for a pointer operand; None when it raises."""
    constant, value = spec
    if constant:
        if value == 0:
            gen.emit(f"raise _NPT({message!r})", op=k)
            return None
        return repr(value)
    pointer = gen.operand(spec)
    if pointer.startswith("frame["):
        gen.emit(f"_p = {pointer}", op=k)
        pointer = "_p"
    gen.emit(f"if {pointer} == 0: raise _NPT({message!r})", op=k)
    return pointer


#: access width -> the shared helper names of its unpack_from and
#: pack_into (``tracec._compile_function`` binds them); a byte access
#: indexes the window's bytearray directly
_UNPACK = {2: "_L2", 4: "_L4", 8: "_L8"}
_PACK = {2: "_S2", 4: "_S4", 8: "_S8"}


def _window_slot(spec, pointer: str) -> Tuple[str, str]:
    """``(window, offset)`` expressions of an access at ``pointer``
    (see the Memory class docstring), folded for a constant one."""
    if spec[0]:
        return repr(spec[1] >> 32), repr(spec[1] & WINDOW_MASK)
    return f"{pointer} >> 32", f"{pointer} & {WINDOW_MASK}"


# A sized load or store is inline: ``_md``/``_wd`` are the memory's
# read and write windows (bound by the function's preamble), and a miss
# (FAST_MISS, ``_MISS``) takes the generic read_int/write_int path.


def _gen_load(gen: _FnGen, inst: Load, layout, k: int) -> None:
    size = max(1, inst.type.size)
    spec = _spec(inst.pointer, layout)
    pointer = _gen_pointer(gen, spec, f"load through null in {inst}", k)
    if pointer is None:
        return
    gen.emit(f"if cpu.cache is not None: cpu._cache_access({pointer}, {size})", op=k)
    target = gen.target(inst)
    generic = f"{target} = mem.read_int({pointer}, {size})"
    if size == 1:
        window, offset = _window_slot(spec, pointer)
        gen.emit(f"try: {target} = _md[{window}][{offset}]", op=k)
    elif size in _UNPACK:
        window, offset = _window_slot(spec, pointer)
        gen.emit(f"try: {target} = {_UNPACK[size]}(_md[{window}], {offset})[0]", op=k)
    else:
        gen.emit(generic, op=k)
        return
    gen.emit(f"except _MISS: {generic}", op=k)


def _gen_store(gen: _FnGen, inst: Store, layout, k: int) -> None:
    size = max(1, inst.value.type.size)
    vspec = _spec(inst.value, layout)
    if vspec[0]:
        vspec = (True, vspec[1] & ((1 << (8 * size)) - 1))
    value = gen.operand(vspec)
    spec = _spec(inst.pointer, layout)
    pointer = _gen_pointer(gen, spec, f"store through null in {inst}", k)
    if pointer is None:
        return
    gen.emit(f"if cpu.cache is not None: cpu._cache_access({pointer}, {size})", op=k)
    generic = f"mem.write_int({pointer}, {value}, {size})"
    if size == 1:
        # A value out of range would raise ValueError here, not a miss.
        window, offset = _window_slot(spec, pointer)
        masked = value if vspec[0] else f"{value} & 255"
        gen.emit(f"try: _wd[{window}][{offset}] = {masked}", op=k)
    elif size in _PACK:
        # Out of range, the pack raises struct.error: write_int masks.
        window, offset = _window_slot(spec, pointer)
        gen.emit(f"try: {_PACK[size]}(_wd[{window}], {offset}, {value})", op=k)
    else:
        gen.emit(generic, op=k)
        return
    gen.emit(f"except _MISS: {generic}", op=k)


def _gen_gep(gen: _FnGen, inst: GetElementPtr, layout, k: int) -> bool:
    plan = _gep_plan(inst, layout)
    if plan is None:
        gen.emit(f"raise RuntimeError({f'malformed gep: {inst}'!r})", op=k)
        return True
    base_c, base_v, const_off, dyn = plan
    target = gen.target(inst)
    if not dyn:
        if base_c:
            gen.emit(f"{target} = {(base_v + const_off) & _MASK64}", op=k)
        else:
            base = gen.operand((False, base_v))
            off = f" + {const_off}" if const_off else ""
            gen.emit(f"{target} = ({base}{off}) & {_MASK64}", op=k)
        return True
    # A dynamic index is signed: (x ^ S) - S with S the 64-bit sign bit,
    # whose ``- S * stride`` folds into the constant offset.
    sign = 1 << 63
    terms = []
    for key, stride in dyn:
        const_off -= sign * stride
        terms.append(f"({gen.operand((False, key))} ^ {sign}) * {stride}")
    if base_c:
        base = repr(base_v + const_off)
    else:
        base = f"{gen.operand((False, base_v))} + {const_off}"
    gen.emit(f"{target} = ({base} + {' + '.join(terms)}) & {_MASK64}", op=k)
    return True


def _gen_binop(gen: _FnGen, inst: BinOp, layout, k: int) -> bool:
    op = inst.op
    mask, bits = _int_params(inst.type)
    lspec = _spec(inst.lhs, layout)
    rspec = _spec(inst.rhs, layout)
    target = gen.target(inst)
    if op in ("add", "sub", "mul", "and", "or", "xor"):
        py = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}[op]
        lhs, rhs = gen.operand(lspec), gen.operand(rspec)
        gen.emit(f"{target} = (({lhs}) {py} ({rhs})) & {mask}", op=k)
        return True
    if op in ("shl", "lshr"):
        py = "<<" if op == "shl" else ">>"
        lhs = gen.operand(lspec)
        shift = repr(rspec[1] % bits) if rspec[0] else f"({gen.operand(rspec)}) % {bits}"
        gen.emit(f"{target} = (({lhs}) {py} ({shift})) & {mask}", op=k)
        return True
    if op == "ashr":
        if lspec[0]:
            lhs = repr(_signed_const(lspec[1], bits))
        else:
            lhs = _signed_expr(gen.operand(lspec), bits)
        shift = repr(rspec[1] % bits) if rspec[0] else f"({gen.operand(rspec)}) % {bits}"
        gen.emit(f"{target} = ({lhs} >> ({shift})) & {mask}", op=k)
        return True
    if op in ("sdiv", "srem"):
        if lspec[0]:
            lhs = repr(_signed_const(lspec[1], bits))
        else:
            gen.emit(f"_a = {_signed_expr(gen.operand(lspec), bits)}", op=k)
            lhs = "_a"
        if rspec[0]:
            rhs = repr(_signed_const(rspec[1], bits))
        else:
            gen.emit(f"_b = {_signed_expr(gen.operand(rspec), bits)}", op=k)
            rhs = "_b"
        kind = "divide" if op == "sdiv" else "remainder"
        gen.emit(f"if ({rhs}) == 0: raise _MF(0, 0, 'integer {kind} by zero')", op=k)
        if op == "sdiv":
            gen.emit(f"{target} = (int(({lhs}) / ({rhs}))) & {mask}", op=k)
        else:
            gen.emit(
                f"{target} = (({lhs}) - int(({lhs}) / ({rhs})) * ({rhs})) & {mask}",
                op=k,
            )
        return True
    gen.emit(f"raise RuntimeError({f'unknown binop {op}'!r})", op=k)
    return True


def _gen_icmp(gen: _FnGen, inst: ICmp, layout, k: int) -> None:
    gen.emit(f"{gen.target(inst)} = 1 if {_compare_expr(gen, inst, layout)} else 0", op=k)


def _gen_cast(gen: _FnGen, inst: Cast, layout, k: int) -> bool:
    op = inst.op
    mask, _ = _int_params(inst.type)
    spec = _spec(inst.value, layout)
    target = gen.target(inst)
    if op in ("trunc", "zext", "ptrtoint", "inttoptr", "bitcast"):
        gen.emit(f"{target} = ({gen.operand(spec)}) & {mask}", op=k)
        return True
    if op == "sext":
        source = inst.value.type
        if isinstance(source, IntType):
            if spec[0]:
                value = repr(_signed_const(spec[1], source.bits))
            else:
                value = _signed_expr(gen.operand(spec), source.bits)
        else:
            value = gen.operand(spec)
        gen.emit(f"{target} = ({value}) & {mask}", op=k)
        return True
    gen.emit(f"raise RuntimeError({f'unknown cast {op}'!r})", op=k)
    return True


def _gen_select(gen: _FnGen, inst: Select, layout, k: int) -> None:
    cond = gen.operand(_spec(inst.condition, layout))
    true = gen.operand(_spec(inst.true_value, layout))
    false = gen.operand(_spec(inst.false_value, layout))
    target = gen.target(inst)
    gen.emit(f"{target} = ({true}) if (({cond}) & 1) else ({false})", op=k)


def _gen_call(gen: _FnGen, inst: Call, layout, k: int) -> None:
    args = ", ".join(gen.operand(_spec(a, layout)) for a in inst.args)
    callee = gen.bind(inst.callee, "F")
    # Declarations are static: _call's first action for one is to tail
    # into _call_external, so jump there directly and save a Python
    # frame per library call.  A defined callee takes the compiled-call
    # path, which enters a compiled callee without _call's checks.
    dispatch = (
        "cpu._call_external" if inst.callee.is_declaration else "cpu._call_compiled"
    )
    if inst.type.is_void:
        gen.emit(f"{dispatch}({callee}, [{args}])", op=k)
    else:
        target = gen.target(inst)
        gen.emit(f"_t = {dispatch}({callee}, [{args}])", op=k)
        gen.emit(f"{target} = 0 if _t is None else _t", op=k)


def _gen_pac(gen: _FnGen, inst, layout, k: int, method: str) -> None:
    value = gen.operand(_spec(inst.value, layout))
    modifier = gen.operand(_spec(inst.modifier, layout))
    target = gen.target(inst)
    gen.emit(
        f"{target} = pac.{method}({value}, {modifier}, {inst.key_id!r})", op=k
    )


def _gen_sec_assert(gen: _FnGen, inst: SecAssert, layout, k: int) -> None:
    cond = gen.operand(_spec(inst.condition, layout))
    message = f"{inst.kind} check failed"
    gen.emit(f"if not (({cond}) & 1): raise _CT({message!r})", op=k)


def _gen_dfi_setdef(gen: _FnGen, inst: DfiSetDef, layout, k: int) -> None:
    pointer = gen.operand(_spec(inst.pointer, layout))
    gen.emit(f"dfi.set_range({pointer}, {inst.size}, {inst.def_id})", op=k)


def _gen_dfi_chk_one(gen: _FnGen, inst: DfiChkDef, layout, k: int) -> None:
    pointer = gen.operand(_spec(inst.pointer, layout))
    allowed = gen.bind(inst.allowed, "A")
    gen.emit(f"_v = dfi.check_range({pointer}, {inst.size}, {allowed})", op=k)
    gen.emit(f"if _v is not None: raise _DT(_v[0], _v[1], {allowed})", op=k)


def _gen_dfi_chk_batch(gen: _FnGen, run: List[Tuple[int, DfiChkDef]], layout) -> None:
    """A run of >= 2 consecutive dfi.chkdef ops: one batched check."""
    base = run[0][0]
    specs = []
    for _, inst in run:
        constant, value = _spec(inst.pointer, layout)
        specs.append((constant, value, inst.size, inst.allowed))
    name = gen.bind(tuple(specs), "B")
    gen.emit(f"_v = dfi.check_batch({name}, frame)", op=base)
    gen.emit("if _v is not None:", op=base)
    # The trapping element is only known at runtime; the fixup reads the
    # ``_k`` local (line_map sentinel -1).
    gen.emit(f"    _k = {base} + _v[0]", op=base)
    line = "    raise _DT(_v[1], _v[2], _v[3])"
    gen.emit(line)
    if gen.current_map is not None:
        gen.current_map[len(gen.lines)] = -1


def _emit_op(gen: _FnGen, inst, decoded_op, layout, k: int) -> None:
    opcode, cost, impure, handler = decoded_op
    if isinstance(inst, Call):
        _gen_call(gen, inst, layout, k)
        return
    if impure:
        # Decode-time fallback: reuse the decoded tier's handler so both
        # tiers agree on everything the specialisers decline.
        gen.emit(f"{gen.bind(handler, 'H')}(cpu, frame)", op=k)
        return
    if isinstance(inst, Alloca):
        return  # space assigned at frame layout; charge only
    if isinstance(inst, Load):
        _gen_load(gen, inst, layout, k)
        return
    if isinstance(inst, Store):
        _gen_store(gen, inst, layout, k)
        return
    if isinstance(inst, GetElementPtr) and _gen_gep(gen, inst, layout, k):
        return
    if isinstance(inst, BinOp) and _gen_binop(gen, inst, layout, k):
        return
    if isinstance(inst, ICmp):
        _gen_icmp(gen, inst, layout, k)
        return
    if isinstance(inst, Cast) and _gen_cast(gen, inst, layout, k):
        return
    if isinstance(inst, Select):
        _gen_select(gen, inst, layout, k)
        return
    if isinstance(inst, PacSign):
        _gen_pac(gen, inst, layout, k, "sign")
        return
    if isinstance(inst, PacAuth):
        _gen_pac(gen, inst, layout, k, "auth")
        return
    if isinstance(inst, SecAssert):
        _gen_sec_assert(gen, inst, layout, k)
        return
    if isinstance(inst, DfiSetDef):
        _gen_dfi_setdef(gen, inst, layout, k)
        return
    if isinstance(inst, DfiChkDef):
        _gen_dfi_chk_one(gen, inst, layout, k)
        return
    # Anything else executes through the (pure) decoded handler.
    gen.emit(f"{gen.bind(handler, 'H')}(cpu, frame)", op=k)


def _body_instructions(dblock: DecodedBlock) -> List[object]:
    source = dblock.source
    body: List[object] = []
    for inst in source.instructions[source.first_non_phi_index():]:
        if isinstance(inst, (Ret, Jump, CondBranch)):
            break
        body.append(inst)
    if len(body) != len(dblock.ops):
        raise RuntimeError(
            f"decoded block %{source.name} does not match its source block"
        )
    return body


def _classify(inst, impure: bool) -> Tuple[bool, tuple, bool]:
    """How ``_emit_op`` will treat ``inst``: (def_ok, reads, via_frame).

    ``def_ok``: the result is assigned by generated code (so it *may*
    become a Python local).  ``reads``: the values the generated code
    reads as operands.  ``via_frame``: the op resolves its operands
    through the ``frame`` dict at runtime (decoded-handler fallbacks and
    batched DFI checks), so those reads pin their values to the frame.
    """
    if isinstance(inst, Call):
        return (not inst.type.is_void), tuple(inst.args), False
    if impure:
        return False, tuple(inst.operands), True
    if isinstance(inst, Alloca):
        return False, (), False
    if isinstance(inst, Load):
        return True, (inst.pointer,), False
    if isinstance(inst, Store):
        return False, (inst.value, inst.pointer), False
    if isinstance(inst, GetElementPtr):
        return True, tuple(inst.operands), False
    if isinstance(inst, BinOp):
        return True, (inst.lhs, inst.rhs), False
    if isinstance(inst, ICmp):
        return True, (inst.lhs, inst.rhs), False
    if isinstance(inst, Cast):
        return True, (inst.value,), False
    if isinstance(inst, Select):
        return True, (inst.condition, inst.true_value, inst.false_value), False
    if isinstance(inst, (PacSign, PacAuth)):
        return True, (inst.value, inst.modifier), False
    if isinstance(inst, SecAssert):
        return False, (inst.condition,), False
    if isinstance(inst, DfiSetDef):
        return False, (inst.pointer,), False
    if isinstance(inst, DfiChkDef):
        # A run of chkdefs batches into dfi.check_batch(specs, frame),
        # which resolves pointers through the frame at runtime.
        return False, (inst.pointer,), True
    return False, tuple(inst.operands), True


def _emit_phi_edge(gen: _FnGen, route, indent: int, acc: Tuple[str, str, str]) -> bool:
    """Emit the phi routing for one taken CFG edge, inline.

    The predecessor knows which edge it takes, so the successor's phi
    batch plus one parallel assignment compile straight into the
    terminator -- no per-edge closure, no driver routing.  The batch
    charges like a chunk of n ``'phi'`` ops: one lookup in its
    :func:`~repro.hardware.decoder._chunk_tables` row for the cycles and
    the issue residue, and one hit of its composition
    (:meth:`_FnGen.hit`), which the run's fold turns into n phi
    instructions.  ``acc`` names the (issue residue, cycles)
    accumulators the charges land in: ``timing``'s own attributes for a
    region with no internal edges, the region's locals otherwise (see
    ``tracec._gen_region``).
    Phi targets may be region locals.  Returns True when the edge is an
    unresolvable route and the emitted code raises instead of falling
    through to the ``return``.
    """
    if isinstance(route, str):
        gen.emit(f"raise KeyError({route!r})", indent=indent)
        return True
    residue, cycles = acc
    _, cycles_table, cheap_table, cid = _chunk_tables(("phi",) * len(route))
    gen.emit(
        f"{cycles} += {gen.bind(cycles_table, 'T')}[{residue}]; "
        f"{residue} = {gen.bind(cheap_table, 'T')}[{residue}]; "
        f"{gen.hit(cid)} += 1",
        indent=indent,
    )
    targets = ", ".join(gen.target(phi) for phi, _, _ in route)
    values = ", ".join(
        gen.operand((constant, payload)) for _, constant, payload in route
    )
    gen.emit(f"{targets} = {values}", indent=indent)
    return False
