"""The per-op interpreters, loaded on first use.

:class:`~repro.hardware.cpu.CPU` runs every chunk-batched tier without
this module.  It holds what runs one IR instruction at a time:

- :func:`interpret_reference`, the ``reference`` tier: the original
  ``isinstance``-dispatch interpreter, kept as the semantic oracle;
- :func:`interpret_exact`, the decoded program's per-op loop, exact for
  any cost table and issue width.  It runs under a non-default timing
  model, and for the one chunk that crosses ``max_steps``;
- :func:`execute`, the reference semantics of one instruction, which
  the decoder's fallback handlers call for what it cannot specialise.

So a run loads this module only under the reference tier, a
non-default cost table or issue width, a step limit crossed inside a
chunk, or a decode fallback.  Each function takes the CPU as its first
argument.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
from ..ir.types import ArrayType, I64, IntType, StructType
from ..ir.values import Constant, GlobalVariable, UndefValue, Value
from .decoder import DecodedBlock
from .errors import CanaryTrap, DfiTrap, NullPointerTrap, StepLimitExceeded
from .memory import MemoryFault
from .timing import DEFAULT_COSTS

_MASK64 = (1 << 64) - 1


def interpret_exact(
    cpu,
    block: DecodedBlock,
    frame: Dict[Value, int],
    previous: Optional[DecodedBlock] = None,
    start: int = 0,
) -> Optional[int]:
    # The per-op loop: counts, limit-checks and charges every op on
    # its own, in the reference interpreter's order, so it is exact
    # for any cost table and issue width.  It runs when the chunk
    # tables cannot be trusted (a non-default timing model) and for
    # the chunk that crosses the step limit, entered at that chunk's
    # first op (``start``) with its phis already routed.  Each charge
    # is TimingModel.charge inlined against the same local mirrors
    # as CPU._interpret_decoded, synced around every impure op.
    timing = cpu.timing
    costs_get = timing.costs.get
    counts = timing.opcode_counts
    counts_get = counts.get
    issue_width = timing.issue_width
    # decoded ops carry their DEFAULT_COSTS cost; only trust it
    # while this timing model still uses the default table
    default_costs = timing.costs == DEFAULT_COSTS
    max_steps = cpu.max_steps
    steps = cpu.steps
    instructions = timing.instructions
    cheap = timing._cheap_run
    in_call = False
    try:
        while True:
            if previous is not None and block.phi_routes:
                # Routes exist for every decoded edge, and control
                # only arrives here along decoded edges.
                route = block.phi_routes[previous]
                if route.__class__ is str:
                    raise KeyError(route)
                if route:
                    # Parallel evaluation: read all incoming values
                    # before writing any.
                    staged = []
                    stage = staged.append
                    cost = costs_get("phi", 1)
                    for _, is_const, payload in route:
                        instructions += 1
                        counts["phi"] = counts_get("phi", 0) + 1
                        if cost <= 1:
                            cheap += 1
                            if cheap >= issue_width:
                                timing.cycles += 1
                                cheap = 0
                        else:
                            timing.cycles += cost
                            cheap = 0
                        stage(payload if is_const else frame[payload])
                    for entry, value in zip(route, staged):
                        frame[entry[0]] = value
            ops = block.ops
            if start:
                ops = ops[start:]
                start = 0
            for opname, cost, impure, op in ops:
                steps += 1
                if steps > max_steps:
                    raise StepLimitExceeded(f"exceeded {max_steps} steps")
                instructions += 1
                counts[opname] = counts_get(opname, 0) + 1
                if not default_costs:
                    cost = costs_get(opname, 1)
                if cost <= 1:
                    cheap += 1
                    if cheap >= issue_width:
                        timing.cycles += 1
                        cheap = 0
                else:
                    timing.cycles += cost
                    cheap = 0
                if impure:
                    # Sync the mirrors so the callee's interpreter
                    # loop continues from the right counts; while
                    # in_call is set the callee owns the counters,
                    # and the finally below must not clobber them.
                    cpu.steps = steps
                    timing.instructions = instructions
                    timing._cheap_run = cheap
                    in_call = True
                    op(cpu, frame)
                    in_call = False
                    steps = cpu.steps
                    instructions = timing.instructions
                    cheap = timing._cheap_run
                else:
                    op(cpu, frame)
            term = block.term
            kind = term[0]
            if kind == "fall":
                source = block.source
                owner = source.parent.name if source.parent is not None else "?"
                raise RuntimeError(
                    f"block %{source.name} in @{owner} fell through"
                )
            steps += 1
            if steps > max_steps:
                raise StepLimitExceeded(f"exceeded {max_steps} steps")
            instructions += 1
            if kind == "jump" or kind == "br":
                counts["br"] = counts_get("br", 0) + 1
                cost = costs_get("br", 1)
                if cost <= 1:
                    cheap += 1
                    if cheap >= issue_width:
                        timing.cycles += 1
                        cheap = 0
                else:
                    timing.cycles += cost
                    cheap = 0
                if kind == "jump":
                    previous, block = block, term[1]
                else:
                    is_const, payload = term[1]
                    taken = (payload if is_const else frame[payload]) & 1
                    previous, block = block, (term[2] if taken else term[3])
                continue
            # kind == "ret"
            counts["ret"] = counts_get("ret", 0) + 1
            cost = costs_get("ret", 1)
            if cost <= 1:
                cheap += 1
                if cheap >= issue_width:
                    timing.cycles += 1
                    cheap = 0
            else:
                timing.cycles += cost
                cheap = 0
            spec = term[1]
            if spec is None:
                return None
            is_const, payload = spec
            return payload if is_const else frame[payload]
    finally:
        if not in_call:
            cpu.steps = steps
            timing.instructions = instructions
            timing._cheap_run = cheap


# -- reference backend -------------------------------------------------------


def interpret_reference(
    cpu, function: Function, frame: Dict[Value, int]
) -> Optional[int]:
    block = function.entry_block
    previous: Optional[BasicBlock] = None
    while True:
        if previous is not None:
            _run_phis(cpu, block, previous, frame)
        start = block.first_non_phi_index()
        next_block: Optional[BasicBlock] = None
        for inst in block.instructions[start:]:
            cpu.steps += 1
            if cpu.steps > cpu.max_steps:
                raise StepLimitExceeded(f"exceeded {cpu.max_steps} steps")
            cpu.timing.charge(inst.opcode)
            if isinstance(inst, Ret):
                if inst.value is None:
                    return None
                return _value(cpu, inst.value, frame)
            if isinstance(inst, Jump):
                next_block = inst.target
                break
            if isinstance(inst, CondBranch):
                taken = _value(cpu, inst.condition, frame) & 1
                next_block = inst.true_block if taken else inst.false_block
                break
            execute(cpu, inst, frame)
        if next_block is None:
            raise RuntimeError(
                f"block %{block.name} in @{function.name} fell through"
            )
        previous, block = block, next_block


def _run_phis(
    cpu, block: BasicBlock, previous: BasicBlock, frame: Dict[Value, int]
) -> None:
    phis = block.phis
    if not phis:
        return
    # Parallel evaluation: read all incoming values before writing any.
    staged: List[Tuple[Phi, int]] = []
    for phi in phis:
        cpu.timing.charge("phi")
        staged.append((phi, _value(cpu, phi.incoming_for_block(previous), frame)))
    for phi, value in staged:
        frame[phi] = value


# -- operand evaluation ------------------------------------------------------------


def _value(cpu, value: Value, frame: Dict[Value, int]) -> int:
    if isinstance(value, Constant):
        return value.value & _MASK64
    if isinstance(value, GlobalVariable):
        return cpu.global_addresses[value.name]
    if isinstance(value, UndefValue):
        return 0
    try:
        return frame[value]
    except KeyError:
        raise RuntimeError(f"use of unevaluated value %{value.name}") from None


# -- instruction semantics ------------------------------------------------------------


def execute(cpu, inst: Instruction, frame: Dict[Value, int]) -> None:
    if isinstance(inst, Alloca):
        # Address already assigned by _layout_frame.
        return
    if isinstance(inst, Load):
        address = _value(cpu, inst.pointer, frame)
        if address == 0:
            raise NullPointerTrap(f"load through null in {inst}")
        size = max(1, inst.type.size)
        cpu._cache_access(address, size)
        frame[inst] = cpu.memory.read_int(address, size)
        return
    if isinstance(inst, Store):
        address = _value(cpu, inst.pointer, frame)
        if address == 0:
            raise NullPointerTrap(f"store through null in {inst}")
        size = max(1, inst.value.type.size)
        cpu._cache_access(address, size)
        cpu.memory.write_int(address, _value(cpu, inst.value, frame), size)
        return
    if isinstance(inst, GetElementPtr):
        frame[inst] = _gep_address(cpu, inst, frame)
        return
    if isinstance(inst, BinOp):
        frame[inst] = _binop(cpu, inst, frame)
        return
    if isinstance(inst, ICmp):
        frame[inst] = _icmp(cpu, inst, frame)
        return
    if isinstance(inst, Cast):
        frame[inst] = _cast(cpu, inst, frame)
        return
    if isinstance(inst, Select):
        cond = _value(cpu, inst.condition, frame) & 1
        chosen = inst.true_value if cond else inst.false_value
        frame[inst] = _value(cpu, chosen, frame)
        return
    if isinstance(inst, Call):
        result = cpu._call(
            inst.callee, [_value(cpu, a, frame) for a in inst.args]
        )
        if not inst.type.is_void:
            frame[inst] = 0 if result is None else result
        return
    if isinstance(inst, PacSign):
        value = _value(cpu, inst.value, frame)
        modifier = _value(cpu, inst.modifier, frame)
        frame[inst] = cpu.pac.sign(value, modifier, inst.key_id)
        return
    if isinstance(inst, PacAuth):
        value = _value(cpu, inst.value, frame)
        modifier = _value(cpu, inst.modifier, frame)
        frame[inst] = cpu.pac.auth(value, modifier, inst.key_id)
        return
    if isinstance(inst, SecAssert):
        if not (_value(cpu, inst.condition, frame) & 1):
            raise CanaryTrap(f"{inst.kind} check failed")
        return
    if isinstance(inst, DfiSetDef):
        address = _value(cpu, inst.pointer, frame)
        cpu.dfi_shadow.set_range(address, inst.size, inst.def_id)
        return
    if isinstance(inst, DfiChkDef):
        address = _value(cpu, inst.pointer, frame)
        violation = cpu.dfi_shadow.check_range(address, inst.size, inst.allowed)
        if violation is not None:
            raise DfiTrap(violation[0], violation[1], inst.allowed)
        return
    raise RuntimeError(f"cannot execute instruction: {inst}")


def _gep_address(cpu, inst: GetElementPtr, frame: Dict[Value, int]) -> int:
    address = _value(cpu, inst.pointer, frame)
    pointee = inst.pointer.type.pointee  # type: ignore[union-attr]
    first = I64.to_signed(_value(cpu, inst.indices[0], frame))
    address = (address + first * max(1, pointee.size)) & _MASK64
    current = pointee
    for index in inst.indices[1:]:
        if isinstance(current, ArrayType):
            step = I64.to_signed(_value(cpu, index, frame))
            address = (address + step * max(1, current.element.size)) & _MASK64
            current = current.element
        elif isinstance(current, StructType):
            field_index = _value(cpu, index, frame)
            address = (address + current.field_offset(field_index)) & _MASK64
            current = current.field_type(field_index)
        else:
            raise RuntimeError(f"malformed gep: {inst}")
    return address


def _binop(cpu, inst: BinOp, frame: Dict[Value, int]) -> int:
    vtype = inst.type
    lhs = _value(cpu, inst.lhs, frame)
    rhs = _value(cpu, inst.rhs, frame)
    op = inst.op
    if isinstance(vtype, IntType):
        wrap = vtype.wrap
        signed = vtype.to_signed
        bits = vtype.bits
    else:  # pointer arithmetic through int ops on addresses
        wrap = lambda v: v & _MASK64  # noqa: E731
        signed = I64.to_signed
        bits = 64
    if op == "add":
        return wrap(lhs + rhs)
    if op == "sub":
        return wrap(lhs - rhs)
    if op == "mul":
        return wrap(lhs * rhs)
    if op == "sdiv":
        a, b = signed(lhs), signed(rhs)
        if b == 0:
            raise MemoryFault(0, 0, "integer divide by zero")
        return wrap(int(a / b))
    if op == "srem":
        a, b = signed(lhs), signed(rhs)
        if b == 0:
            raise MemoryFault(0, 0, "integer remainder by zero")
        return wrap(a - int(a / b) * b)
    if op == "and":
        return wrap(lhs & rhs)
    if op == "or":
        return wrap(lhs | rhs)
    if op == "xor":
        return wrap(lhs ^ rhs)
    if op == "shl":
        return wrap(lhs << (rhs % bits))
    if op == "ashr":
        return wrap(signed(lhs) >> (rhs % bits))
    if op == "lshr":
        return wrap(lhs >> (rhs % bits))
    raise RuntimeError(f"unknown binop {op}")


def _icmp(cpu, inst: ICmp, frame: Dict[Value, int]) -> int:
    lhs = _value(cpu, inst.lhs, frame)
    rhs = _value(cpu, inst.rhs, frame)
    vtype = inst.lhs.type
    if isinstance(vtype, IntType):
        slhs, srhs = vtype.to_signed(lhs), vtype.to_signed(rhs)
    else:
        slhs, srhs = lhs, rhs
    predicate = inst.predicate
    table: Dict[str, bool] = {
        "eq": lhs == rhs,
        "ne": lhs != rhs,
        "slt": slhs < srhs,
        "sle": slhs <= srhs,
        "sgt": slhs > srhs,
        "sge": slhs >= srhs,
        "ult": lhs < rhs,
        "ule": lhs <= rhs,
        "ugt": lhs > rhs,
        "uge": lhs >= rhs,
    }
    return 1 if table[predicate] else 0


def _cast(cpu, inst: Cast, frame: Dict[Value, int]) -> int:
    value = _value(cpu, inst.value, frame)
    op = inst.op
    if op in ("trunc", "zext", "ptrtoint", "inttoptr", "bitcast"):
        if isinstance(inst.type, IntType):
            return inst.type.wrap(value)
        return value & _MASK64
    if op == "sext":
        src = inst.value.type
        if isinstance(src, IntType):
            signed = src.to_signed(value)
        else:
            signed = value
        if isinstance(inst.type, IntType):
            return inst.type.wrap(signed)
        return signed & _MASK64
    raise RuntimeError(f"unknown cast {op}")
