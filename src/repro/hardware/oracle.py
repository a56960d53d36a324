"""The reference tier, the reference semantics of one instruction, and
what every other tier must agree with it on; loaded on first use.

:class:`~repro.hardware.cpu.CPU` runs every chunk-batched tier without
this module.  It holds what runs one IR instruction at a time:

- :func:`interpret_reference`, the ``reference`` tier: the original
  ``isinstance``-dispatch interpreter, kept as the semantic oracle.
  It charges every instruction through ``TimingModel.charge``, so it
  is exact for any cost table and issue width, and it can start
  mid-block (``start``), so the batched tiers hand it the rest of a
  call that crosses ``max_steps`` or runs under a non-default timing
  model;
- :func:`execute`, the reference semantics of one instruction, which
  the decoder's fallback handlers call for what it cannot specialise.

So a run loads this module only under the reference tier, a
non-default cost table or issue width, a step limit crossed inside a
chunk, or a decode fallback.  Each of those functions takes the CPU as
its first argument.

It also holds the two things every tier comparison shares:

- :func:`observables`, the one definition of what two runs of one
  program must agree on, whatever tier ran them: campaign's tier
  cross-check and every tier test compare it and nothing else;
- :func:`tier_cpu`, a CPU whose compiled tier runs its generated code
  from the first call (the trace tier otherwise compiles a function
  only once it is hot, so a short run would compare decoded code with
  itself).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.function import BasicBlock
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
from .errors import CanaryTrap, DfiTrap, NullPointerTrap, StepLimitExceeded
from .memory import MemoryFault

_MASK64 = (1 << 64) - 1


def interpret_reference(
    cpu, block: BasicBlock, frame: Dict[Value, int], start: int = 0
) -> Optional[int]:
    """Run the rest of a call from ``block``, ``start`` instructions
    past its phis (whose values, when ``start`` is given, are already
    in ``frame``).  A decoded op index is a valid ``start``: decoded
    blocks hold one op per non-phi, non-terminator instruction."""
    previous: Optional[BasicBlock] = None
    while True:
        if previous is not None:
            _run_phis(cpu, block, previous, frame)
        first = block.first_non_phi_index() + start
        start = 0
        next_block: Optional[BasicBlock] = None
        for inst in block.instructions[first:]:
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
            owner = block.parent.name if block.parent is not None else "?"
            raise RuntimeError(f"block %{block.name} in @{owner} fell through")
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


# -- what the tiers must agree on ---------------------------------------------------


def observables(result) -> Dict[str, object]:
    """Everything about one run that must not depend on its tier.

    Status, the trap's type and message, return value, output, the
    step, cycle and instruction counters (and their ipc), the opcode
    histogram, PAC sign/auth counts, isolated allocations, input-channel
    calls per function and LLC hits/misses (zero without a
    :class:`~repro.hardware.cache.CacheModel`).  Wall-clock and
    decode/compile seconds and the tier's own name are left out.
    """
    trap = result.trap
    return {
        "status": result.status,
        "trap": None if trap is None else (type(trap).__name__, str(trap)),
        "return_value": result.return_value,
        "output": result.output,
        "steps": result.steps,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": result.ipc,
        "opcode_counts": result.opcode_counts,
        "pac_sign_count": result.pac_sign_count,
        "pac_auth_count": result.pac_auth_count,
        "isolated_allocations": result.isolated_allocations,
        "ic_calls": result.ic_calls,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
    }


def tier_cpu(module, interpreter=None, **kwargs):
    """A CPU for ``module`` whose tier runs generated code from its first call.

    Under the trace tier every function is compiled before the run.
    Other tiers get a plain CPU.  ``kwargs`` go to the CPU.
    """
    from .cpu import CPU

    cpu = CPU(module, interpreter=interpreter, **kwargs)
    if cpu.interpreter == "trace":
        cpu.tier_program.compile_pending()
        assert not cpu.tier_program.pending, "trace run starts compiled"
    return cpu
