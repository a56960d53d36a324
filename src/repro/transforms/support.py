"""Shared helpers for the instrumentation passes."""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from ..analysis.alias import AliasAnalysis, MemObject
from ..hardware.libc import LIBRARY
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.instructions import Alloca, Call, Load, Store
from ..ir.module import Module
from ..ir.types import I64, IntType, PointerType
from ..ir.values import GlobalVariable, Value


def object_size(obj: MemObject) -> int:
    """Byte size of a memory object's allocation, 8 when unknown."""
    anchor = obj.anchor
    if isinstance(anchor, Alloca):
        return max(1, anchor.allocated_type.size)
    if isinstance(anchor, GlobalVariable):
        return max(1, anchor.value_type.size)
    return 8


def is_scalar_object(obj: MemObject) -> bool:
    """True for objects holding a single i64/pointer value (signable)."""
    anchor = obj.anchor
    if isinstance(anchor, Alloca):
        atype = anchor.allocated_type
    elif isinstance(anchor, GlobalVariable):
        atype = anchor.value_type
    else:
        return False
    if isinstance(atype, PointerType):
        return True
    return isinstance(atype, IntType) and atype.bits == 64


def loads_touching(
    function: Function, alias: AliasAnalysis, objects: Set[MemObject]
) -> List[Load]:
    """Loads in ``function`` that may read any of ``objects``."""
    result = []
    for inst in function.instructions():
        if isinstance(inst, Load) and (alias.points_to(inst.pointer) & objects):
            result.append(inst)
    return result


def stores_touching(
    function: Function, alias: AliasAnalysis, objects: Set[MemObject]
) -> List[Store]:
    """Stores in ``function`` that may write any of ``objects``."""
    result = []
    for inst in function.instructions():
        if isinstance(inst, Store) and (alias.points_to(inst.pointer) & objects):
            result.append(inst)
    return result


def library_read_sites(
    function: Function, alias: AliasAnalysis, objects: Set[MemObject]
) -> List[Tuple[Call, Value]]:
    """(call, pointer-arg) pairs where a library callee reads ``objects``.

    Library reads (``strncmp(user, "admin", 5)``) are how branch
    predicates consume aggregate variables, so integrity checks must
    fire before them.
    """
    result: List[Tuple[Call, Value]] = []
    for inst in function.instructions():
        if not isinstance(inst, Call) or not inst.callee.is_declaration:
            continue
        lib = LIBRARY.get(inst.callee.name)
        if lib is None:
            continue
        indices = [i for i in lib.reads_args if i < len(inst.args)]
        if lib.reads_varargs:
            indices.extend(range(len(lib.function_type.params), len(inst.args)))
        for index in indices:
            arg = inst.args[index]
            if isinstance(arg.type, PointerType) and (
                alias.points_to(arg) & objects
            ):
                result.append((inst, arg))
    return result


def hoist_allocas(function: Function, ordered: Sequence[Alloca]) -> None:
    """Re-layout the frame: place ``ordered`` allocas (in that order) at
    the top of the entry block.

    Allocas have no operands, so hoisting is always legal; program
    order of allocas is frame-address order in the simulated CPU, which
    is how Pythia's stack re-layout controls adjacency.
    """
    entry = function.entry_block
    known = set(ordered)
    rest = [i for i in entry.instructions if not (isinstance(i, Alloca) and i in known)]
    for alloca in ordered:
        if alloca.parent is not entry:
            # Allocas in non-entry blocks are moved into the entry frame.
            alloca.parent.instructions.remove(alloca)  # type: ignore[union-attr]
            alloca.parent = entry
    entry.instructions = list(ordered) + rest


def ensure_declaration(module: Module, name: str) -> Function:
    """Declare a library function in the module if not already present."""
    lib = LIBRARY[name]
    return module.declare_function(name, lib.function_type, lib.ic_kind)


def object_modifier_id(obj: MemObject) -> int:
    """Deterministic 64-bit PA modifier identifying a memory object.

    Signing with the *static object identity* rather than the runtime
    address is what defeats pointer-misdirection (§3): a store the
    compiler attributed to object A carries A's modifier, so when the
    attacker steers it onto object B, B's authenticated load fails.
    FNV-1a over the object label keeps the id stable across module
    clones (labels encode function + variable name).
    """
    value = 0xCBF29CE484222325
    for byte in obj.label.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


def sign_scalar_slots(
    function: Function, alias: AliasAnalysis, objects: Set[MemObject]
) -> Tuple[int, int]:
    """Value-sign 8-byte slots: sign at every store, auth at every load.

    The PA modifier is the accessed object's identity
    (:func:`object_modifier_id`); only accesses the analysis resolves
    to a *single* object are instrumented -- ambiguous accesses must be
    demoted by the caller beforehand, or their objects would see
    inconsistently signed values.  Returns ``(signs, auths)``.
    """
    if not objects:
        return 0, 0
    signs = auths = 0
    builder = IRBuilder()
    for store in stores_touching(function, alias, objects):
        if store.value.type.size != 8:
            continue
        pts = alias.points_to(store.pointer)
        if len(pts) != 1:
            continue
        (obj,) = pts
        builder.position_before(store)
        modifier = builder.const(I64, object_modifier_id(obj))
        signed = builder.pac_sign(store.value, modifier)
        store.set_operand(0, signed)
        signs += 1
    for load in loads_touching(function, alias, objects):
        if load.type.size != 8:
            continue
        pts = alias.points_to(load.pointer)
        if len(pts) != 1:
            continue
        (obj,) = pts
        prior_uses = list(load.uses)
        builder.position_after(load)
        modifier = builder.const(I64, object_modifier_id(obj))
        auth = builder.pac_auth(load, modifier)
        for use in prior_uses:
            use.user.set_operand(use.index, auth)
        auths += 1
    return signs, auths
