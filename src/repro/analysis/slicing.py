"""Program slicing: branch decomposition and input-channel construction.

This module implements the paper's two central analyses:

- **Branch decomposition** (Algorithm 1): the backward slice of a
  conditional branch's predicate, computed with a worklist over use-def
  chains, extended through memory via the alias analysis, and
  transitively through direct calls.  The result -- the *branch
  sub-variable set* -- is every program variable whose corruption could
  flip the branch.

- **Input-channel construction**: the forward slice of the variables an
  input channel writes, i.e. everything external input can reach.

Both slicers record the facts the evaluation needs: slice length (for
attack distance), pointer-arithmetic / field-access occurrences (where
DFI's reasoning terminates, §7), the input channels reached, and
whether the walk had to give up on complex interprocedural aliasing
(Pythia's own stated limitation, §6.2).

The DFI comparison baseline reuses the same machinery with
``stop_at_pointer_arithmetic=True``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.function import Function
from ..ir.instructions import (
    BinOp,
    Call,
    Cast,
    CondBranch,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.module import Module
from ..ir.types import PointerType
from ..ir.values import Argument, Constant, GlobalVariable, UndefValue, Value
from .alias import AliasAnalysis, MemObject
from .callgraph import CallGraph
from .dataflow import MemoryDefUse
from .input_channels import InputChannelAnalysis, InputChannelSite


def dfi_hostile_gep(gep: GetElementPtr) -> bool:
    """True when DFI's static analysis cannot reason about this access.

    Field accesses defeat its field-insensitive points-to, and raw
    pointer arithmetic (a non-zero leading index on anything that is
    not a plain array parameter) produces pointers it cannot bound.
    Array indexing through a pointer *parameter* (``data[i]``) is the
    common analyzable case real DFI handles.
    """
    from ..ir.values import Argument

    if gep.is_field_access():
        return True
    first = gep.indices[0]
    if isinstance(first, Constant) and first.value == 0:
        return False
    return not isinstance(gep.pointer, Argument)


class BranchSlice:
    """The backward slice of one conditional branch (or, via
    :meth:`BackwardSlicer.slice_value`, of an arbitrary value, in which
    case ``branch`` is ``None``)."""

    __slots__ = (
        "branch",
        "function",
        "values",
        "variables",
        "input_channels",
        "has_pointer_arithmetic",
        "has_field_access",
        "complex_interprocedural",
        "terminated_at",
    )

    def __init__(
        self,
        branch: Optional[CondBranch],
        function: Function,
        values: Optional[Set[Instruction]] = None,
        variables: Optional[Set[MemObject]] = None,
        input_channels: Optional[List[Tuple[InputChannelSite, int]]] = None,
        has_pointer_arithmetic: bool = False,
        has_field_access: bool = False,
        complex_interprocedural: bool = False,
        terminated_at: Optional[List[Instruction]] = None,
    ):
        self.branch = branch
        self.function = function
        #: SSA instructions in the slice
        self.values = set() if values is None else values
        #: abstract memory objects (program variables) in the slice
        self.variables = set() if variables is None else variables
        #: input channels whose writes reach the slice, with traversal depth
        self.input_channels = [] if input_channels is None else input_channels
        self.has_pointer_arithmetic = has_pointer_arithmetic
        self.has_field_access = has_field_access
        #: the walk required reasoning through caller-opaque memory
        self.complex_interprocedural = complex_interprocedural
        #: instructions the slicer refused to cross (DFI termination points)
        self.terminated_at = [] if terminated_at is None else terminated_at

    @property
    def length(self) -> int:
        """Static slice length in IR instructions (the paper's unit of
        attack distance)."""
        return len(self.values)

    @property
    def reaches_input_channel(self) -> bool:
        return bool(self.input_channels)

    @property
    def ic_distance(self) -> Optional[int]:
        """Traversal depth (instructions) from branch to the nearest IC."""
        if not self.input_channels:
            return None
        return min(depth for _, depth in self.input_channels)

    def pointer_fraction(self) -> float:
        """Fraction of slice values that are pointer-typed (Fig. 7(a))."""
        if not self.values:
            return 0.0
        pointers = sum(
            1 for v in self.values if isinstance(v.type, PointerType)
        )
        return pointers / len(self.values)


class BackwardSlicer:
    """Branch decomposition (Algorithm 1) with pluggable termination.

    ``stop_at_pointer_arithmetic`` reproduces DFI: the walk refuses to
    cross getelementptrs that perform raw pointer arithmetic or
    field-insensitive struct access.  Pythia's slicer crosses them but
    records ``complex_interprocedural`` when it would have to reason
    about caller-opaque memory (argument-summary objects reached
    through double indirection).
    """

    def __init__(
        self,
        module: Module,
        alias: Optional[AliasAnalysis] = None,
        channels: Optional[InputChannelAnalysis] = None,
        memdu: Optional[MemoryDefUse] = None,
        callgraph: Optional[CallGraph] = None,
        stop_at_pointer_arithmetic: bool = False,
        max_visits: int = 20000,
    ):
        self.module = module
        self.alias = alias or AliasAnalysis(module)
        self.channels = channels or InputChannelAnalysis(module)
        self.memdu = memdu or MemoryDefUse(module, self.alias, self.channels)
        self.callgraph = callgraph or CallGraph(module)
        self.stop_at_pointer_arithmetic = stop_at_pointer_arithmetic
        self.max_visits = max_visits
        # Per-module call-site index, built once: slicing every branch of
        # a module used to re-scan ``channels.sites`` linearly per call.
        self._site_by_call: Dict[int, InputChannelSite] = {
            id(site.call): site for site in self.channels.sites
        }

    # -- public API -----------------------------------------------------------

    def slice_branch(self, branch: CondBranch) -> BranchSlice:
        """Compute the branch sub-variable set of ``branch``."""
        function = branch.function
        assert function is not None
        result = BranchSlice(branch=branch, function=function)
        self._walk(branch.condition, result)
        return result

    def slice_value(self, value: Value, function: Function) -> BranchSlice:
        """Backward slice of an arbitrary value."""
        result = BranchSlice(branch=None, function=function)
        self._walk(value, result)
        return result

    # -- the worklist walk ---------------------------------------------------------

    def _walk(self, root: Value, result: BranchSlice) -> None:
        worklist: List[Tuple[Value, int]] = [(root, 0)]
        visited: Set[int] = set()
        visits = 0
        while worklist:
            value, depth = worklist.pop()
            if id(value) in visited:
                continue
            visited.add(id(value))
            visits += 1
            if visits > self.max_visits:
                break
            self._visit(value, depth, result, worklist)

    def _push(
        self, worklist: List[Tuple[Value, int]], value: Value, depth: int
    ) -> None:
        if not isinstance(value, (Constant, UndefValue)):
            worklist.append((value, depth))

    def _visit(
        self,
        value: Value,
        depth: int,
        result: BranchSlice,
        worklist: List[Tuple[Value, int]],
    ) -> None:
        if isinstance(value, Argument):
            self._visit_argument(value, depth, result, worklist)
            return
        if isinstance(value, GlobalVariable):
            obj = self.alias.object_for(value)
            if obj is not None:
                self._visit_object(obj, depth, result, worklist)
            return
        if not isinstance(value, Instruction):
            return

        result.values.add(value)
        depth += 1

        if isinstance(value, Load):
            self._push(worklist, value.pointer, depth)
            self._visit_memory_read(value, depth, result, worklist)
            return
        if isinstance(value, GetElementPtr):
            if value.is_pointer_arithmetic():
                result.has_pointer_arithmetic = True
            if value.is_field_access():
                result.has_field_access = True
            if self.stop_at_pointer_arithmetic and dfi_hostile_gep(value):
                # DFI gives up here: it cannot reason about the computed
                # pointer, so the slice (and protection) ends.
                result.terminated_at.append(value)
                return
            for operand in value.operands:
                self._push(worklist, operand, depth)
            return
        if isinstance(value, Call):
            self._visit_call(value, depth, result, worklist)
            return
        if isinstance(value, (BinOp, ICmp, Cast, Select, Phi)):
            for operand in value.operands:
                self._push(worklist, operand, depth)
            return
        # Any other value-producing instruction: follow its operands.
        for operand in value.operands:
            self._push(worklist, operand, depth)

    # -- memory ----------------------------------------------------------------

    def _visit_memory_read(
        self,
        load: Load,
        depth: int,
        result: BranchSlice,
        worklist: List[Tuple[Value, int]],
    ) -> None:
        objects = self.alias.points_to(load.pointer)
        if not objects:
            # A read through memory the pointer analysis could not
            # resolve (e.g. a pointer fetched from an externally mapped
            # region): the slice cannot be extended to an input channel
            # -- Pythia's complex-interprocedural-aliasing limitation.
            result.complex_interprocedural = True
            return
        for obj in objects:
            self._visit_object(obj, depth, result, worklist)

    def _visit_object(
        self,
        obj: MemObject,
        depth: int,
        result: BranchSlice,
        worklist: List[Tuple[Value, int]],
    ) -> None:
        if obj in result.variables:
            return
        result.variables.add(obj)
        if obj.kind == "arg":
            # Memory opaque to this module position: Pythia's complex
            # interprocedural aliasing case.
            result.complex_interprocedural = True
            return
        for mdef in self.memdu.defs_of_object(obj):
            if mdef.is_input_channel:
                result.input_channels.append((mdef.ic_site, depth + 1))
                continue
            store = mdef.inst
            assert isinstance(store, Store)
            if self.stop_at_pointer_arithmetic and self._pointer_is_computed(
                store.pointer
            ):
                result.terminated_at.append(store)
                continue
            result.values.add(store)
            self._push(worklist, store.value, depth + 1)
            self._push(worklist, store.pointer, depth + 1)

    @staticmethod
    def _pointer_is_computed(pointer: Value) -> bool:
        """True when an access pointer came from DFI-hostile computation."""
        seen: Set[int] = set()
        while isinstance(pointer, (GetElementPtr, Cast)) and id(pointer) not in seen:
            seen.add(id(pointer))
            if isinstance(pointer, GetElementPtr) and dfi_hostile_gep(pointer):
                return True
            pointer = pointer.operands[0]
        return False

    # -- interprocedural extension ------------------------------------------------------

    def _visit_argument(
        self,
        argument: Argument,
        depth: int,
        result: BranchSlice,
        worklist: List[Tuple[Value, int]],
    ) -> None:
        call_sites = self.callgraph.call_sites_of(argument.function)
        if not call_sites:
            return
        for call in call_sites:
            if argument.index < len(call.args):
                self._push(worklist, call.args[argument.index], depth + 1)

    def _visit_call(
        self,
        call: Call,
        depth: int,
        result: BranchSlice,
        worklist: List[Tuple[Value, int]],
    ) -> None:
        callee = call.callee
        if callee.is_declaration:
            from .input_channels import channel_kind_of

            if channel_kind_of(callee) is not None:
                site = self._site_for_call(call)
                if site is not None:
                    result.input_channels.append((site, depth))
            # The result of a library call depends on the memory its
            # pointer arguments reference (strlen, strncmp, ...).
            for arg in call.args:
                self._push(worklist, arg, depth)
                if isinstance(arg.type, PointerType):
                    for obj in self.alias.points_to(arg):
                        self._visit_object(obj, depth, result, worklist)
            return
        # Defined callee: the value flows from its return statements.
        for block in callee.blocks:
            term = block.terminator
            if isinstance(term, Ret) and term.value is not None:
                self._push(worklist, term.value, depth + 1)
        for arg in call.args:
            self._push(worklist, arg, depth + 1)

    def _site_for_call(self, call: Call) -> Optional[InputChannelSite]:
        return self._site_by_call.get(id(call))


class ForwardSlice:
    """Everything reachable forward from input-channel writes."""

    __slots__ = ("sites", "values", "variables")

    def __init__(
        self,
        sites: List[InputChannelSite],
        values: Optional[Set[Instruction]] = None,
        variables: Optional[Set[MemObject]] = None,
    ):
        self.sites = sites
        self.values = set() if values is None else values
        self.variables = set() if variables is None else variables

    @property
    def length(self) -> int:
        return len(self.values)


class ForwardSlicer:
    """Input-channel construction: forward slices from IC writes.

    Starting from the objects an input channel writes, the walk follows
    loads of those objects, every computation on the loaded values, and
    stores that propagate tainted values into further objects --
    transitively, module-wide.
    """

    def __init__(
        self,
        module: Module,
        alias: Optional[AliasAnalysis] = None,
        channels: Optional[InputChannelAnalysis] = None,
        memdu: Optional[MemoryDefUse] = None,
        max_visits: int = 50000,
    ):
        self.module = module
        self.alias = alias or AliasAnalysis(module)
        self.channels = channels or InputChannelAnalysis(module)
        self.memdu = memdu or MemoryDefUse(module, self.alias, self.channels)

        self.max_visits = max_visits

    def slice_site(self, site: InputChannelSite) -> ForwardSlice:
        """Forward slice of one IC call site."""
        return self._slice([site])

    def slice_all(self) -> ForwardSlice:
        """Forward slice of every IC in the module (the full tainted set)."""
        return self._slice(list(self.channels.sites))

    def _slice(self, sites: List[InputChannelSite]) -> ForwardSlice:
        result = ForwardSlice(sites=sites)
        tainted_objects: Set[MemObject] = set()
        worklist: List[Value] = []
        for site in sites:
            for ptr in site.written_pointers:
                tainted_objects |= self.alias.points_to(ptr)
            if site.writes_return:
                tainted_objects |= self.alias.points_to(site.call)
                worklist.append(site.call)
        result.variables |= tainted_objects

        visited: Set[int] = set()
        pending_objects = list(tainted_objects)
        visits = 0
        while worklist or pending_objects:
            visits += 1
            if visits > self.max_visits:
                break
            if pending_objects:
                obj = pending_objects.pop()
                for load in self.memdu.loads_by_object.get(obj, []):
                    if id(load) not in visited:
                        visited.add(id(load))
                        result.values.add(load)
                        worklist.extend(load.users)
                continue
            value = worklist.pop()
            if not isinstance(value, Instruction) or id(value) in visited:
                continue
            visited.add(id(value))
            result.values.add(value)
            if isinstance(value, Store):
                # Taint propagates into the stored-to objects.
                for obj in self.alias.points_to(value.pointer):
                    if obj not in result.variables:
                        result.variables.add(obj)
                        pending_objects.append(obj)
                continue
            worklist.extend(value.users)
        return result
