"""Def-use chains over memory, and reaching definitions.

SSA values carry their def-use chains structurally (every
:class:`~repro.ir.values.Value` tracks its uses), so this module is
about the part SSA does not give us: *memory*.  A load's definitions
are the stores -- and input-channel writes -- that may write the same
abstract object, as determined by the alias analysis.

Two granularities are provided:

- :class:`MemoryDefUse` -- module-wide, flow-insensitive may-def
  indexing used by the slicers;
- :class:`ReachingDefinitions` -- intraprocedural, block-level,
  flow-sensitive reaching definitions used by the DFI baseline to build
  its allowed-writer sets (smaller sets = the checks DFI actually
  performs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..ir.cfg import predecessor_map, reverse_postorder
from ..ir.function import BasicBlock, Function
from ..ir.instructions import Call, Instruction, Load, Store
from ..ir.module import Module
from .alias import AliasAnalysis, MemObject
from .input_channels import InputChannelAnalysis, InputChannelSite


@dataclass(eq=False)
class MemoryDef:
    """One definition of memory: a store or an input-channel write."""

    def_id: int
    inst: Instruction  # Store or Call
    function: Function
    objects: FrozenSet[MemObject]
    ic_site: Optional[InputChannelSite] = None

    @property
    def is_input_channel(self) -> bool:
        return self.ic_site is not None


class MemoryDefUse:
    """Module-wide index: object -> defs / loads that may touch it."""

    def __init__(
        self,
        module: Module,
        alias: AliasAnalysis,
        channels: Optional[InputChannelAnalysis] = None,
    ):
        self.module = module
        self.alias = alias
        self.channels = channels or InputChannelAnalysis(module)
        self.defs: List[MemoryDef] = []
        self.defs_by_object: Dict[MemObject, List[MemoryDef]] = {}
        self.loads_by_object: Dict[MemObject, List[Load]] = {}
        self.def_for_inst: Dict[int, MemoryDef] = {}
        self._index()

    def _new_def(
        self,
        inst: Instruction,
        function: Function,
        objects: FrozenSet[MemObject],
        ic_site: Optional[InputChannelSite] = None,
    ) -> MemoryDef:
        mdef = MemoryDef(len(self.defs) + 1, inst, function, objects, ic_site)
        self.defs.append(mdef)
        self.def_for_inst[id(inst)] = mdef
        for obj in objects:
            self.defs_by_object.setdefault(obj, []).append(mdef)
        return mdef

    def _index(self) -> None:
        ic_by_call = {id(site.call): site for site in self.channels.sites}
        for function in self.module.defined_functions():
            for inst in function.instructions():
                if isinstance(inst, Store):
                    objects = self.alias.points_to(inst.pointer)
                    self._new_def(inst, function, objects)
                elif isinstance(inst, Call):
                    site = ic_by_call.get(id(inst))
                    if site is None:
                        continue
                    objects: Set[MemObject] = set()
                    for ptr in site.written_pointers:
                        objects |= self.alias.points_to(ptr)
                    if site.writes_return:
                        objects |= self.alias.points_to(inst)
                    if objects:
                        self._new_def(inst, function, frozenset(objects), site)
                elif isinstance(inst, Load):
                    for obj in self.alias.points_to(inst.pointer):
                        self.loads_by_object.setdefault(obj, []).append(inst)

    # -- queries -----------------------------------------------------------------

    def defs_of_object(self, obj: MemObject) -> List[MemoryDef]:
        return self.defs_by_object.get(obj, [])


    def ic_defs_of_object(self, obj: MemObject) -> List[MemoryDef]:
        return [d for d in self.defs_of_object(obj) if d.is_input_channel]

    def def_of(self, inst: Instruction) -> Optional[MemoryDef]:
        return self.def_for_inst.get(id(inst))


class ReachingDefinitions:
    """Classic block-level reaching definitions for one function.

    A definition is *killed* only by a later definition that
    must-aliases the same single object (strong update); definitions
    through ambiguous pointers are weak updates.
    """

    def __init__(self, function: Function, memdu: MemoryDefUse):
        self.function = function
        self.memdu = memdu
        self.alias = memdu.alias
        self._local_defs = [d for d in memdu.defs if d.function is function]
        self.block_in: Dict[BasicBlock, Set[int]] = {}
        self.block_out: Dict[BasicBlock, Set[int]] = {}
        self._solve()

    def _strong_object(self, mdef: MemoryDef):
        """The single object ``mdef`` fully overwrites, or ``None``.

        A store is a *strong* update (killing prior definitions) only
        when it must-alias one concrete object **and** covers the whole
        object -- an element store into an array must not kill its
        sibling elements' definitions.
        """
        if not isinstance(mdef.inst, Store):
            return None
        obj = self.alias.must_alias_single(mdef.inst.pointer)
        if obj is None:
            return None
        from ..ir.instructions import Alloca
        from ..ir.values import GlobalVariable

        anchor = obj.anchor
        if isinstance(anchor, Alloca):
            full = anchor.allocated_type.size
        elif isinstance(anchor, GlobalVariable):
            full = anchor.value_type.size
        else:
            return None
        if mdef.inst.value.type.size >= full:
            return obj
        return None

    def _gen_kill(self, block: BasicBlock) -> Tuple[Set[int], Set[int]]:
        gen: Set[int] = set()
        kill: Set[int] = set()
        for inst in block.instructions:
            mdef = self.memdu.def_of(inst)
            if mdef is None or mdef.function is not self.function:
                continue
            obj = self._strong_object(mdef)
            if obj is not None:
                for other in self.memdu.defs_of_object(obj):
                    if other.def_id != mdef.def_id:
                        kill.add(other.def_id)
                        gen.discard(other.def_id)
            gen.add(mdef.def_id)
        return gen, kill

    def _solve(self) -> None:
        blocks = reverse_postorder(self.function)
        gen_kill = {block: self._gen_kill(block) for block in blocks}
        # One predecessor map for the whole fixpoint: the per-block
        # property rescans the function on every call.
        preds = predecessor_map(self.function)
        for block in blocks:
            self.block_in[block] = set()
            self.block_out[block] = set(gen_kill[block][0])
        changed = True
        while changed:
            changed = False
            for block in blocks:
                new_in: Set[int] = set()
                for pred in preds[block]:
                    new_in |= self.block_out.get(pred, set())
                gen, kill = gen_kill[block]
                new_out = gen | (new_in - kill)
                if new_in != self.block_in[block] or new_out != self.block_out[block]:
                    self.block_in[block] = new_in
                    self.block_out[block] = new_out
                    changed = True

    def reaching(self, load: Load) -> Set[MemoryDef]:
        """Definitions of ``load``'s objects that reach the load point."""
        return self.reaching_at(load, self.memdu.alias.points_to(load.pointer))

    def reaching_at(
        self, point: Instruction, target_objects
    ) -> Set[MemoryDef]:
        """Definitions of ``target_objects`` live just before ``point``."""
        block = point.parent
        assert block is not None
        live = set(self.block_in.get(block, set()))
        for inst in block.instructions:
            if inst is point:
                break
            mdef = self.memdu.def_of(inst)
            if mdef is None:
                continue
            obj = self._strong_object(mdef)
            if obj is not None:
                for other in self.memdu.defs_of_object(obj):
                    live.discard(other.def_id)
            live.add(mdef.def_id)
        by_id = {d.def_id: d for d in self.memdu.defs}
        return {
            by_id[def_id]
            for def_id in live
            if def_id in by_id and (by_id[def_id].objects & set(target_objects))
        }
