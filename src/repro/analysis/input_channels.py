"""Input-channel detection and classification (Definition 2.1).

An *input channel* (IC) is a function through which external data
enters program memory.  The paper classifies six categories -- print,
scan, move/copy, get, put, map -- and reports their distribution
(Fig. 5(b)).

Detection covers:

- library declarations carried in the libc registry
  (:data:`repro.hardware.libc.LIBRARY`), whose IR declarations are
  tagged with ``input_channel_kind``;
- *user-implemented variants* (the paper's nginx ``ngx_*`` copies):
  defined functions explicitly tagged with ``input_channel_kind``;
- *dispatcher functions*: defined functions that forward one of their
  own pointer parameters into the written argument of another IC --
  these are the paper's "dispatcher gadgets" and are treated as ICs of
  the same category at their call sites.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..hardware.libc import LIBRARY
from ..ir.function import Function
from ..ir.instructions import Call, Instruction
from ..ir.module import Module
from ..ir.types import PointerType
from ..ir.values import Argument, Value

#: The six IC categories of Definition 2.1.
IC_CATEGORIES = ("print", "scan", "movecopy", "get", "put", "map")


class InputChannelSite:
    """One call site of an input channel."""

    __slots__ = ("call", "function", "kind", "written_pointers", "writes_return")

    def __init__(
        self,
        call: Call,
        function: Function,
        kind: str,
        written_pointers: Tuple[Value, ...],
        writes_return: bool = False,
    ):
        self.call = call
        #: the function containing the call
        self.function = function
        self.kind = kind
        #: operand values the channel writes through (overflow destinations)
        self.written_pointers = written_pointers
        #: True when the channel's *return value* carries external data
        self.writes_return = writes_return


def channel_kind_of(function: Function) -> Optional[str]:
    """The IC category of a callee, or ``None``."""
    if function.input_channel_kind:
        return function.input_channel_kind
    lib = LIBRARY.get(function.name)
    if lib is not None:
        return lib.ic_kind
    return None


def written_argument_indices(callee: Function, num_args: int) -> List[int]:
    """Indices of call arguments the channel writes through."""
    lib = LIBRARY.get(callee.name)
    if lib is not None:
        indices = [i for i in lib.writes_args if i < num_args]
        if lib.writes_varargs:
            indices.extend(range(len(lib.function_type.params), num_args))
        return indices
    # User-tagged ICs: conservatively, every pointer parameter is written.
    return [
        i
        for i, ptype in enumerate(callee.function_type.params[:num_args])
        if isinstance(ptype, PointerType)
    ]


class InputChannelAnalysis:
    """Finds and classifies every IC call site in a module."""

    def __init__(self, module: Module):
        self.module = module
        self.dispatchers: Dict[Function, str] = {}
        self._find_dispatchers()
        self.sites: List[InputChannelSite] = []
        self._collect_sites()

    # -- dispatcher detection ----------------------------------------------------

    def _find_dispatchers(self) -> None:
        """Iterate to a fixpoint: a function that passes one of its own
        pointer parameters into an IC's written argument is itself an IC."""
        changed = True
        while changed:
            changed = False
            for function in self.module.defined_functions():
                if function in self.dispatchers or function.input_channel_kind:
                    continue
                kind = self._dispatch_kind(function)
                if kind is not None:
                    self.dispatchers[function] = kind
                    changed = True

    def _dispatch_kind(self, function: Function) -> Optional[str]:
        params = set(function.args)
        for inst in function.instructions():
            if not isinstance(inst, Call):
                continue
            kind = self._site_kind(inst.callee)
            if kind is None:
                continue
            for index in written_argument_indices(inst.callee, len(inst.args)):
                value = inst.args[index]
                if value in params or self._derives_from_param(value, params):
                    return kind
        return None

    def _site_kind(self, callee: Function) -> Optional[str]:
        kind = channel_kind_of(callee)
        if kind is not None:
            return kind
        return self.dispatchers.get(callee)

    @staticmethod
    def _derives_from_param(value: Value, params: set) -> bool:
        """Follow gep/cast chains (and the codegen's parameter spill
        slots) back to a formal parameter."""
        from ..ir.instructions import Alloca, Cast, GetElementPtr, Load, Store

        seen = set()
        while id(value) not in seen:
            seen.add(id(value))
            if isinstance(value, (GetElementPtr, Cast)):
                value = value.operands[0]
                continue
            if isinstance(value, Load) and isinstance(value.pointer, Alloca):
                # `%p.addr = alloca; store %p, %p.addr; ... load %p.addr`
                slot = value.pointer
                stores = [
                    u
                    for u in slot.users
                    if isinstance(u, Store) and u.pointer is slot
                ]
                if len(stores) == 1 and isinstance(stores[0].value, Argument):
                    value = stores[0].value
                    continue
            break
        return value in params

    # -- site collection ---------------------------------------------------------------

    def _collect_sites(self) -> None:
        for function in self.module.defined_functions():
            for inst in function.instructions():
                if not isinstance(inst, Call):
                    continue
                kind = self._site_kind(inst.callee)
                if kind is None:
                    continue
                indices = written_argument_indices(inst.callee, len(inst.args))
                written = tuple(
                    inst.args[i]
                    for i in indices
                    if isinstance(inst.args[i].type, PointerType)
                )
                lib = LIBRARY.get(inst.callee.name)
                self.sites.append(
                    InputChannelSite(
                        call=inst,
                        function=function,
                        kind=kind,
                        written_pointers=written,
                        writes_return=bool(lib and lib.writes_return),
                    )
                )

    # -- reporting ---------------------------------------------------------------

    def distribution(self) -> Dict[str, int]:
        """IC count per category (the Fig. 5(b) census)."""
        counts = {category: 0 for category in IC_CATEGORIES}
        for site in self.sites:
            counts[site.kind] = counts.get(site.kind, 0) + 1
        return counts

    def total(self) -> int:
        return len(self.sites)

    def sites_in(self, function: Function) -> List[InputChannelSite]:
        return [s for s in self.sites if s.function is function]
