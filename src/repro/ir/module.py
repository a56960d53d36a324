"""IR modules: the top-level container for functions, globals, structs."""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .function import Function
from .types import FunctionType, StructType, Type
from .values import GlobalVariable


class Module:
    """A translation unit: named functions, globals, and struct types."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.structs: Dict[str, StructType] = {}
        self._string_counter = 0
        #: ``(shape, artifacts)`` behind :meth:`derived`, or ``None``
        self._derived: Optional[Tuple[tuple, Dict[object, object]]] = None

    # -- functions -----------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function: {function.name}")
        self.functions[function.name] = function
        function.module = self
        return function

    def declare_function(
        self,
        name: str,
        function_type: FunctionType,
        input_channel_kind: Optional[str] = None,
    ) -> Function:
        """Declare an external function, returning the existing declaration
        if one with the same name already exists."""
        if name in self.functions:
            return self.functions[name]
        function = Function(
            name,
            function_type,
            is_declaration=True,
            input_channel_kind=input_channel_kind,
        )
        return self.add_function(function)

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"module has no function {name!r}") from None

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def declarations(self) -> List[Function]:
        return [f for f in self.functions.values() if f.is_declaration]

    # -- globals -------------------------------------------------------------

    def add_global(
        self,
        name: str,
        value_type: Type,
        initializer: object = None,
        constant: bool = False,
    ) -> GlobalVariable:
        if name in self.globals:
            raise ValueError(f"duplicate global: {name}")
        gvar = GlobalVariable(name, value_type, initializer, constant)
        self.globals[name] = gvar
        return gvar

    def add_string_literal(self, text: str) -> GlobalVariable:
        """Intern a NUL-terminated string literal as a constant global."""
        data = text.encode("utf-8") + b"\x00"
        for gvar in self.globals.values():
            if gvar.constant and gvar.initializer == data:
                return gvar
        from .types import ArrayType, I8

        self._string_counter += 1
        name = f".str.{self._string_counter}"
        return self.add_global(name, ArrayType(I8, len(data)), data, constant=True)

    # -- structs -------------------------------------------------------------

    def add_struct(self, struct: StructType) -> StructType:
        if struct.name in self.structs:
            raise ValueError(f"duplicate struct: {struct.name}")
        self.structs[struct.name] = struct
        return struct

    # -- cloning -------------------------------------------------------------

    def clone(self, value_map: bool = False):
        """Deep-copy this module by walking the object graph.

        Orders of magnitude cheaper than the textual print/parse
        round-trip (see :mod:`repro.ir.clone`); the round-trip remains
        available as ``repro.core.framework.clone_module_textual`` and
        serves as the verification oracle in the test suite.

        With ``value_map=True`` returns ``(clone, ValueMap)`` where the
        map translates source values to their clones -- the hook that
        lets ``remap_report`` carry a vulnerability analysis across a
        clone instead of recomputing it.
        """
        from .clone import clone_module_with_map

        clone, vmap = clone_module_with_map(self)
        if value_map:
            return clone, vmap
        return clone

    # -- derived artifacts ---------------------------------------------------

    def derived(self) -> Dict[object, object]:
        """The memo of artifacts derived from this module's IR.

        The decode (``"decoded"``), the block and trace programs
        (``"block"``, ``"trace"``; the trace program also holds the
        tier-up counters), the CPU metadata (``"cpu_meta"``) and every
        analysis (``(manager, name)``) live in this one dict.  It
        is tagged with the module's shape -- the global count and each
        function's name, block count and instruction count -- and is
        replaced by an empty dict whenever the shape no longer matches,
        so a mutation nobody reported still drops every artifact as long
        as it changes a count.  Explicit :meth:`invalidate_derived` is
        the primary mechanism; transforms call it after mutating.

        The memo lives on the module because its artifacts reference the
        module: any external map, even a weak-keyed one, would keep every
        module it holds alive for the life of the process.
        """
        # At C level, no generator per block: every CPU construction pays it.
        functions = self.functions.values()
        blocks = tuple(map(attrgetter("blocks"), functions))
        counts = map(map, repeat(len), map(map, repeat(attrgetter("instructions")), blocks))
        shape = (
            len(self.globals),
            tuple(map(attrgetter("name"), functions)),
            tuple(map(len, blocks)),
            tuple(map(sum, counts)),  # instructions per function
        )
        memo = self._derived
        if memo is None or memo[0] != shape:
            memo = self._derived = (shape, {})
        return memo[1]

    def invalidate_derived(self) -> None:
        """Drop every artifact derived from this module (see :meth:`derived`)."""
        self._derived = None

    # -- statistics ----------------------------------------------------------

    def instruction_count(self) -> int:
        """Static instruction count across all defined functions."""
        return sum(
            len(block.instructions)
            for function in self.defined_functions()
            for block in function.blocks
        )

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Module {self.name}: {len(self.defined_functions())} functions, "
            f"{self.instruction_count()} instructions>"
        )
