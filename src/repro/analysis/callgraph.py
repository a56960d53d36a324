"""Direct call graph over a module."""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir.function import Function
from ..ir.instructions import Call
from ..ir.module import Module


class CallGraph:
    """Callers/callees of every defined function, plus orderings."""

    def __init__(self, module: Module):
        self.module = module
        self.callees: Dict[Function, Set[Function]] = {}
        self.callers: Dict[Function, Set[Function]] = {}
        self.call_sites: Dict[Function, List[Call]] = {}
        for function in module.defined_functions():
            self.callees.setdefault(function, set())
            self.callers.setdefault(function, set())
            self.call_sites.setdefault(function, [])
        for function in module.defined_functions():
            for inst in function.instructions():
                if isinstance(inst, Call):
                    callee = inst.callee
                    self.callees[function].add(callee)
                    if not callee.is_declaration:
                        self.callers.setdefault(callee, set()).add(function)
                        self.call_sites.setdefault(callee, []).append(inst)

    def callers_of(self, function: Function) -> Set[Function]:
        return self.callers.get(function, set())

    def call_sites_of(self, function: Function) -> List[Call]:
        """Every call instruction that targets ``function``."""
        return self.call_sites.get(function, [])

    def is_recursive(self, function: Function) -> bool:
        """True when ``function`` can (transitively) call itself."""
        seen: Set[Function] = set()
        stack = [c for c in self.callees.get(function, ()) if not c.is_declaration]
        while stack:
            current = stack.pop()
            if current is function:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(
                c for c in self.callees.get(current, ()) if not c.is_declaration
            )
        return False
