"""Count the Python bytecodes a call executes: a cost that does not jitter.

Wall-clock throughput on a shared host swings by tens of percent between
batches, which hides the changes an interpreter tier is tuned for.  The
number of bytecodes CPython executes for one simulated run does not
move: it depends only on the code and its input.  Dividing it by the
run's simulated steps gives *Python ops per step*, the per-tier cost
figure ``benchmarks/bench_interp_throughput.py`` records next to its
wall-clock columns.

The count comes from ``sys.settrace`` with ``frame.f_trace_opcodes``
set on every new frame, so it sees the bytecodes of every Python frame
the call enters and nothing of C code (``compile()``, dict and list
internals).  Tracing slows the call by one to two orders of magnitude,
so count a run that takes well under a second untraced.  Caches that
the call fills on first use (decoded programs, frame plans) change the
count, so warm them with an uncounted run first when comparing runs.

Bytecode counts also change with the CPython version, whose compiler
lays out the same code differently.  :func:`count_python_calls` counts
the Python function calls a call makes instead (``sys.setprofile``
``call`` events), which only the code decides; list, dict and set
comprehensions are left out, since Python 3.12 inlines them into their
function.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Tuple


def count_python_ops(
    fn: Callable[..., Any], *args: Any, **kwargs: Any
) -> Tuple[Any, int]:
    """Call ``fn(*args, **kwargs)``; return its result and the bytecodes it ran."""
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.settrace(previous)
    return result, count


#: Code names of the comprehensions Python 3.12 runs inline (PEP 709).
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def count_python_calls(
    fn: Callable[..., Any], *args: Any, **kwargs: Any
) -> Tuple[Any, int]:
    """Call ``fn(*args, **kwargs)``; return its result and the Python
    function calls it made (a generator counts each time it resumes)."""
    count = 0

    def on_event(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_name not in _INLINED:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return result, count
