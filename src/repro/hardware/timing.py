"""Cycle-level timing model for the simulated CPU.

The evaluation's performance numbers (runtime overhead, IPC
degradation) are *ratios* between instrumented and vanilla executions,
so what matters is a consistent, plausible per-instruction cost model
rather than absolute fidelity to the M1 Pro.

Costs are loosely based on published ARMv8 latencies: PA instructions
(``PACIA``/``AUTIA``) cost ~4-5 cycles on Apple silicon; loads hit the
L1 most of the time; the canary RNG is a library call; heap sectioning
adds a fixed per-allocation overhead (~23 ns in the paper, ~70 cycles
at 3.2 GHz).

The IPC model is a simple bounded-width issue model: each instruction
contributes latency cycles, but up to ``issue_width`` single-cycle ops
can retire per cycle, so instrumented code with many independent cheap
ops degrades IPC less than its instruction count suggests -- matching
the paper's observation that "the IPC does not suffer radically since
ARM-PA directly leverages hardware support".
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional


#: Cycles charged per executed IR opcode.
DEFAULT_COSTS: Dict[str, int] = {
    "alloca": 0,  # frame space is reserved at function entry
    "load": 4,
    "store": 1,
    "getelementptr": 1,
    "add": 1,
    "sub": 1,
    "mul": 3,
    "sdiv": 12,
    "srem": 12,
    "and": 1,
    "or": 1,
    "xor": 1,
    "shl": 1,
    "ashr": 1,
    "lshr": 1,
    "icmp": 1,
    "trunc": 1,
    "zext": 1,
    "sext": 1,
    "ptrtoint": 1,
    "inttoptr": 1,
    "bitcast": 0,
    "select": 1,
    "br": 1,
    "ret": 1,
    "call": 2,
    "phi": 0,
    # security intrinsics
    "pac.sign": 4,
    "pac.auth": 4,
    "sec.assert": 1,
    # software DFI is expensive: a hash-table update / membership test
    "dfi.setdef": 7,
    "dfi.chkdef": 9,
}

#: Cycles for the canary RNG library call (one per re-randomisation).
RNG_CALL_CYCLES = 12
#: Extra cycles per allocation routed to the isolated heap section
#: (~23 ns at 3.2 GHz in the paper's measurements).
HEAP_SECTIONING_CYCLES = 70
#: Base cost of any modelled library call (call/ret + PLT).
LIBCALL_BASE_CYCLES = 10
#: Cost per byte moved by string/memory library functions.
LIBCALL_BYTE_CYCLES = 0.25


class TimingModel:
    """Accumulates cycles and instruction counts for one execution.

    ``__slots__`` matters: the interpreter and generated code update
    these counters once per chunk, and slot access is measurably cheaper
    than a ``__dict__`` probe on that path.
    """

    __slots__ = (
        "costs",
        "issue_width",
        "cycles",
        "instructions",
        "opcode_counts",
        "_cheap_run",
    )

    def __init__(
        self,
        costs: Optional[Dict[str, int]] = None,
        issue_width: int = 4,
        cycles: float = 0.0,
        instructions: int = 0,
        opcode_counts: Optional[Dict[str, int]] = None,
        _cheap_run: int = 0,
    ):
        self.costs = dict(DEFAULT_COSTS) if costs is None else costs
        self.issue_width = issue_width
        self.cycles = cycles
        self.instructions = instructions
        #: a defaultdict so hot paths can use ``counts[op] += n`` without a
        #: ``.get`` probe; ExecutionResult copies it into a plain dict
        self.opcode_counts = defaultdict(int) if opcode_counts is None else opcode_counts
        #: single-cycle ops eligible for multi-issue this "window"
        self._cheap_run = _cheap_run

    def charge(self, opcode: str) -> None:
        """Charge one dynamic instruction of ``opcode``."""
        cost = self.costs.get(opcode, 1)
        self.instructions += 1
        self.opcode_counts[opcode] = self.opcode_counts.get(opcode, 0) + 1
        if cost <= 1:
            # Up to issue_width cheap ops retire per cycle.
            self._cheap_run += 1
            if self._cheap_run >= self.issue_width:
                self.cycles += 1
                self._cheap_run = 0
        else:
            self.cycles += cost
            self._cheap_run = 0

    def charge_cycles(self, cycles: float, label: str = "lib") -> None:
        """Charge raw cycles (library calls, allocator overheads)."""
        self.cycles += cycles
        self.opcode_counts[label] = self.opcode_counts.get(label, 0) + 1

    def charge_libcall(self, bytes_moved: int = 0, label: str = "libcall") -> None:
        """Charge one library call moving ``bytes_moved`` bytes: what
        :meth:`charge_cycles` would, inline (it runs per library call)."""
        self.cycles += LIBCALL_BASE_CYCLES + LIBCALL_BYTE_CYCLES * bytes_moved
        counts = self.opcode_counts
        counts[label] = counts.get(label, 0) + 1

    @property
    def ipc(self) -> float:
        """Instructions per cycle for the execution so far."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    def snapshot(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
        }
