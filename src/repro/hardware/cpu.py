"""The simulated CPU: an IR interpreter with a timing model and traps.

The CPU executes one module's IR against the byte-addressable
:class:`~repro.hardware.memory.Memory`.  It implements the semantics the
defense passes rely on:

- PAC sign/auth with trap-on-mismatch (:class:`PacAuthError`);
- ``sec.assert`` canary checks (:class:`CanaryTrap`);
- the DFI runtime definitions table (:class:`DfiTrap`);
- flat segments, so buffer overflows corrupt silently until a check fires.

Executions are deterministic given the seed, and every run accumulates
the counters the paper's evaluation reports: cycles, IPC, dynamic PA
instruction counts, input-channel invocations, allocator statistics.

Four interpreter tiers execute the same semantics:

- ``reference``: the original ``isinstance``-dispatch interpreter,
  kept as the semantic oracle (see the golden-equivalence test suite).
  It lives in :mod:`repro.hardware.oracle`, which a run imports only
  when it needs it.  It charges every instruction on its own, so the
  batched tiers below hand it whatever their tables cannot charge
  exactly: every call under a non-default cost table or issue width,
  and the rest of a call that crosses ``max_steps`` inside a chunk.
- ``decoded`` (the default): walks blocks pre-compiled by
  :mod:`repro.hardware.decoder` into bound handler closures -- operand
  kinds resolved once, constants folded, GEP strides pre-multiplied --
  and charges the timing model once per chunk of ops, not per op.
- ``block`` and ``trace``: one compiler over the decoded program
  (:func:`repro.hardware.tracec.trace_compile`) that emits generated
  Python with batched accounting.  ``block`` selects no region, so
  every basic block is one generated function; ``trace`` fuses hot
  loops and small functions into one function per region.  Without a
  profiler, ``trace`` compiles lazily: a function runs decoded until
  its own steps pay back its compile cost, then compiles for its next
  call (see :mod:`repro.hardware.tracec`).

Select with ``CPU(..., interpreter="reference")`` or the
``REPRO_INTERPRETER`` environment variable.

Passing ``profiler=ExecutionProfiler()`` attributes retired steps and
cycles per function (all tiers; counter deltas read once per dynamic
call) and per basic block (block tier only, one delta per block
execution).  The ``profiler is None`` check sits in :meth:`_call` and
in the block-driver selection -- never inside a per-instruction loop --
so an unprofiled run keeps the block tier's throughput.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from collections import deque

from ..ir.function import Function
from ..ir.instructions import Alloca, DfiChkDef, DfiSetDef
from ..ir.module import Module
from ..ir.types import ArrayType
from ..ir.values import GlobalVariable, Value
from .allocator import OutOfMemoryError, SectionedHeap
from .cache import CacheModel
from .decoder import (
    BLOCK_RET,
    CHUNK_ISSUE_WIDTH,
    CHUNK_OPS,
    DecodedBlock,
    _chunk_start,
    _undo_chunk_tail,
    compute_global_layout,
    decode_module,
)
from .errors import (
    DFI_EXTERNAL_WRITER,
    CanaryTrap,
    DfiTrap,
    NullPointerTrap,
    ProgramExit,
    SectionTrap,
    SecurityTrap,
    StepLimitExceeded,
    UnknownExternalError,
    UnknownInterpreterError,
)
from .libc import LIBRARY
from .memory import Memory, MemoryFault, STACK_BASE
from .pac import PacAuthError, PointerAuthentication
from .rng import CanaryRng
from .timing import DEFAULT_COSTS, TimingModel

_MASK64 = (1 << 64) - 1

#: Interpreter backends accepted by :class:`CPU`.
INTERPRETERS = ("decoded", "reference", "block", "trace")

#: Shared infinite default-writer iterator for bulk shadow lookups
#: (``map`` stops at the shortest input, so sharing one is safe).
_EXTERNAL = repeat(DFI_EXTERNAL_WRITER)


def _module_meta(module: Module, memo: Dict[object, object]) -> tuple:
    """Per-module interpreter metadata, in the ``"cpu_meta"`` slot of
    ``memo`` (``module.derived()``).

    ``(dfi_active, frame_plans)`` -- whether any function carries DFI
    instrumentation (a whole-module instruction scan), and the shared
    per-function frame-layout plan cache, both of which are pure
    functions of the IR and therefore safe to share across every CPU
    instance running the module.  Kept fresh and dropped with every
    other derived artifact (:meth:`repro.ir.module.Module.derived`).
    """
    meta = memo.get("cpu_meta")
    if meta is None:
        dfi_active = any(
            isinstance(inst, (DfiSetDef, DfiChkDef))
            for function in module.defined_functions()
            for inst in function.instructions()
        )
        meta = memo["cpu_meta"] = (dfi_active, {})
    return meta


class DfiShadow:
    """The DFI runtime definitions table, tracked at byte granularity.

    Backed by a plain dict but updated and checked with bulk range
    operations (``dict.fromkeys``/``update`` and a set-containment fast
    path) instead of per-byte Python loops -- ``memcpy``-style external
    writes touch hundreds of bytes per call.
    """

    __slots__ = ("_map", "fault_hook")

    def __init__(self):
        self._map: Dict[int, int] = {}
        #: optional fault injector (see :mod:`repro.robustness.faults`);
        #: when set, instrumented ``dfi.setdef`` writer ids pass through
        #: ``fault_hook.on_dfi_setdef(address, size, def_id)`` -- the
        #: external-writer id is exempt so library writes stay benign
        self.fault_hook = None

    def set_range(self, address: int, size: int, def_id: int) -> None:
        """Record ``def_id`` as the last writer of ``size`` bytes."""
        if self.fault_hook is not None and def_id != DFI_EXTERNAL_WRITER:
            def_id = self.fault_hook.on_dfi_setdef(address, size, def_id)
        shadow = self._map
        if size == 1:
            shadow[address] = def_id
        elif size == 8:
            # Unrolled stores beat the iterator-pair bulk update ~3x at
            # pointer width, the dominant instrumented access size.
            shadow[address] = def_id
            shadow[address + 1] = def_id
            shadow[address + 2] = def_id
            shadow[address + 3] = def_id
            shadow[address + 4] = def_id
            shadow[address + 5] = def_id
            shadow[address + 6] = def_id
            shadow[address + 7] = def_id
        else:
            shadow.update(zip(range(address, address + size), repeat(def_id)))

    def check_range(
        self, address: int, size: int, allowed: frozenset
    ) -> Optional[Tuple[int, int]]:
        """First ``(address, writer)`` violating ``allowed``, or ``None``."""
        get = self._map.get
        external = DFI_EXTERNAL_WRITER
        if size == 1:
            writer = get(address, external)
            return None if writer in allowed else (address, writer)
        # Passing checks (the overwhelmingly common case) resolve without
        # a Python-level loop: pointer-width checks unroll into straight
        # membership tests (~2x faster than building the writer set),
        # other sizes collect the distinct writers in one C-level sweep.
        # Only a failing check pays the per-byte scan to locate the
        # first violating address.
        if size == 8:
            if (
                get(address, external) in allowed
                and get(address + 1, external) in allowed
                and get(address + 2, external) in allowed
                and get(address + 3, external) in allowed
                and get(address + 4, external) in allowed
                and get(address + 5, external) in allowed
                and get(address + 6, external) in allowed
                and get(address + 7, external) in allowed
            ):
                return None
        elif set(map(get, range(address, address + size), _EXTERNAL)) <= allowed:
            return None
        for byte_address in range(address, address + size):
            writer = get(byte_address, DFI_EXTERNAL_WRITER)
            if writer not in allowed:
                return byte_address, writer
        return None

    def check_batch(
        self, specs: tuple, frame: Dict[Value, int]
    ) -> Optional[Tuple[int, int, int, frozenset]]:
        """Check a run of same-block ``dfi.chkdef`` ops in one call.

        ``specs`` is a tuple of ``(is_const, pointer, size, allowed)``
        entries (pointer is a folded address or a frame key); the block
        tier emits one batched call per run instead of one call per op.
        Returns ``(index, address, writer, allowed)`` for the first
        violating element, or ``None``.
        """
        get = self._map.get
        external = DFI_EXTERNAL_WRITER
        index = 0
        for constant, pointer, size, allowed in specs:
            address = pointer if constant else frame[pointer]
            if size == 1:
                writer = get(address, external)
                if writer not in allowed:
                    return index, address, writer, allowed
            elif size == 8 and (
                get(address, external) in allowed
                and get(address + 1, external) in allowed
                and get(address + 2, external) in allowed
                and get(address + 3, external) in allowed
                and get(address + 4, external) in allowed
                and get(address + 5, external) in allowed
                and get(address + 6, external) in allowed
                and get(address + 7, external) in allowed
            ):
                pass
            elif (
                size == 8
                or not set(map(get, range(address, address + size), _EXTERNAL))
                <= allowed
            ):
                for byte_address in range(address, address + size):
                    writer = get(byte_address, external)
                    if writer not in allowed:
                        return index, byte_address, writer, allowed
            index += 1
        return None

    # dict-like helpers kept for tests and debugging
    def get(self, address: int, default: int = DFI_EXTERNAL_WRITER) -> int:
        return self._map.get(address, default)

    def __getitem__(self, address: int) -> int:
        return self._map[address]

    def __setitem__(self, address: int, def_id: int) -> None:
        self._map[address] = def_id

    def __contains__(self, address: int) -> bool:
        return address in self._map

    def __len__(self) -> int:
        return len(self._map)


@dataclass
class ExecutionResult:
    """Everything a benchmark needs to know about one execution."""

    status: str
    return_value: Optional[int]
    cycles: float
    instructions: int
    ipc: float
    opcode_counts: Dict[str, int]
    output: bytes
    steps: int
    trap: Optional[BaseException] = None
    ic_calls: Dict[str, int] = field(default_factory=dict)
    pac_sign_count: int = 0
    pac_auth_count: int = 0
    isolated_allocations: int = 0
    #: cache statistics (zero unless the CPU was given a CacheModel)
    cache_hits: int = 0
    cache_misses: int = 0
    #: interpreter throughput: wall-clock seconds of this run
    wall_seconds: float = 0.0
    #: wall-clock seconds spent decoding the module for this run
    #: (0.0 on a decode-cache hit or under the reference interpreter)
    decode_seconds: float = 0.0
    #: which interpreter backend produced this result
    interpreter: str = "decoded"

    @property
    def steps_per_second(self) -> float:
        """Dynamic IR steps retired per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.steps / self.wall_seconds

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def detected(self) -> bool:
        """True when a defense mechanism fired."""
        return self.status in (
            "pac_trap",
            "canary_trap",
            "dfi_trap",
            "section_trap",
        )

    @property
    def pa_dynamic(self) -> int:
        """Dynamically executed ARM-PA instructions."""
        return self.opcode_counts.get("pac.sign", 0) + self.opcode_counts.get(
            "pac.auth", 0
        )


class CPU:
    """Interpreter for one module.  Construct fresh per execution run."""

    def __init__(
        self,
        module: Module,
        seed: int = 2024,
        attack: Optional[object] = None,
        max_steps: int = 20_000_000,
        heap_capacity: int = 8 * 1024 * 1024,
        cache: Optional[CacheModel] = None,
        interpreter: Optional[str] = None,
        profiler: Optional[object] = None,
    ):
        self.module = module
        #: optional :class:`repro.observability.ExecutionProfiler`
        self.profiler = profiler
        self.memory = Memory()
        self.pac = PointerAuthentication(seed)
        self.rng = CanaryRng(seed ^ 0xCA11A57)
        self.heap = SectionedHeap(self.memory, heap_capacity)
        self.timing = TimingModel()
        self.cache = cache
        self.attack = attack
        self.max_steps = max_steps
        self.steps = 0
        self.call_depth = 0
        self.max_call_depth = 256
        self.stack_top = STACK_BASE + 64
        self.input_queue: Deque[bytes] = deque()
        self.output: List[bytes] = []
        self.ic_calls: Dict[str, int] = {}
        self.global_addresses: Dict[str, int] = {}
        #: live call frames, innermost last: (function, value->int map)
        self.frames: List[Tuple[Function, Dict[Value, int]]] = []
        #: per-frame alloca name -> address index, parallel to ``frames``
        self.frame_slots: List[Dict[str, int]] = []
        #: per-function frame layout plans (relative offsets), built
        #: lazily and shared across CPU instances via the module memo,
        #: whose shape guard runs once per CPU
        memo = module.derived()
        self.dfi_active, self._frame_plans = _module_meta(module, memo)
        self.dfi_shadow = DfiShadow()
        #: ``call_fault_hook.on_call(cpu, function, args)`` -- the chaos
        #: injector's indirect-call corruption point; may return a
        #: different defined :class:`Function` to bend control flow to.
        self.call_fault_hook = None
        if interpreter is None:
            interpreter = os.environ.get("REPRO_INTERPRETER", "decoded")
        if interpreter not in INTERPRETERS:
            raise UnknownInterpreterError(
                f"unknown interpreter {interpreter!r}; expected one of {INTERPRETERS}"
            )
        self.interpreter = interpreter
        self.decode_seconds = 0.0
        self._decoded = None
        self._block = None
        if interpreter == "decoded":
            self._decoded, self.decode_seconds = decode_module(module, memo)
        elif interpreter in ("block", "trace"):
            # Both compiled tiers come from one compiler: the block tier
            # is its no-region policy.  They compile from the decoded
            # program and fall back to it whenever batched accounting
            # cannot be trusted (non-default costs or issue width,
            # step-limit crossings).  The block tier and a trace run
            # with a profiler compile every function up front; any other
            # trace run tiers functions up as they get hot.
            from .tracec import trace_compile, trace_program

            self._decoded, self.decode_seconds = decode_module(module, memo)
            if interpreter == "trace" and profiler is None:
                self._block = trace_program(module, memo=memo)
            else:
                self._block, compile_seconds = trace_compile(
                    module, regions=interpreter == "trace", memo=memo
                )
                self.decode_seconds += compile_seconds
        #: composition id -> times a chunk of that composition was
        #: charged, by the decoded loop or by compiled code; folded into
        #: the opcode histogram and the instructions by run() (see
        #: _fold_chunk_hits).  A list, the fastest store to index; the
        #: block drivers grow it for ids interned after construction.
        self._hits: List[int] = [0] * len(CHUNK_OPS)
        #: steps retired by the calls the current call made (tier-up)
        self._callee_steps = 0
        self._refresh_batched()
        self._layout_globals()

    def _refresh_batched(self) -> None:
        """Cache whether batched accounting matches this CPU's timing model.

        Decoded chunks and the block/trace programs charge from tables
        built for ``DEFAULT_COSTS`` and the default issue width.  The
        comparison includes a dict equality over the full cost table,
        far too expensive for every ``_call``; tests that customise
        ``timing.costs``/``issue_width`` mutate them between
        construction and :meth:`run`, so recomputing at both points
        keeps the documented fallback to the reference tier.
        """
        self._chunked = (
            self.timing.issue_width == CHUNK_ISSUE_WIDTH
            and self.timing.costs == DEFAULT_COSTS
        )
        block = self._block
        self._block_fast = block is not None and self._chunked
        #: the program whose functions still tier up, while it has any
        self._tier_up = block if self._block_fast and block.pending else None

    @property
    def tier_program(self):
        """The block or trace tier's :class:`TraceProgram` (else None)."""
        return self._block

    # -- setup -----------------------------------------------------------------

    def _layout_globals(self) -> None:
        self.global_addresses = compute_global_layout(self.module)
        for name, gvar in self.module.globals.items():
            self._write_initializer(self.global_addresses[name], gvar)

    def _write_initializer(self, address: int, gvar: GlobalVariable) -> None:
        init = gvar.initializer
        if init is None:
            return
        if isinstance(init, bytes):
            self.memory.write_bytes(address, init)
        elif isinstance(init, int):
            self.memory.write_int(address, init, max(1, gvar.value_type.size))
        elif isinstance(init, (list, tuple)):
            elem_size = (
                gvar.value_type.element.size
                if isinstance(gvar.value_type, ArrayType)
                else 8
            )
            for i, value in enumerate(init):
                self.memory.write_int(address + i * elem_size, value, elem_size)
        else:
            raise TypeError(f"unsupported initializer for @{gvar.name}: {init!r}")

    # -- hooks used by the libc models ---------------------------------------------

    def take_input(self, channel: str, args: Sequence[int]) -> bytes:
        """External input for a read-style IC: attack payload, queued
        benign input, or empty."""
        payload = self.attack_payload(channel, args)
        if payload is not None:
            return payload
        if self.input_queue:
            return self.input_queue.popleft()
        return b""

    def attack_payload(self, channel: str, args: Sequence[int]) -> Optional[bytes]:
        """Ask the attack controller (if any) for a payload at this IC."""
        if self.attack is None:
            return None
        return self.attack.payload_for(self, channel, args)  # type: ignore[attr-defined]

    def stack_slot_address(self, name: str) -> Optional[int]:
        """Address of the named alloca in the innermost frame holding it.

        This is the adaptive attacker's eye: the threat model (§2.5)
        grants the attacker full knowledge of the binary's layout, so
        exploit scripts compute victim offsets from live addresses
        rather than hard-coding them.  Each frame indexes its allocas by
        name at layout time, so the lookup is a dict probe per live
        frame instead of a scan of every frame value.
        """
        for slots in reversed(self.frame_slots):
            address = slots.get(name)
            if address is not None:
                return address
        return None

    def external_write(self, address: int, data: bytes) -> None:
        """A library-side memory write (the IC write itself)."""
        self.memory.write_bytes(address, data)
        if self.dfi_active and data:
            self.dfi_shadow.set_range(address, len(data), DFI_EXTERNAL_WRITER)

    # -- public API -------------------------------------------------------------

    def run(
        self,
        function_name: str = "main",
        args: Sequence[int] = (),
        inputs: Optional[Sequence[bytes]] = None,
    ) -> ExecutionResult:
        """Execute ``function_name`` to completion or trap."""
        self._refresh_batched()
        if inputs:
            self.input_queue.extend(inputs)
        status = "ok"
        return_value: Optional[int] = None
        trap: Optional[BaseException] = None
        start = time.perf_counter()
        try:
            return_value = self._call(self.module.get_function(function_name), list(args))
        except PacAuthError as exc:
            status, trap = "pac_trap", exc
        except CanaryTrap as exc:
            status, trap = "canary_trap", exc
        except DfiTrap as exc:
            status, trap = "dfi_trap", exc
        except SectionTrap as exc:
            status, trap = "section_trap", exc
        except (MemoryFault, NullPointerTrap) as exc:
            status, trap = "fault", exc
        except OutOfMemoryError as exc:
            status, trap = "oom", exc
        except StepLimitExceeded as exc:
            status, trap = "limit", exc
        except ProgramExit as exc:
            return_value = exc.code
        finally:
            self._fold_chunk_hits()
        wall = time.perf_counter() - start
        if trap is not None:
            # Trap-only instrumentation: nothing here runs on the hot
            # ok path.  Imported lazily so the hardware layer has no
            # module-level dependency on observability.
            from ..observability import current_tracer

            current_tracer().instant(
                f"trap.{status}", "exec", detail=str(trap)
            )
            if self.profiler is not None:
                self.profiler.trap(status, str(trap))
        return ExecutionResult(
            status=status,
            return_value=return_value,
            cycles=self.timing.cycles,
            instructions=self.timing.instructions,
            ipc=self.timing.ipc,
            # Zero entries mean "never executed" and must read as absent:
            # a trap's tail repair can bring an opcode back to 0 (the
            # fold skips zero hits, so it adds none).
            opcode_counts={
                name: count
                for name, count in self.timing.opcode_counts.items()
                if count
            },
            output=b"".join(self.output),
            steps=self.steps,
            trap=trap,
            ic_calls=dict(self.ic_calls),
            pac_sign_count=self.pac.sign_count,
            pac_auth_count=self.pac.auth_count,
            isolated_allocations=self.heap.isolated_calls,
            cache_hits=self.cache.hits if self.cache else 0,
            cache_misses=self.cache.misses if self.cache else 0,
            wall_seconds=wall,
            decode_seconds=self.decode_seconds,
            interpreter=self.interpreter,
        )

    def _fold_chunk_hits(self) -> None:
        """Add the chunks charged so far, on any tier, to the opcode
        histogram and the retired instructions.

        Every batched tier -- the decoded loop and the block and trace
        tiers' generated code -- counts one hit per chunk it charges,
        keyed by the chunk's composition id (:data:`CHUNK_OPS`), and
        nothing reads the histogram or the instruction count mid-run,
        so both are built here once per run.
        """
        hits = self._hits
        counts = self.timing.opcode_counts
        retired = 0
        for cid in compress(range(len(hits)), hits):  # ids hit at least once
            n = hits[cid]
            opcodes = CHUNK_OPS[cid]
            retired += n * len(opcodes)
            for name in opcodes:
                counts[name] += n
        self.timing.instructions += retired
        hits[:] = repeat(0, len(hits))

    def _hit_store(self) -> List[int]:
        """The hit store, grown to cover every composition id interned
        so far: compiled code may use ids allocated after this CPU was
        built (by a tier-up compile, another CPU's, or an explicit
        ``trace_compile``).  The block drivers call it on entry, the
        only way into compiled code; decoded chunks' ids predate the
        store."""
        hits = self._hits
        missing = len(CHUNK_OPS) - len(hits)
        if missing > 0:
            hits.extend(repeat(0, missing))
        return hits

    # -- execution engine -----------------------------------------------------------

    def _call(self, function: Function, args: List[int]) -> Optional[int]:
        if function.is_declaration:
            return self._call_external(function, args)
        if self.call_fault_hook is not None:
            # Defined-function calls only: externals dispatch straight to
            # _call_external in the block/trace tiers, so hooking after
            # the declaration check keeps the event stream identical
            # across all interpreter tiers.
            function = self.call_fault_hook.on_call(self, function, args)
        self.call_depth += 1
        if self.call_depth > self.max_call_depth:
            self.call_depth -= 1
            raise MemoryFault(self.stack_top, 0, "stack overflow")
        saved_top = self.stack_top
        profiler = self.profiler
        if profiler is not None:
            profiler.enter(function.name, self.steps, self.timing.cycles)
        tier = self._tier_up
        if tier is not None:
            # Tier-up counts a decoded call's own steps: its inclusive
            # steps minus those its callees report in _callee_steps.
            outer_callees = self._callee_steps
            self._callee_steps = 0
            start = self.steps
        try:
            frame: Dict[Value, int] = {
                argument: value & _MASK64
                for argument, value in zip(function.args, args)
            }
            self.frame_slots.append(self._layout_frame(function, frame))
            self.frames.append((function, frame))
            try:
                # Dispatch inline rather than via a helper: recursion
                # in the simulated program recurses through here, and
                # the simulated 256-frame stack limit must fire before
                # Python's own recursion limit does.
                if self._block_fast:
                    bentry = self._block.functions.get(function)
                    if bentry is not None:
                        if profiler is not None:
                            return self._interpret_block_profiled(
                                bentry, frame
                            )
                        return self._interpret_block(bentry, frame)
                decoded = self._decoded
                if decoded is not None and self._chunked:
                    entry = decoded.functions.get(function)
                    if entry is not None:
                        result = self._interpret_decoded(entry, frame)
                        # Compiled code takes over at the next call.
                        if tier is not None and tier.tick(
                            function, self.steps - start - self._callee_steps
                        ):
                            self.decode_seconds += tier.compile(function)
                        return result
                from .oracle import interpret_reference

                return interpret_reference(self, function.entry_block, frame)
            finally:
                self.frames.pop()
                self.frame_slots.pop()
        finally:
            self.stack_top = saved_top
            self.call_depth -= 1
            if tier is not None:
                self._callee_steps = outer_callees + self.steps - start
            if profiler is not None:
                profiler.exit(self.steps, self.timing.cycles)

    def _layout_frame(self, function: Function, frame: Dict[Value, int]) -> Dict[str, int]:
        """Assign frame addresses to allocas in *program order*.

        Program order is address order: Pythia's stack re-layout pass
        reorders allocas precisely to control which variables sit next
        to each other in memory.  Returns the name -> address index used
        by :meth:`stack_slot_address`.
        """
        plan = self._frame_plans.get(function)
        if plan is None:
            offset = 0
            rel: List[Tuple[Alloca, int]] = []
            named: Dict[str, int] = {}
            for alloca in function.allocas():
                alignment = max(1, alloca.allocated_type.alignment)
                offset = (offset + alignment - 1) // alignment * alignment
                rel.append((alloca, offset))
                if alloca.name not in named:
                    named[alloca.name] = offset
                offset += max(1, alloca.allocated_type.size)
            plan = (tuple(rel), tuple(named.items()), (offset + 15) // 16 * 16)
            self._frame_plans[function] = plan
        base = (self.stack_top + 15) // 16 * 16
        for alloca, offset in plan[0]:
            frame[alloca] = base + offset
        slots = {name: base + offset for name, offset in plan[1]}
        self.stack_top = base + plan[2]
        return slots

    def _call_external(self, function: Function, args: List[int]) -> Optional[int]:
        lib = LIBRARY.get(function.name)
        if lib is None:
            raise UnknownExternalError(function.name)
        if lib.ic_kind is not None:
            self.ic_calls[function.name] = self.ic_calls.get(function.name, 0) + 1
        result = lib.handler(self, args)
        return result if result is None else result & _MASK64

    # -- block-compiled backend --------------------------------------------------

    def _interpret_block(self, entry, frame: Dict[Value, int]) -> Optional[int]:
        # Direct-threaded driver: each generated block function applies
        # its own batched accounting *and* the phi routing of the edge
        # it takes (the predecessor knows which edge that is), then
        # returns the successor's pre-built (BlockCode, None) pair; this
        # loop only guards the step limit and dispatches.  A block whose
        # execution could cross the limit is delegated to the decoded
        # loop -- which routes no phis on entry: any pending phi edge
        # has already been applied inline -- and that loop stops at
        # exactly the right op.  The guard covers the block's own
        # steps; after a call, the generated code re-checks the rest.
        # Generated code counts its chunks in the hit store ``hits``.
        timing = self.timing
        hits = self._hit_store()
        max_steps = self.max_steps
        pair = entry.self_pair
        while True:
            code = pair[0]
            if self.steps + code.nsteps > max_steps:
                return self._interpret_decoded(code.dblock, frame)
            pair = code.fn(self, frame, timing, hits)
            if pair[0] is BLOCK_RET:
                return pair[1]

    def _interpret_block_profiled(self, entry, frame: Dict[Value, int]) -> Optional[int]:
        # The profiled twin of _interpret_block: identical dispatch, but
        # the architectural counters are read around each generated
        # block function and the delta attributed to that block -- still
        # one batched attribution per block execution, never per op.  A
        # block containing a call attributes the callee's retirement
        # inclusively (the callee's own blocks are attributed too).
        timing = self.timing
        hits = self._hit_store()
        max_steps = self.max_steps
        block_hook = self.profiler.block
        pair = entry.self_pair
        while True:
            code = pair[0]
            if self.steps + code.nsteps > max_steps:
                return self._interpret_decoded(code.dblock, frame)
            steps0 = self.steps
            cycles0 = timing.cycles
            pair = code.fn(self, frame, timing, hits)
            block_hook(code.label, self.steps - steps0, timing.cycles - cycles0)
            if pair[0] is BLOCK_RET:
                return pair[1]

    # -- decoded backend ---------------------------------------------------------

    def _interpret_decoded(
        self, block: DecodedBlock, frame: Dict[Value, int]
    ) -> Optional[int]:
        # Batched accounting, one charge per chunk (see the decoder's
        # module docstring): the step limit is checked, and steps move,
        # once per chunk before its handlers run, and the issue model
        # once after them; the opcode histogram and the instructions are
        # one hit counter per chunk, folded when run() returns.  Steps,
        # the phis routed and the issue model's state live in locals:
        # ``state`` is ``width * cycles + residue`` (cycles not yet added
        # to ``timing``), so a chunk adds ``charges[state % width]`` and
        # a cheap op, such as a phi, adds 1.  Nothing outside the
        # interpreter loops reads those counters mid-run -- library
        # models and the cache only add to cycles and opcode_counts, and
        # additions commute -- so the locals need syncing only around a
        # chunk's closing impure op (a call or fallback, which may
        # re-enter an interpreter loop or read the counters) and on the
        # way out.  Phis are routed on the edge taken; every caller
        # enters at a block whose phis are routed already.
        timing = self.timing
        hits = self._hits
        max_steps = self.max_steps
        width = CHUNK_ISSUE_WIDTH
        steps = self.steps
        state = timing._cheap_run
        phis = 0
        synced = False
        try:
            while True:
                for n, pure, impure, charges, cid in block.chunks:
                    steps += n
                    if steps > max_steps:
                        # The reference tier stops at the exact op.
                        steps -= n
                        self.steps = steps
                        timing.cycles += state // width
                        timing._cheap_run = state % width
                        synced = True
                        return self._resume_on_reference(
                            block, frame, _chunk_start(block, pure, impure)
                        )
                    try:
                        for op in pure:
                            op(self, frame)
                    except BaseException:
                        # A pure op trapped: the ops after it never ran.
                        r0 = state % width
                        hits[cid] += 1
                        self.steps = steps
                        timing.cycles += (state + charges[r0]) // width
                        synced = True
                        handlers = [entry[3] for entry in block.ops]
                        _undo_chunk_tail(
                            self,
                            timing,
                            CHUNK_OPS[cid],
                            handlers.index(op) - _chunk_start(block, pure, impure),
                            r0,
                        )
                        raise
                    state += charges[state % width]
                    hits[cid] += 1
                    if impure:
                        # While synced is set the callee owns the
                        # counters, and the finally below must not
                        # clobber them.
                        self.steps = steps
                        timing.cycles += state // width
                        timing._cheap_run = state % width
                        synced = True
                        impure(self, frame)
                        synced = False
                        steps = self.steps
                        state = timing._cheap_run
                branch, block, route = block.exit
                if branch:
                    block, route = branch(frame)
                elif not block:
                    # A return: ``route`` computes the value returned.
                    return route(frame)
                if route:
                    n, phi, is_const, payload = route
                    if n == 1:
                        frame[phi] = payload if is_const else frame[payload]
                    else:
                        frame.update(zip(phi, payload(frame)))
                    # Phis are zero-cost under DEFAULT_COSTS: n phis are
                    # n cheap issue slots.
                    phis += n
                    state += n
        finally:
            if phis:
                timing.opcode_counts["phi"] += phis
                timing.instructions += phis
            if not synced:
                self.steps = steps
                timing.cycles += state // width
                timing._cheap_run = state % width

    def _resume_on_reference(
        self, block: DecodedBlock, frame: Dict[Value, int], start: int
    ) -> Optional[int]:
        """Run the rest of a call on the reference tier from op ``start``
        of ``block``, whose phis are already routed; generated code
        calls it here too."""
        from .oracle import interpret_reference

        return interpret_reference(self, block.source, frame, start)

    def _cache_access(self, address: int, size: int) -> None:
        if self.cache is None:
            return
        misses = self.cache.access(address, size)
        if misses:
            self.timing.charge_cycles(misses * self.cache.miss_penalty, "llc.miss")
