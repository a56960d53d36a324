"""Byte-addressable memory for the simulated machine.

The 40-bit virtual address space is split into fixed segments:

=============  =====================  ==========================================
segment        base address           contents
=============  =====================  ==========================================
``globals``    ``0x01_0000_0000``     module globals and string literals
``stack``      ``0x02_0000_0000``     call frames (growing towards higher
                                      addresses, so buffer overflows run
                                      "down" the frame into later variables)
``heap``       ``0x03_0000_0000``     the *shared* heap section
``isolated``   ``0x04_0000_0000``     Pythia's *isolated* heap section
=============  =====================  ==========================================

Memory is deliberately *flat within a segment*: writing past the end of
a buffer silently corrupts whatever is adjacent, which is precisely the
vulnerability class the paper attacks and defends.  Faults are only
raised for addresses outside any mapped segment.

:class:`Memory` has one integer access path, :meth:`Memory.read_int`
and :meth:`Memory.write_int`.  The interpreter tiers do a sized load or
store inline against :attr:`Memory.windows` and take that path only on
a miss (see the class docstring).
"""

from __future__ import annotations

from struct import Struct, error as _StructError
from typing import List, Optional, Tuple

from .errors import ReproError

# Pre-compiled codecs for the power-of-two access sizes the interpreter
# issues: they pack/unpack against the segment bytearray in place, so
# the hot load/store path allocates no intermediate ``bytes`` object.
# The decoded handlers and generated code use them too, inline.
_U8 = Struct("<B")
_U16 = Struct("<H")
_U32 = Struct("<I")
_U64 = Struct("<Q")
_unpack_u16 = _U16.unpack_from
_unpack_u32 = _U32.unpack_from
_unpack_u64 = _U64.unpack_from
_pack_u16 = _U16.pack_into
_pack_u32 = _U32.pack_into
_pack_u64 = _U64.pack_into
#: access width -> (unpack_from, pack_into) of its little-endian codec
SIZED_CODECS = {
    1: (_U8.unpack_from, _U8.pack_into),
    2: (_unpack_u16, _pack_u16),
    4: (_unpack_u32, _pack_u32),
    8: (_unpack_u64, _pack_u64),
}
#: What an inline sized access raises when it must take the generic
#: path: an address past the last window (IndexError), or an offset past
#: the materialised data of its window -- always the case in an
#: unmapped window, whose data is empty (IndexError for a byte,
#: struct.error for a word).
FAST_MISS = (IndexError, _StructError)
#: The low 32 address bits: the offset into a segment's window.
WINDOW_MASK = 0xFFFFFFFF

GLOBAL_BASE = 0x01_0000_0000
STACK_BASE = 0x02_0000_0000
HEAP_SHARED_BASE = 0x03_0000_0000
HEAP_ISOLATED_BASE = 0x04_0000_0000

#: Default segment capacity (16 MiB each is ample for generated workloads).
SEGMENT_SIZE = 16 * 1024 * 1024


class MemoryFault(ReproError):
    """Access to an unmapped address -- the simulated SIGSEGV/bus error."""

    def __init__(self, address: int, size: int = 1, kind: str = "access"):
        super().__init__(f"memory fault: {kind} of {size} byte(s) at {address:#x}")
        self.address = address
        self.size = size
        self.kind = kind


class Segment:
    """A contiguous mapped region backed by a lazily grown bytearray."""

    def __init__(self, name: str, base: int, capacity: int = SEGMENT_SIZE):
        self.name = name
        self.base = base
        self.capacity = capacity
        self.data = bytearray()

    def contains(self, address: int, size: int = 1) -> bool:
        return self.base <= address and address + size <= self.base + self.capacity

    def _ensure(self, offset: int) -> None:
        """Materialise the data up to ``offset``.  Within the capacity
        it at least doubles (from 4 KiB), so a fresh machine's stack and
        heap grow in a few steps; the extra bytes are zeros, as memory
        that is not materialised reads.  It grows in place: the
        bytearray is never rebound, so :attr:`Memory.windows` stays
        valid."""
        size = len(self.data)
        if offset > size:
            if offset <= self.capacity:
                offset = min(max(offset, 2 * size, 4096), self.capacity)
            self.data.extend(bytes(offset - size))


class Memory:
    """The machine's memory: four segments and one generic access path.

    Sized loads and stores are inlined into the decoded handlers and
    the generated code of the block and trace tiers: each indexes
    :attr:`windows` by ``address >> 32`` and packs or unpacks at offset
    ``address & WINDOW_MASK`` inside a ``try`` whose ``except FAST_MISS``
    clause calls :meth:`read_int`/:meth:`write_int`.  Their addresses
    are frame values, always in ``[0, 2**64)``, so the window index is
    never negative.  A hit (a mapped window and the span already
    materialised) implies the access is in bounds; any miss -- an
    unmapped window, a segment boundary, the lazily grown tail --
    raises one of :data:`FAST_MISS` and takes the generic path, which
    faults or grows there exactly as it would have on its own.
    """

    def __init__(self, segment_size: int = SEGMENT_SIZE):
        self.segments: List[Segment] = [
            Segment("globals", GLOBAL_BASE, segment_size),
            Segment("stack", STACK_BASE, segment_size),
            Segment("heap", HEAP_SHARED_BASE, segment_size),
            Segment("isolated", HEAP_ISOLATED_BASE, segment_size),
        ]
        # segment bases sit on 4 GiB boundaries, so the high 32 address
        # bits index the segment (None below the first) without scanning
        window: List[Optional[Segment]] = [None] * (
            max(segment.base >> 32 for segment in self.segments) + 1
        )
        for segment in self.segments:
            window[segment.base >> 32] = segment
        self._window = tuple(window)
        #: ``address >> 32`` -> that window's segment data; an unmapped
        #: window holds an empty bytearray, so every access to it misses
        self.windows: Tuple[bytearray, ...] = tuple(
            bytearray() if segment is None else segment.data for segment in window
        )
        #: what inline stores index: :attr:`windows`, or ``()`` -- every
        #: store misses -- while a fault hook is armed
        self.write_windows: Tuple[bytearray, ...] = self.windows
        self._fault_hook = None

    @property
    def fault_hook(self):
        """Optional fault injector (see :mod:`repro.robustness.faults`).

        When set, every write's payload passes through
        ``fault_hook.on_memory_write(address, payload)`` so chaos runs
        can flip bits in stored data deterministically.  Arming it
        empties :attr:`write_windows`, so inline stores take
        :meth:`write_int`, which calls the hook.
        """
        return self._fault_hook

    @fault_hook.setter
    def fault_hook(self, hook) -> None:
        self._fault_hook = hook
        self.write_windows = self.windows if hook is None else ()

    def _segment_at(self, address: int) -> Optional[Segment]:
        """The segment whose 4 GiB window holds ``address``, if any."""
        index = address >> 32
        window = self._window
        return window[index] if 0 <= index < len(window) else None

    def segment_for(self, address: int, size: int = 1, kind: str = "access") -> Segment:
        segment = self._segment_at(address)
        if segment is not None and segment.contains(address, size):
            return segment
        for segment in self.segments:
            if segment.contains(address, size):
                return segment
        raise MemoryFault(address, size, kind)

    def segment_named(self, name: str) -> Segment:
        for segment in self.segments:
            if segment.name == name:
                return segment
        raise KeyError(f"no segment named {name!r}")

    def _span(self, address: int, size: int, kind: str) -> Tuple[Segment, int, int]:
        """``(segment, offset, end)`` of a mapped span, materialised.

        One window index and one bounds check; anything else (no
        window, a span past its segment's capacity) goes through
        :meth:`segment_for`, which faults.  Segment bases sit exactly
        on 4 GiB boundaries, so a window hit guarantees ``offset >= 0``.
        """
        index = address >> 32
        window = self._window
        segment = window[index] if 0 <= index < len(window) else None
        if segment is None or (address & WINDOW_MASK) + size > segment.capacity:
            segment = self.segment_for(address, size, kind)
        offset = address - segment.base
        end = offset + size
        if end > len(segment.data):
            segment._ensure(end)
        return segment, offset, end

    # -- raw access -----------------------------------------------------------

    def read_bytes(self, address: int, size: int) -> bytes:
        if size == 0:
            return b""
        segment, offset, end = self._span(address, size, "read")
        return bytes(segment.data[offset:end])

    def write_bytes(self, address: int, payload: bytes) -> None:
        if not payload:
            return
        if self._fault_hook is not None:
            payload = self._fault_hook.on_memory_write(address, payload)
        segment, offset, end = self._span(address, len(payload), "write")
        segment.data[offset:end] = payload

    # -- typed access -----------------------------------------------------------

    def read_int(self, address: int, size: int) -> int:
        """Read a little-endian unsigned integer of ``size`` bytes: the
        generic load path (see the class docstring)."""
        segment, offset, end = self._span(address, size, "read")
        data = segment.data
        if size == 8:
            return _unpack_u64(data, offset)[0]
        if size == 4:
            return _unpack_u32(data, offset)[0]
        if size == 1:
            return data[offset]
        if size == 2:
            return _unpack_u16(data, offset)[0]
        return int.from_bytes(data[offset:end], "little")

    def write_int(self, address: int, value: int, size: int) -> None:
        """Write a little-endian unsigned integer of ``size`` bytes: the
        generic store path (see the class docstring)."""
        segment, offset, end = self._span(address, size, "write")
        data = segment.data
        if self._fault_hook is None:
            # Pack straight into the segment bytearray.  The fault-hook
            # path below keeps materialising a ``bytes`` payload so
            # chaos runs see the exact same write sites.
            if size == 8:
                _pack_u64(data, offset, value & 0xFFFFFFFFFFFFFFFF)
                return
            if size == 4:
                _pack_u32(data, offset, value & 0xFFFFFFFF)
                return
            if size == 1:
                data[offset] = value & 0xFF
                return
            if size == 2:
                _pack_u16(data, offset, value & 0xFFFF)
                return
        mask = (1 << (8 * size)) - 1
        payload = (value & mask).to_bytes(size, "little")
        if self._fault_hook is not None:
            payload = self._fault_hook.on_memory_write(address, payload)
        data[offset:end] = payload

    # -- C string helpers ---------------------------------------------------------

    def read_cstring(self, address: int, limit: int = 1 << 16) -> bytes:
        """Read a NUL-terminated string (without the terminator).

        Scans the segment bytearray with ``find`` instead of reading one
        byte at a time.  Bytes beyond the materialised data are zeros,
        so the string implicitly terminates at the data's edge -- unless
        that edge is the segment boundary, which faults exactly like the
        byte-at-a-time walk did.
        """
        segment = self.segment_for(address, 1, "read")
        data = segment.data
        start = address - segment.base
        stop = min(len(data), start + limit, segment.capacity)
        nul = data.find(0, start, stop)
        if nul >= 0:
            return bytes(data[start:nul])
        scanned = stop - start
        if scanned >= limit:
            return bytes(data[start : start + limit])
        if stop >= segment.capacity:
            raise MemoryFault(segment.base + segment.capacity, 1, "read")
        # Ran off the end of materialised data: implicit NUL there.
        return bytes(data[start:stop])

    def write_cstring(self, address: int, text: bytes) -> None:
        """Write ``text`` followed by a NUL terminator."""
        self.write_bytes(address, text + b"\x00")
