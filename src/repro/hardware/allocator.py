"""Heap allocation: a glibc-flavoured free-list allocator, sectioned.

Pythia's heap defense (Algorithm 4) requires two independently managed
heap regions: the *shared* section, where ordinary allocations live,
and the *isolated* section, which only receives the vulnerable
dynamically allocated variables.  Both use the same bin-based allocator
(:class:`HeapAllocator`); :class:`SectionedHeap` routes requests.

The allocator mimics glibc malloc at the level the paper cares about:

- chunks carry a 16-byte header (size word + padding, keeping payloads
  16-byte aligned like glibc);
- freed chunks go to size-class bins and are reused first-fit;
- adjacent free chunks are coalesced via a boundary map;
- allocation from the isolated section costs extra cycles (the paper
  measures ~23 ns per sectioning library call).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from typing import Dict, List, Optional

from .errors import ReproError
from .memory import HEAP_ISOLATED_BASE, HEAP_SHARED_BASE, Memory, MemoryFault

_ALIGN = 16
_HEADER = 16

#: Size-class boundaries for the small bins (bytes of user payload).
_BIN_CLASSES = (16, 32, 48, 64, 96, 128, 192, 256, 512, 1024, 4096)


class OutOfMemoryError(ReproError):
    """The section's arena is exhausted."""


def _align_up(n: int, alignment: int = _ALIGN) -> int:
    return (n + alignment - 1) // alignment * alignment


#: size -> bin: the first class that fits, or the large bin past them
_bin_index = partial(bisect_left, _BIN_CLASSES)


class HeapAllocator:
    """A single heap arena with size-class bins and coalescing."""

    def __init__(self, memory: Memory, base: int, capacity: int, name: str = "heap"):
        self.memory = memory
        self.base = base
        self.capacity = capacity
        self.name = name
        self.top = base  # bump pointer for fresh chunks
        self.bins: List[List[int]] = [[] for _ in range(len(_BIN_CLASSES) + 1)]
        #: chunk start -> payload size for live chunks
        self.live: Dict[int, int] = {}
        #: chunk start -> payload size for free chunks (for coalescing)
        self.free_chunks: Dict[int, int] = {}
        #: the boundary map: chunk end -> start for free chunks
        self.free_ends: Dict[int, int] = {}
        #: optional fault injector (see :mod:`repro.robustness.faults`);
        #: when set, ``fault_hook.on_malloc(self, address, payload)``
        #: runs after each allocation and may tamper chunk metadata
        self.fault_hook = None
        # statistics
        self.malloc_calls = 0
        self.free_calls = 0
        self.bytes_in_use = 0
        self.peak_bytes = 0

    # -- public API ----------------------------------------------------------

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the payload address."""
        if size <= 0:
            size = 1
        self.malloc_calls += 1
        payload = _align_up(size)
        address = self._take_from_bin(payload)
        if address is None:
            address = self._bump(payload)
        self.live[address] = payload
        self.memory.write_int(address - _HEADER, payload, 8)  # the header
        # Zero-fill every chunk: program behaviour must not depend on
        # stale bytes of reused chunks (the attack classes modelled here
        # are overflows, not uninitialised reads), and identical
        # programs must behave identically whichever *section* serves
        # the allocation.
        self.memory.write_bytes(address, b"\x00" * payload)
        self.bytes_in_use += payload
        self.peak_bytes = max(self.peak_bytes, self.bytes_in_use)
        if self.fault_hook is not None:
            self.fault_hook.on_malloc(self, address, payload)
        return address

    def free(self, address: int) -> None:
        """Release a payload address previously returned by :meth:`malloc`."""
        self.free_calls += 1
        payload = self.live.pop(address, None)
        if payload is None:
            raise MemoryFault(address, 1, "invalid free")
        self.bytes_in_use -= payload
        address, payload = self._coalesce(address, payload)
        self.free_chunks[address] = payload
        self.free_ends[address + payload + _HEADER] = address
        self.bins[_bin_index(payload)].append(address)

    def owns(self, address: int) -> bool:
        """True when ``address`` lies inside this arena."""
        return self.base <= address < self.base + self.capacity

    def chunk_size(self, address: int) -> Optional[int]:
        """Payload size of the live chunk at ``address``, if any."""
        return self.live.get(address)

    # -- internals ------------------------------------------------------------

    def _take_from_bin(self, payload: int) -> Optional[int]:
        index = _bin_index(payload)
        for i in range(index, len(self.bins)):
            bin_ = self.bins[i]
            for slot, address in enumerate(bin_):
                chunk = self.free_chunks.get(address)
                if chunk is not None and chunk >= payload:
                    del bin_[slot]
                    del self.free_chunks[address]
                    self.free_ends.pop(address + chunk + _HEADER, None)
                    self._maybe_split(address, chunk, payload)
                    return address
        return None

    def _maybe_split(self, address: int, chunk: int, payload: int) -> None:
        remainder = chunk - payload
        if remainder >= _ALIGN + _HEADER:
            tail = address + payload + _HEADER
            tail_payload = remainder - _HEADER
            self.free_chunks[tail] = tail_payload
            self.free_ends[tail + tail_payload + _HEADER] = tail
            self.bins[_bin_index(tail_payload)].append(tail)

    def _bump(self, payload: int) -> int:
        address = self.top + _HEADER
        new_top = address + payload
        if new_top > self.base + self.capacity:
            raise OutOfMemoryError(
                f"{self.name} section exhausted ({self.capacity} bytes)"
            )
        self.top = new_top
        return address

    def _coalesce(self, address: int, payload: int) -> "tuple[int, int]":
        # A hook may lie about sizes (``alloc.header``), so chunks overlap:
        # a hooked heap scans for the first predecessor, not the map.
        free_chunks, hooked = self.free_chunks, self.fault_hook is not None
        # Merge with an immediately following free chunk.
        next_start = address + payload + _HEADER
        next_payload = free_chunks.pop(next_start, None)
        if next_payload is not None:
            self._unbin(next_start, next_payload, hooked)
            payload += _HEADER + next_payload
        # Merge with an immediately preceding free chunk.
        if hooked:
            ends = (s for s, p in free_chunks.items() if s + p + _HEADER == address)
            prev_start = next(ends, None)
        else:
            prev_start = self.free_ends.get(address)
        if prev_start is not None:
            prev_payload = free_chunks.pop(prev_start)
            self._unbin(prev_start, prev_payload, hooked)
            address = prev_start
            payload += _HEADER + prev_payload
        return address, payload

    def _unbin(self, address: int, payload: int, hooked: bool) -> None:
        """Drop a chunk taken off ``free_chunks`` from the other records."""
        self.free_ends.pop(address + payload + _HEADER, None)
        if not hooked:
            self.bins[_bin_index(payload)].remove(address)
            return
        for bin_ in self.bins:
            if address in bin_:
                bin_.remove(address)
                return


class SectionedHeap:
    """Pythia's heap sectioning: a shared and an isolated arena.

    ``malloc(size, isolated=True)`` models the custom allocator the
    paper links in at compile time; every isolated call is counted so
    the timing model can charge the sectioning overhead.
    """

    def __init__(self, memory: Memory, capacity: int = 8 * 1024 * 1024):
        self.shared = HeapAllocator(memory, HEAP_SHARED_BASE, capacity, "shared")
        self.isolated = HeapAllocator(memory, HEAP_ISOLATED_BASE, capacity, "isolated")
        self.isolated_calls = 0
        #: optional fault injector; when set,
        #: ``fault_hook.on_heap_route(self, size, isolated)`` runs for
        #: every isolated request and may return ``False`` to misroute
        #: the allocation into the shared arena (cross-heap-section
        #: confusion).  The call counter is bumped *before* routing so
        #: the event stream matches the timing model's charge.
        self.fault_hook = None

    def malloc(self, size: int, isolated: bool = False) -> int:
        if isolated:
            self.isolated_calls += 1
            if self.fault_hook is not None:
                isolated = self.fault_hook.on_heap_route(self, size, True)
            if not isolated:
                return self.shared.malloc(size)
            return self.isolated.malloc(size)
        return self.shared.malloc(size)

    def free(self, address: int) -> None:
        if self.isolated.owns(address):
            self.isolated.free(address)
        else:
            self.shared.free(address)

    def section_of(self, address: int) -> str:
        """Which section an address belongs to (``shared``/``isolated``)."""
        if self.isolated.owns(address):
            return "isolated"
        if self.shared.owns(address):
            return "shared"
        raise MemoryFault(address, 1, "not a heap address")
