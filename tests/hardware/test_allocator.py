"""Tests for the sectioned heap allocator."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.hardware.allocator import (
    HeapAllocator,
    OutOfMemoryError,
    SectionedHeap,
    _BIN_CLASSES,
    _bin_index,
)
from repro.hardware.memory import (
    HEAP_ISOLATED_BASE,
    HEAP_SHARED_BASE,
    Memory,
    MemoryFault,
)


@pytest.fixture
def heap():
    return SectionedHeap(Memory(), capacity=1 << 20)


class TestHeapAllocator:
    def _arena(self, capacity=1 << 20):
        return HeapAllocator(Memory(), HEAP_SHARED_BASE, capacity, "test")

    def test_alignment(self):
        arena = self._arena()
        for size in (1, 7, 16, 33):
            assert arena.malloc(size) % 16 == 0  # glibc-style alignment

    def test_distinct_chunks(self):
        arena = self._arena()
        a = arena.malloc(16)
        b = arena.malloc(16)
        assert abs(a - b) >= 32  # payload + header

    def test_header_records_size(self):
        arena = self._arena()
        a = arena.malloc(20)
        assert arena.memory.read_int(a - 16, 8) == 32  # aligned payload

    def test_free_and_reuse(self):
        arena = self._arena()
        a = arena.malloc(32)
        arena.free(a)
        b = arena.malloc(32)
        assert b == a  # bin reuse

    def test_free_larger_chunk_reused_for_smaller(self):
        arena = self._arena()
        a = arena.malloc(128)
        arena.free(a)
        b = arena.malloc(16)
        assert b == a

    def test_split_remainder_reused(self):
        arena = self._arena()
        a = arena.malloc(128)
        arena.free(a)
        arena.malloc(16)
        c = arena.malloc(16)
        # the split tail of the 128-byte chunk serves the second request
        assert c < a + 128 + 16

    def test_double_free_rejected(self):
        arena = self._arena()
        a = arena.malloc(16)
        arena.free(a)
        with pytest.raises(MemoryFault):
            arena.free(a)

    def test_invalid_free_rejected(self):
        arena = self._arena()
        with pytest.raises(MemoryFault):
            arena.free(HEAP_SHARED_BASE + 1234)

    def test_out_of_memory(self):
        arena = self._arena(capacity=256)
        with pytest.raises(OutOfMemoryError):
            for _ in range(64):
                arena.malloc(64)

    def test_coalescing_forward(self):
        arena = self._arena()
        a = arena.malloc(16)
        b = arena.malloc(16)
        arena.free(b)
        arena.free(a)  # should coalesce with b
        big = arena.malloc(40)  # only fits the coalesced chunk
        assert big == a

    def test_stats(self):
        arena = self._arena()
        a = arena.malloc(16)
        assert arena.bytes_in_use == 16
        assert arena.peak_bytes == 16
        arena.free(a)
        assert arena.bytes_in_use == 0
        assert arena.malloc_calls == 1 and arena.free_calls == 1

    def test_chunk_size_query(self):
        arena = self._arena()
        a = arena.malloc(24)
        assert arena.chunk_size(a) == 32
        assert arena.chunk_size(a + 8) is None

    def test_zero_size_allocates(self):
        arena = self._arena()
        assert arena.malloc(0) > 0


class TestSectionedHeap:
    def test_sections_are_disjoint(self, heap):
        shared = heap.malloc(16)
        isolated = heap.malloc(16, isolated=True)
        assert heap.section_of(shared) == "shared"
        assert heap.section_of(isolated) == "isolated"
        assert abs(shared - isolated) > 1 << 24

    def test_isolation_property(self, heap):
        """Isolated allocations are unreachable from any shared chunk by
        contiguous overflow -- the Algorithm 4 guarantee."""
        shared = heap.malloc(64)
        isolated = heap.malloc(64, isolated=True)
        shared_segment = heap.shared.base + heap.shared.capacity
        assert shared + 64 < shared_segment < isolated

    def test_free_routes_by_address(self, heap):
        shared = heap.malloc(16)
        isolated = heap.malloc(16, isolated=True)
        heap.free(isolated)
        heap.free(shared)
        assert heap.shared.free_calls == 1
        assert heap.isolated.free_calls == 1

    def test_isolated_call_counter(self, heap):
        heap.malloc(8)
        heap.malloc(8, isolated=True)
        heap.malloc(8, isolated=True)
        assert heap.isolated_calls == 2

    def test_section_of_non_heap(self, heap):
        with pytest.raises(MemoryFault):
            heap.section_of(0x1000)


class TestAllocatorProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 256), st.booleans()), min_size=1, max_size=60
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_live_chunks_never_overlap(self, requests):
        """No two live chunks (in the same section) ever overlap."""
        heap = SectionedHeap(Memory(), capacity=1 << 20)
        live = []
        for size, isolated in requests:
            address = heap.malloc(size, isolated=isolated)
            arena = heap.isolated if isolated else heap.shared
            payload = arena.chunk_size(address)
            for other, other_end in live:
                assert address >= other_end or address + payload <= other
            live.append((address, address + payload))

    @given(st.lists(st.integers(1, 128), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_alloc_free_alloc_accounting(self, sizes):
        heap = SectionedHeap(Memory(), capacity=1 << 20)
        addresses = [heap.malloc(size) for size in sizes]
        for address in addresses:
            heap.free(address)
        assert heap.shared.bytes_in_use == 0

    @given(st.lists(st.integers(1, 64), min_size=2, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_data_integrity_across_allocations(self, sizes):
        """Data written to one chunk survives later allocations."""
        heap = SectionedHeap(Memory(), capacity=1 << 20)
        memory = heap.shared.memory
        written = []
        for i, size in enumerate(sizes):
            address = heap.malloc(size)
            pattern = bytes([i & 0xFF]) * size
            memory.write_bytes(address, pattern)
            written.append((address, pattern))
        for address, pattern in written:
            assert memory.read_bytes(address, len(pattern)) == pattern


class _ScanningAllocator:
    """``HeapAllocator`` as it was before its boundary map: each free
    scans every free chunk for a predecessor and every bin for each
    chunk it unbins.  Kept verbatim as the oracle of the map-based one."""

    def __init__(self, memory, base, capacity, name="heap"):
        self.memory = memory
        self.base = base
        self.capacity = capacity
        self.name = name
        self.top = base
        self.bins = [[] for _ in range(len(_BIN_CLASSES) + 1)]
        self.live = {}
        self.free_chunks = {}
        self.fault_hook = None

    def malloc(self, size):
        if size <= 0:
            size = 1
        payload = (size + 15) // 16 * 16
        address = self._take_from_bin(payload)
        if address is None:
            address = self._bump(payload)
        self.live[address] = payload
        self.memory.write_int(address - 16, payload, 8)
        self.memory.write_bytes(address, b"\x00" * payload)
        if self.fault_hook is not None:
            self.fault_hook.on_malloc(self, address, payload)
        return address

    def free(self, address):
        payload = self.live.pop(address, None)
        if payload is None:
            raise MemoryFault(address, 1, "invalid free")
        address, payload = self._coalesce(address, payload)
        self.free_chunks[address] = payload
        self.bins[_bin_index(payload)].append(address)

    def _take_from_bin(self, payload):
        index = _bin_index(payload)
        for i in range(index, len(self.bins)):
            bin_ = self.bins[i]
            for slot, address in enumerate(bin_):
                chunk = self.free_chunks.get(address)
                if chunk is not None and chunk >= payload:
                    del bin_[slot]
                    del self.free_chunks[address]
                    self._maybe_split(address, chunk, payload)
                    return address
        return None

    def _maybe_split(self, address, chunk, payload):
        remainder = chunk - payload
        if remainder >= 16 + 16:
            tail = address + payload + 16
            tail_payload = remainder - 16
            self.free_chunks[tail] = tail_payload
            self.bins[_bin_index(tail_payload)].append(tail)

    def _bump(self, payload):
        address = self.top + 16
        new_top = address + payload
        if new_top > self.base + self.capacity:
            raise OutOfMemoryError(f"{self.name} section exhausted")
        self.top = new_top
        return address

    def _coalesce(self, address, payload):
        next_start = address + payload + 16
        next_payload = self.free_chunks.pop(next_start, None)
        if next_payload is not None:
            self._unbin(next_start)
            payload += 16 + next_payload
        for prev_start, prev_payload in list(self.free_chunks.items()):
            if prev_start + prev_payload + 16 == address:
                self._unbin(prev_start)
                del self.free_chunks[prev_start]
                address = prev_start
                payload += 16 + prev_payload
                break
        return address, payload

    def _unbin(self, address):
        for bin_ in self.bins:
            if address in bin_:
                bin_.remove(address)
                return


class _HeaderLiar:
    """Smashes the recorded size of every fifth allocation, as the
    ``alloc.header`` fault does, so freed chunks overlap."""

    def __init__(self, rng):
        self.rng = rng
        self.count = 0

    def on_malloc(self, allocator, address, payload):
        self.count += 1
        if self.count % 5 == 0:
            allocator.live[address] = 16 * self.rng.randrange(1, 9)


def _replay(cls, seed, hooked):
    """A seeded malloc/calloc/free sequence on a fresh ``cls`` arena:
    (the arena, the addresses it returned)."""
    rng = random.Random(seed)
    arena = cls(Memory(), HEAP_SHARED_BASE, 1 << 22, "test")
    if hooked:
        arena.fault_hook = _HeaderLiar(random.Random(seed + 1))
    live, returned = [], []
    for _ in range(400):
        roll = rng.random()
        if live and roll < 0.45:
            arena.free(live.pop(rng.randrange(len(live))))
            continue
        if roll < 0.6:
            size = rng.randrange(1, 33) * rng.randrange(1, 9)  # calloc(n, m)
        else:
            size = rng.choice((rng.randrange(1, 300), rng.randrange(300, 5000)))
        address = arena.malloc(size)
        live.append(address)
        returned.append(address)
    return arena, returned


@pytest.mark.parametrize("hooked", (False, True))
@pytest.mark.parametrize("seed", range(6))
def test_boundary_map_allocator_matches_the_scanning_one(seed, hooked):
    """Same addresses, same bins (in order) and same free chunks (in
    order) as the scan, also with chunk sizes smashed by a hook."""
    arena, returned = _replay(HeapAllocator, seed, hooked)
    oracle, expected = _replay(_ScanningAllocator, seed, hooked)
    assert returned == expected
    assert arena.bins == oracle.bins
    assert list(arena.free_chunks.items()) == list(oracle.free_chunks.items())
    if not hooked:
        assert arena.free_ends == {
            start + size + 16: start for start, size in arena.free_chunks.items()
        }
