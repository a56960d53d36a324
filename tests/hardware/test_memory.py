"""Tests for the segmented byte-addressable memory."""

import pytest

from repro.hardware.memory import (
    GLOBAL_BASE,
    HEAP_ISOLATED_BASE,
    HEAP_SHARED_BASE,
    Memory,
    MemoryFault,
    STACK_BASE,
)


@pytest.fixture
def mem():
    return Memory()


class TestSegments:
    def test_four_segments(self, mem):
        names = [s.name for s in mem.segments]
        assert names == ["globals", "stack", "heap", "isolated"]

    def test_segment_lookup(self, mem):
        assert mem.segment_for(STACK_BASE + 100).name == "stack"
        assert mem.segment_for(HEAP_ISOLATED_BASE).name == "isolated"

    def test_segment_named(self, mem):
        assert mem.segment_named("heap").base == HEAP_SHARED_BASE
        with pytest.raises(KeyError):
            mem.segment_named("rodata")

    def test_unmapped_address_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.read_bytes(0x0, 1)

    def test_cross_segment_access_faults(self, mem):
        last = mem.segments[0].base + mem.segments[0].capacity - 4
        with pytest.raises(MemoryFault):
            mem.read_bytes(last, 16)


class TestRawAccess:
    def test_write_read_roundtrip(self, mem):
        mem.write_bytes(STACK_BASE + 8, b"hello")
        assert mem.read_bytes(STACK_BASE + 8, 5) == b"hello"

    def test_zero_initialised(self, mem):
        assert mem.read_bytes(STACK_BASE + 1024, 8) == b"\x00" * 8

    def test_empty_write_is_noop(self, mem):
        mem.write_bytes(0x0, b"")  # would fault if attempted

    def test_flat_within_segment(self, mem):
        """Writes past an object silently hit adjacent data -- the
        property the whole attack surface depends on."""
        mem.write_bytes(STACK_BASE + 16, b"A" * 32)
        assert mem.read_bytes(STACK_BASE + 40, 4) == b"AAAA"


class TestTypedAccess:
    def test_int_roundtrip(self, mem):
        mem.write_int(STACK_BASE, 0xDEADBEEF, 8)
        assert mem.read_int(STACK_BASE, 8) == 0xDEADBEEF

    def test_little_endian(self, mem):
        mem.write_int(STACK_BASE, 0x0102, 2)
        assert mem.read_bytes(STACK_BASE, 2) == b"\x02\x01"

    def test_write_int_masks(self, mem):
        mem.write_int(STACK_BASE, 0x1FF, 1)
        assert mem.read_int(STACK_BASE, 1) == 0xFF

    def test_sizes(self, mem):
        for size in (1, 2, 4, 8):
            value = (1 << (8 * size)) - 3
            mem.write_int(STACK_BASE + 64, value, size)
            assert mem.read_int(STACK_BASE + 64, size) == value


class TestCStrings:
    def test_roundtrip(self, mem):
        mem.write_cstring(GLOBAL_BASE + 32, b"admin")
        assert mem.read_cstring(GLOBAL_BASE + 32) == b"admin"

    def test_terminator_written(self, mem):
        mem.write_cstring(GLOBAL_BASE + 32, b"ab")
        assert mem.read_bytes(GLOBAL_BASE + 32, 3) == b"ab\x00"

    def test_empty(self, mem):
        mem.write_cstring(GLOBAL_BASE, b"")
        assert mem.read_cstring(GLOBAL_BASE) == b""

    def test_limit(self, mem):
        mem.write_bytes(STACK_BASE, b"x" * 64)
        assert len(mem.read_cstring(STACK_BASE, limit=16)) == 16


class TestIntFastPaths:
    """The struct-codec int paths must behave exactly like the general
    byte-string path -- including near segment boundaries and under a
    fault hook (which forces the payload-materialising slow path)."""

    def test_all_codec_sizes_roundtrip(self, mem):
        for size in (1, 2, 4, 8):
            value = (0x0123456789ABCDEF >> (8 * (8 - size))) & ((1 << (8 * size)) - 1)
            mem.write_int(STACK_BASE + 128, value, size)
            assert mem.read_int(STACK_BASE + 128, size) == value
            assert mem.read_bytes(STACK_BASE + 128, size) == value.to_bytes(
                size, "little"
            )

    def test_odd_size_uses_generic_path(self, mem):
        mem.write_int(STACK_BASE, 0x010203, 3)
        assert mem.read_int(STACK_BASE, 3) == 0x010203
        assert mem.read_bytes(STACK_BASE, 3) == b"\x03\x02\x01"

    def test_write_past_capacity_faults(self):
        mem = Memory(segment_size=64)
        with pytest.raises(MemoryFault):
            mem.write_int(STACK_BASE + 60, 1, 8)
        with pytest.raises(MemoryFault):
            mem.read_int(STACK_BASE + 60, 8)

    def test_last_full_word_before_capacity(self):
        mem = Memory(segment_size=64)
        mem.write_int(STACK_BASE + 56, 0xDEADBEEFCAFEF00D, 8)
        assert mem.read_int(STACK_BASE + 56, 8) == 0xDEADBEEFCAFEF00D

    def test_fault_hook_sees_codec_sized_writes(self, mem):
        class Recorder:
            def __init__(self):
                self.writes = []

            def on_memory_write(self, address, payload):
                self.writes.append((address, payload))
                return payload

        hook = Recorder()
        mem.fault_hook = hook
        mem.write_int(STACK_BASE, 0xAABBCCDD, 4)
        # The hook path materialises the exact little-endian payload the
        # fast path would have packed in place.
        assert hook.writes == [(STACK_BASE, b"\xdd\xcc\xbb\xaa")]
        assert mem.read_int(STACK_BASE, 4) == 0xAABBCCDD

    def test_fault_hook_transform_is_honoured(self, mem):
        class Flipper:
            def on_memory_write(self, address, payload):
                return bytes(b ^ 0xFF for b in payload)

        mem.fault_hook = Flipper()
        mem.write_int(STACK_BASE, 0x00000000, 4)
        mem.fault_hook = None
        assert mem.read_int(STACK_BASE, 4) == 0xFFFFFFFF


class TestCStringEdges:
    def test_implicit_nul_at_data_edge(self, mem):
        # No NUL inside the materialised bytes: the unmaterialised tail
        # is all zeros, so the string terminates at the data's edge.
        mem.write_bytes(GLOBAL_BASE, b"abc")
        assert mem.read_cstring(GLOBAL_BASE) == b"abc"

    def test_limit_exactly_at_nul(self, mem):
        mem.write_cstring(STACK_BASE, b"abcd")
        assert mem.read_cstring(STACK_BASE, limit=4) == b"abcd"

    def test_unterminated_at_capacity_faults(self):
        mem = Memory(segment_size=64)
        mem.write_bytes(STACK_BASE + 56, b"\xff" * 8)
        with pytest.raises(MemoryFault):
            mem.read_cstring(STACK_BASE + 56)

    def test_limit_stops_before_capacity_fault(self):
        mem = Memory(segment_size=64)
        mem.write_bytes(STACK_BASE + 56, b"\xff" * 8)
        assert mem.read_cstring(STACK_BASE + 56, limit=8) == b"\xff" * 8
