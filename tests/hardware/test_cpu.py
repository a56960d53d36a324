"""Tests for the IR interpreter (CPU): semantics, traps, counters."""

import pytest

from repro.frontend import compile_source
from repro.hardware import (
    CPU,
    CanaryTrap,
    DfiTrap,
    MemoryFault,
    PacAuthError,
    StepLimitExceeded,
    declare_library,
)
from repro.ir import (
    Function,
    FunctionType,
    I64,
    I8,
    IRBuilder,
    Module,
    array,
    pointer,
    verify_module,
)
from tests.conftest import run_minic


def build_main(body):
    """Build a module whose main is produced by ``body(builder, module)``."""
    module = Module("t")
    f = Function("main", FunctionType(I64, []))
    module.add_function(f)
    builder = IRBuilder(f.append_block("entry"))
    body(builder, module, f)
    verify_module(module)
    return module


class TestArithmetic:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("int main() { return 7 + 5; }", 12),
            ("int main() { return 7 - 9; }", (7 - 9) % 2**64),
            ("int main() { return 6 * 7; }", 42),
            ("int main() { return 17 / 5; }", 3),
            ("int main() { return -17 / 5; }", (-3) % 2**64),
            ("int main() { return 17 % 5; }", 2),
            ("int main() { return -17 % 5; }", (-2) % 2**64),
            ("int main() { return 12 & 10; }", 8),
            ("int main() { return 12 | 3; }", 15),
            ("int main() { return 12 ^ 10; }", 6),
            ("int main() { return 3 << 4; }", 48),
            ("int main() { return 48 >> 4; }", 3),
            ("int main() { return -8 >> 1; }", (-4) % 2**64),
        ],
    )
    def test_binops(self, source, expected):
        result = run_minic(source)
        assert result.ok
        assert result.return_value == expected

    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("3 < 4", 1),
            ("4 < 3", 0),
            ("-1 < 0", 1),
            ("3 == 3", 1),
            ("3 != 3", 0),
            ("5 >= 5", 1),
        ],
    )
    def test_comparisons_are_signed(self, expr, expected):
        result = run_minic(f"int main() {{ return {expr}; }}")
        assert result.return_value == expected

    def test_divide_by_zero_faults(self):
        result = run_minic("int main() { int z = 0; return 5 / z; }")
        assert result.status == "fault"


class TestMemorySemantics:
    def test_frame_layout_follows_alloca_order(self):
        source = """
        int main() {
            char a[8];
            char b[8];
            a[0] = 1;
            b[0] = 2;
            // overflow a by 8 bytes: lands exactly on b[0]
            a[8] = 99;
            return b[0];
        }
        """
        result = run_minic(source)
        assert result.return_value == 99

    def test_null_load_traps(self):
        source = "int main() { int *p; p = NULL; return *p; }"
        assert run_minic(source).status == "fault"

    def test_null_store_traps(self):
        source = "int main() { int *p; p = NULL; *p = 1; return 0; }"
        assert run_minic(source).status == "fault"

    def test_globals_initialised(self):
        source = "int g = 41;\nint main() { return g + 1; }"
        assert run_minic(source).return_value == 42

    def test_global_string_initialiser(self):
        source = 'char msg[8] = "hey";\nint main() { return strlen(msg); }'
        assert run_minic(source).return_value == 3

    def test_struct_field_addressing(self):
        source = """
        struct pair { int a; int b; };
        int main() {
            struct pair p;
            p.a = 3; p.b = 39;
            return p.a + p.b;
        }
        """
        assert run_minic(source).return_value == 42

    def test_recursion(self):
        source = """
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() { return fib(10); }
        """
        assert run_minic(source).return_value == 55

    def test_unbounded_recursion_faults(self):
        source = "int f(int n) { return f(n + 1); }\nint main() { return f(0); }"
        result = run_minic(source)
        assert result.status in ("fault", "limit")


class TestTraps:
    def test_pac_trap_surfaces(self):
        def body(builder, module, f):
            slot = builder.alloca(I64, name="slot")
            modifier = builder.cast("ptrtoint", slot, I64)
            builder.store(builder.const(I64, 5), slot)  # raw store
            loaded = builder.load(slot)
            builder.pac_auth(loaded, modifier)  # raw value: PAC missing
            builder.ret(builder.const(I64, 0))

        result = CPU(build_main(body)).run()
        assert result.status == "pac_trap"
        assert isinstance(result.trap, PacAuthError)

    def test_sec_assert_trap(self):
        def body(builder, module, f):
            cond = builder.icmp("eq", builder.const(I64, 1), builder.const(I64, 2))
            builder.sec_assert(cond, "canary")
            builder.ret(builder.const(I64, 0))

        result = CPU(build_main(body)).run()
        assert result.status == "canary_trap"
        assert isinstance(result.trap, CanaryTrap)

    def test_dfi_trap(self):
        def body(builder, module, f):
            slot = builder.alloca(I64, name="slot")
            builder.store(builder.const(I64, 1), slot)
            builder.dfi_setdef(slot, 9, 8)
            builder.dfi_chkdef(slot, frozenset({4}), 8)  # 9 not allowed
            builder.ret(builder.const(I64, 0))

        result = CPU(build_main(body)).run()
        assert result.status == "dfi_trap"
        assert isinstance(result.trap, DfiTrap)

    def test_dfi_pass_when_allowed(self):
        def body(builder, module, f):
            slot = builder.alloca(I64, name="slot")
            builder.store(builder.const(I64, 1), slot)
            builder.dfi_setdef(slot, 9, 8)
            builder.dfi_chkdef(slot, frozenset({9}), 8)
            builder.ret(builder.const(I64, 0))

        assert CPU(build_main(body)).run().ok

    def test_step_limit(self):
        source = "int main() { while (1) { } return 0; }"
        module = compile_source(source)
        result = CPU(module, max_steps=1000).run()
        assert result.status == "limit"
        assert isinstance(result.trap, StepLimitExceeded)


class TestPacExecution:
    def test_sign_auth_roundtrip_in_program(self):
        def body(builder, module, f):
            slot = builder.alloca(I64, name="slot")
            modifier = builder.cast("ptrtoint", slot, I64)
            signed = builder.pac_sign(builder.const(I64, 42), modifier)
            builder.store(signed, slot)
            loaded = builder.load(slot)
            auth = builder.pac_auth(loaded, modifier)
            builder.ret(auth)

        result = CPU(build_main(body)).run()
        assert result.ok and result.return_value == 42
        assert result.pa_dynamic == 2

    def test_tampered_slot_fails_auth(self):
        def body(builder, module, f):
            slot = builder.alloca(I64, name="slot")
            modifier = builder.cast("ptrtoint", slot, I64)
            signed = builder.pac_sign(builder.const(I64, 42), modifier)
            builder.store(signed, slot)
            # attacker-style raw byte write over the slot
            byte_view = builder.cast("bitcast", slot, pointer(I8))
            builder.store(builder.const(I8, 0x7), byte_view)
            loaded = builder.load(slot)
            builder.pac_auth(loaded, modifier)
            builder.ret(builder.const(I64, 0))

        assert CPU(build_main(body)).run().status == "pac_trap"


class TestCounters:
    def test_ic_calls_counted(self, listing1_module):
        cpu = CPU(listing1_module)
        result = cpu.run(inputs=[b"x"])
        assert result.ic_calls.get("gets") == 1
        assert result.ic_calls.get("strcpy") == 1
        assert result.ic_calls.get("printf") == 1

    def test_deterministic_across_runs(self, listing1_module):
        a = CPU(listing1_module, seed=5).run(inputs=[b"x"])
        b = CPU(listing1_module, seed=5).run(inputs=[b"x"])
        assert a.cycles == b.cycles
        assert a.output == b.output
        assert a.instructions == b.instructions

    def test_stack_slot_address_visible_during_run(self, listing1_module):
        seen = {}

        class Probe:
            def payload_for(self, cpu, channel, args):
                if channel == "gets":
                    seen["str"] = cpu.stack_slot_address("str")
                    seen["user"] = cpu.stack_slot_address("user")
                return None

        CPU(listing1_module, attack=Probe()).run(inputs=[b"x"])
        assert seen["str"] is not None and seen["user"] is not None
        assert seen["user"] - seen["str"] == 16  # adjacent arrays


class TestDfiShadow:
    """The bulk range/batch operations on the DFI definitions table."""

    def _shadow(self):
        from repro.hardware.cpu import DFI_EXTERNAL_WRITER, DfiShadow

        return DfiShadow(), DFI_EXTERNAL_WRITER

    def test_set_range_covers_every_byte(self):
        shadow, _ = self._shadow()
        shadow.set_range(0x1000, 8, def_id=3)
        assert len(shadow) == 8
        for offset in range(8):
            assert shadow[0x1000 + offset] == 3

    def test_check_range_reports_first_violating_byte(self):
        shadow, external = self._shadow()
        shadow.set_range(0x1000, 8, def_id=3)
        shadow.set_range(0x1004, 2, def_id=9)
        allowed = frozenset({3})
        assert shadow.check_range(0x1000, 4, allowed) is None
        assert shadow.check_range(0x1000, 8, allowed) == (0x1004, 9)
        # Untouched bytes read as the external writer.
        assert shadow.check_range(0x2000, 1, allowed) == (0x2000, external)

    def test_check_batch_mixes_const_and_frame_pointers(self):
        shadow, _ = self._shadow()
        shadow.set_range(0x1000, 8, def_id=3)
        shadow.set_range(0x2000, 4, def_id=5)
        frame = {"p": 0x2000}
        allowed3 = frozenset({3})
        allowed5 = frozenset({5})
        specs = (
            (True, 0x1000, 8, allowed3),
            (False, "p", 4, allowed5),
        )
        assert shadow.check_batch(specs, frame) is None
        # Poison one byte in the middle of the second run: the batch
        # reports the element index and the exact violating byte.
        shadow[0x2002] = 7
        assert shadow.check_batch(specs, frame) == (1, 0x2002, 7, allowed5)

    def test_check_batch_stops_at_first_violation(self):
        shadow, external = self._shadow()
        allowed = frozenset({1})
        specs = (
            (True, 0x1000, 1, allowed),
            (True, 0x2000, 1, allowed),
        )
        assert shadow.check_batch(specs, {}) == (0, 0x1000, external, allowed)

    def test_word_view_agrees_with_a_byte_map(self):
        """Random sets and checks of every size and alignment, against a
        plain byte map: the same verdicts, the same first violating
        address, the same bytes written."""
        import random

        shadow, external = self._shadow()
        model = {}
        rng = random.Random(5)
        for _ in range(4000):
            address = 0x1000 + rng.randrange(96)
            if rng.random() < 0.5:
                address &= -8
            size = rng.choice((1, 2, 4, 8, 8, 8, 12, 16, 24, 40))
            writer = rng.choice((1, 2, 3, external))
            if rng.random() < 0.5:
                shadow.set_range(address, size, writer)
                model.update(dict.fromkeys(range(address, address + size), writer))
                continue
            allowed = frozenset(rng.sample((1, 2, 3, external), rng.randrange(1, 4)))
            expected = next(
                (
                    (byte, model.get(byte, external))
                    for byte in range(address, address + size)
                    if model.get(byte, external) not in allowed
                ),
                None,
            )
            assert shadow.check_range(address, size, allowed) == expected
            batch = shadow.check_batch(((True, address, size, allowed),), {})
            assert batch == (None if expected is None else (0,) + expected + (allowed,))
        assert len(shadow) == len(model)
        for byte in range(0x1000, 0x1000 + 140):
            assert shadow.get(byte) == model.get(byte, external)
            assert (byte in shadow) == (byte in model)

    def test_set_range_fault_hook_exempts_external_writer(self):
        shadow, external = self._shadow()

        class Hook:
            def __init__(self):
                self.calls = []

            def on_dfi_setdef(self, address, size, def_id):
                self.calls.append((address, size, def_id))
                return def_id + 100

        hook = Hook()
        shadow.fault_hook = hook
        shadow.set_range(0x1000, 2, def_id=3)
        shadow.set_range(0x2000, 2, def_id=external)
        assert hook.calls == [(0x1000, 2, 3)]
        assert shadow[0x1000] == 103
        assert shadow[0x2000] == external
