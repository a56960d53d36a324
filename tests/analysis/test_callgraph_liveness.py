"""Tests for the call graph and SSA liveness."""

import pytest

from repro.analysis import CallGraph, Liveness
from repro.frontend import compile_source
from repro.transforms import Mem2Reg


class TestCallGraph:
    SOURCE = """
    int leaf(int x) { return x + 1; }
    int mid(int x) { return leaf(x) + leaf(x + 1); }
    int main() { return mid(3) + strlen("ab"); }
    """

    def test_callees(self):
        module = compile_source(self.SOURCE)
        cg = CallGraph(module)
        main = module.get_function("main")
        names = {f.name for f in cg.callees[main]}
        assert names == {"mid", "strlen"}

    def test_callers(self):
        module = compile_source(self.SOURCE)
        cg = CallGraph(module)
        leaf = module.get_function("leaf")
        assert {f.name for f in cg.callers_of(leaf)} == {"mid"}

    def test_call_sites(self):
        module = compile_source(self.SOURCE)
        cg = CallGraph(module)
        leaf = module.get_function("leaf")
        assert len(cg.call_sites_of(leaf)) == 2

    def test_recursion_detection(self):
        source = """
        int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
        int main() { return fact(4); }
        """
        module = compile_source(source)
        cg = CallGraph(module)
        assert cg.is_recursive(module.get_function("fact"))
        assert not cg.is_recursive(module.get_function("main"))

    def test_mutual_recursion_detection(self):
        source = """
        int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
        int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
        int main() { return even(4); }
        """
        module = compile_source(source)
        cg = CallGraph(module)
        assert cg.is_recursive(module.get_function("even"))


class TestLiveness:
    def test_value_live_across_block(self):
        source = """
        int main() {
            int x = 5;
            int y = 0;
            if (x > 2) { y = x + 1; } else { y = x - 1; }
            return y + x;
        }
        """
        module = compile_source(source)
        Mem2Reg().run(module)
        main = module.get_function("main")
        liveness = Liveness(main)
        assert liveness.max_pressure() >= 1

    def test_pressure_grows_with_live_values(self):
        few = compile_source("int main() { int a = 1; return a; }")
        many_source = (
            "int main() { "
            + " ".join(f"int v{i} = {i};" for i in range(12))
            + "int s = 0;"
            + "if (v0 > 0) { s = "
            + " + ".join(f"v{i}" for i in range(12))
            + "; } return s; }"
        )
        many = compile_source(many_source)
        for module in (few, many):
            Mem2Reg().run(module)
        low = Liveness(few.get_function("main")).max_pressure()
        high = Liveness(many.get_function("main")).max_pressure()
        assert high > low

    def test_estimated_spills(self):
        module = compile_source("int main() { return 1; }")
        Mem2Reg().run(module)
        liveness = Liveness(module.get_function("main"))
        assert liveness.estimated_spills() == 0
        assert liveness.estimated_spills(registers=0) == liveness.max_pressure()
