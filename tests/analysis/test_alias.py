"""Tests for the Andersen may-alias analysis."""

import pytest

from repro.analysis import AliasAnalysis
from repro.frontend import compile_source
from repro.ir import Alloca, Call, Load, Store


def analyze(source):
    module = compile_source(source)
    return module, AliasAnalysis(module)


def alloca_named(module, fname, name):
    for inst in module.get_function(fname).instructions():
        if isinstance(inst, Alloca) and inst.name == name:
            return inst
    raise AssertionError(f"no alloca {name} in {fname}")


class TestBasics:
    def test_alloca_gets_object(self):
        module, alias = analyze("int main() { int x = 1; return x; }")
        x = alloca_named(module, "main", "x")
        pts = alias.points_to(x)
        assert len(pts) == 1
        assert next(iter(pts)).kind == "stack"

    def test_distinct_allocas_do_not_alias(self):
        module, alias = analyze("int main() { int x; int y; x = 1; y = 2; return x + y; }")
        x = alloca_named(module, "main", "x")
        y = alloca_named(module, "main", "y")
        assert not alias.may_alias(x, y)

    def test_gep_aliases_base(self):
        source = "int main() { int a[4]; a[2] = 1; return a[2]; }"
        module, alias = analyze(source)
        a = alloca_named(module, "main", "a")
        geps = [
            inst
            for inst in module.get_function("main").instructions()
            if inst.opcode == "getelementptr"
        ]
        assert geps
        for gep in geps:
            assert alias.may_alias(gep, a)

    def test_pointer_assignment_propagates(self):
        source = "int main() { int x = 1; int *p; p = &x; return *p; }"
        module, alias = analyze(source)
        x = alloca_named(module, "main", "x")
        x_obj = alias.object_for(x)
        loads = [
            i
            for i in module.get_function("main").instructions()
            if isinstance(i, Load) and str(i.type) == "i64*"
        ]
        assert loads
        assert any(x_obj in alias.points_to(load) for load in loads)

    def test_globals_have_objects(self):
        module, alias = analyze("int g;\nint main() { g = 1; return g; }")
        gvar = module.globals["g"]
        assert alias.object_for(gvar).kind == "global"

    def test_heap_object_per_site(self):
        source = """
        int main() {
            int *a; int *b;
            a = malloc(8);
            b = malloc(8);
            *a = 1; *b = 2;
            return *a + *b;
        }
        """
        module, alias = analyze(source)
        calls = [
            i
            for i in module.get_function("main").instructions()
            if isinstance(i, Call) and i.callee.name == "malloc"
        ]
        pts_a = alias.points_to(calls[0])
        pts_b = alias.points_to(calls[1])
        assert pts_a and pts_b and not (pts_a & pts_b)
        assert next(iter(pts_a)).kind == "heap"


class TestInterprocedural:
    def test_arguments_inherit_caller_objects(self):
        source = """
        int deref(int *p) { return *p; }
        int main() { int x = 3; return deref(&x); }
        """
        module, alias = analyze(source)
        x = alloca_named(module, "main", "x")
        x_obj = alias.object_for(x)
        formal = module.get_function("deref").args[0]
        assert x_obj in alias.points_to(formal)

    def test_entry_points_get_summary_objects(self):
        source = "int entry(int *p) { return *p; }"
        module, alias = analyze(source)
        formal = module.get_function("entry").args[0]
        pts = alias.points_to(formal)
        assert any(o.kind == "arg" for o in pts)

    def test_called_functions_have_no_summary(self):
        source = """
        int helper(int *p) { return *p; }
        int main() { int x; x = 1; return helper(&x); }
        """
        module, alias = analyze(source)
        formal = module.get_function("helper").args[0]
        assert all(o.kind != "arg" for o in alias.points_to(formal))

    def test_return_value_flow(self):
        source = """
        int *pick(int *a) { return a; }
        int main() { int x = 1; int *p; p = pick(&x); return *p; }
        """
        module, alias = analyze(source)
        x = alloca_named(module, "main", "x")
        x_obj = alias.object_for(x)
        calls = [
            i
            for i in module.get_function("main").instructions()
            if isinstance(i, Call) and i.callee.name == "pick"
        ]
        assert x_obj in alias.points_to(calls[0])


class TestThroughMemory:
    def test_pointer_stored_and_loaded(self):
        source = """
        int main() {
            int x = 1;
            int *p; int **pp;
            p = &x;
            pp = &p;
            return **pp;
        }
        """
        module, alias = analyze(source)
        x_obj = alias.object_for(alloca_named(module, "main", "x"))
        # the load of *pp must point to x
        loads = [
            i
            for i in module.get_function("main").instructions()
            if isinstance(i, Load) and str(i.type) == "i64*"
        ]
        assert any(x_obj in alias.points_to(load) for load in loads)

    def test_must_alias_single(self):
        module, alias = analyze("int main() { int x = 1; return x; }")
        x = alloca_named(module, "main", "x")
        assert alias.must_alias_single(x) is alias.object_for(x)

    def test_must_alias_single_rejects_heap(self):
        source = "int main() { int *p; p = malloc(8); *p = 1; return *p; }"
        module, alias = analyze(source)
        calls = [
            i
            for i in module.get_function("main").instructions()
            if isinstance(i, Call) and i.callee.name == "malloc"
        ]
        assert alias.must_alias_single(calls[0]) is None

    def test_aliasing_pointers_query(self):
        source = "int main() { int x = 1; int *p; p = &x; return *p; }"
        module, alias = analyze(source)
        x_obj = alias.object_for(alloca_named(module, "main", "x"))
        holders = alias.aliasing_pointers(x_obj)
        assert len(holders) >= 2  # the alloca itself and the loaded pointer
