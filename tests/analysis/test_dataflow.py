"""Tests for memory def-use indexing and reaching definitions."""

import pytest

from repro.analysis import (
    AliasAnalysis,
    InputChannelAnalysis,
    MemoryDefUse,
    ReachingDefinitions,
)
from repro.frontend import compile_source
from repro.ir import Load, Store
from repro.transforms import Mem2Reg


def build(source):
    module = compile_source(source)
    Mem2Reg().run(module)
    alias = AliasAnalysis(module)
    channels = InputChannelAnalysis(module)
    memdu = MemoryDefUse(module, alias, channels)
    return module, alias, memdu


def loads_in(module, fname):
    return [i for i in module.get_function(fname).instructions() if isinstance(i, Load)]


class TestMemoryDefUse:
    def test_stores_indexed(self):
        source = "int main() { int a[2]; a[0] = 1; a[1] = 2; return a[0]; }"
        module, alias, memdu = build(source)
        allocas = module.get_function("main").allocas()
        obj = alias.object_for(allocas[0])
        assert len(memdu.defs_of_object(obj)) == 2

    def test_loads_indexed(self):
        source = "int main() { int a[2]; a[0] = 1; return a[0] + a[1]; }"
        module, alias, memdu = build(source)
        obj = alias.object_for(module.get_function("main").allocas()[0])
        assert len(memdu.loads_by_object.get(obj, [])) == 2

    def test_ic_writes_are_defs(self):
        source = "int main() { char b[8]; gets(b); return b[0]; }"
        module, alias, memdu = build(source)
        obj = alias.object_for(module.get_function("main").allocas()[0])
        ic_defs = memdu.ic_defs_of_object(obj)
        assert len(ic_defs) == 1
        assert ic_defs[0].ic_site.kind == "get"

    def test_def_ids_unique(self, listing1_module):
        from repro.core import clone_module

        module = clone_module(listing1_module)
        Mem2Reg().run(module)
        alias = AliasAnalysis(module)
        memdu = MemoryDefUse(module, alias)
        ids = [d.def_id for d in memdu.defs]
        assert len(ids) == len(set(ids))


class TestReachingDefinitions:
    def test_straightline_reaching(self):
        source = "int main() { int a[1]; a[0] = 1; return a[0]; }"
        module, alias, memdu = build(source)
        rd = ReachingDefinitions(module.get_function("main"), memdu)
        load = loads_in(module, "main")[0]
        reaching = rd.reaching(load)
        assert len(reaching) == 1

    def test_full_overwrite_kills(self):
        source = """
        int main() {
            int x;
            int *p;
            p = &x;
            *p = 1;
            *p = 2;
            return *p;
        }
        """
        module, alias, memdu = build(source)
        rd = ReachingDefinitions(module.get_function("main"), memdu)
        load = loads_in(module, "main")[-1]
        reaching = rd.reaching(load)
        # the second store strongly updates the whole object
        assert len(reaching) == 1

    def test_element_store_does_not_kill_sibling(self):
        source = """
        int main() {
            int a[2];
            a[0] = 1;
            a[1] = 2;
            return a[0];
        }
        """
        module, alias, memdu = build(source)
        rd = ReachingDefinitions(module.get_function("main"), memdu)
        load = loads_in(module, "main")[0]
        # both element stores must reach: a[1]=2 must not kill a[0]=1
        assert len(rd.reaching(load)) == 2

    def test_branch_merge_unions(self):
        source = """
        int main() {
            int a[1];
            int x = 0;
            scanf("%d", &x);
            if (x > 0) { a[0] = 1; } else { a[0] = 2; }
            return a[0];
        }
        """
        module, alias, memdu = build(source)
        rd = ReachingDefinitions(module.get_function("main"), memdu)
        load = [
            l for l in loads_in(module, "main") if str(l.pointer.type) == "i64*"
        ][-1]
        stores = {d for d in rd.reaching(load) if isinstance(d.inst, Store)}
        assert len(stores) == 2

    def test_loop_defs_reach_header(self):
        source = """
        int main() {
            int a[1];
            a[0] = 0;
            for (int i = 0; i < 3; i = i + 1) { a[0] = a[0] + 1; }
            return a[0];
        }
        """
        module, alias, memdu = build(source)
        rd = ReachingDefinitions(module.get_function("main"), memdu)
        load = loads_in(module, "main")[0]  # the a[0] inside the loop
        assert len(rd.reaching(load)) == 2  # init and loop store

    def test_reaching_at_call(self, listing1_module):
        from repro.core import clone_module
        from repro.ir import Call

        module = clone_module(listing1_module)
        Mem2Reg().run(module)
        alias = AliasAnalysis(module)
        channels = InputChannelAnalysis(module)
        memdu = MemoryDefUse(module, alias, channels)
        access = module.get_function("access_check")
        rd = ReachingDefinitions(access, memdu)
        strncmp_call = next(
            i
            for i in access.instructions()
            if isinstance(i, Call) and i.callee.name == "strncmp"
        )
        user_obj = next(
            o for o in alias.objects if o.label.endswith("%user")
        )
        reaching = rd.reaching_at(strncmp_call, {user_obj})
        # the strcpy IC write to user reaches the comparison
        assert any(d.is_input_channel for d in reaching)
