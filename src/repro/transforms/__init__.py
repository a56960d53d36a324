"""repro.transforms -- compiler passes.

SSA construction (mem2reg) and the three defense instrumentations: the
conservative CPA baseline (Algorithm 2), Pythia's stack canaries with
re-layout (Algorithm 3) and heap sectioning (Algorithm 4), and the DFI
comparison baseline.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cpa": ("CompletePointerAuthentication",),
        "dfi": ("DataFlowIntegrityPass",),
        "field_protect": ("FieldProtectionPass", "make_guarded_struct"),
        "heap_section": ("HeapSectionPass",),
        "mem2reg": ("Mem2Reg", "promotable_allocas"),
        "pass_manager": ("PassManager",),
        "stack_protect": ("StackProtectionPass",),
        "support": (
            "ensure_declaration",
            "hoist_allocas",
            "is_scalar_object",
            "library_read_sites",
            "loads_touching",
            "object_size",
            "sign_scalar_slots",
            "stores_touching",
        ),
    },
)

__all__ = [
    "CompletePointerAuthentication",
    "DataFlowIntegrityPass",
    "FieldProtectionPass",
    "make_guarded_struct",
    "ensure_declaration",
    "HeapSectionPass",
    "hoist_allocas",
    "is_scalar_object",
    "library_read_sites",
    "loads_touching",
    "Mem2Reg",
    "object_size",
    "PassManager",
    "promotable_allocas",
    "sign_scalar_slots",
    "StackProtectionPass",
    "stores_touching",
]
