"""repro.analysis -- static analyses over the IR.

Alias analysis, memory def-use, reaching definitions, input-channel
detection, the call graph, SSA liveness, and the two slicers (branch
decomposition / input-channel construction) at the heart of Pythia.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "alias": ("AliasAnalysis", "HEAP_ALLOCATORS", "MemObject"),
        "callgraph": ("CallGraph",),
        "dataflow": ("MemoryDef", "MemoryDefUse", "ReachingDefinitions"),
        "input_channels": (
            "IC_CATEGORIES",
            "InputChannelAnalysis",
            "InputChannelSite",
            "channel_kind_of",
            "written_argument_indices",
        ),
        "liveness": ("Liveness",),
        "manager": (
            "AnalysisManager",
            "DEFAULT_MANAGER",
            "get_manager",
        ),
        "slicing": ("BackwardSlicer", "BranchSlice", "ForwardSlice", "ForwardSlicer"),
    },
)

__all__ = [
    "AliasAnalysis",
    "AnalysisManager",
    "BackwardSlicer",
    "BranchSlice",
    "CallGraph",
    "channel_kind_of",
    "DEFAULT_MANAGER",
    "get_manager",
    "ForwardSlice",
    "ForwardSlicer",
    "HEAP_ALLOCATORS",
    "IC_CATEGORIES",
    "InputChannelAnalysis",
    "InputChannelSite",
    "Liveness",
    "MemObject",
    "MemoryDef",
    "MemoryDefUse",
    "ReachingDefinitions",
    "written_argument_indices",
]
