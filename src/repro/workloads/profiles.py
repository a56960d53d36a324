"""Per-benchmark statistical profiles.

The paper evaluates 15 SPEC CPU2017 applications plus nginx.  We cannot
run SPEC's sources, but every number the evaluation reports is a
function of program *statistics*: how many conditional branches, how
pointer-heavy the backward slices are, how many input channels of each
category, how much of the hot code operates on input-tainted data, how
much struct-field traffic the language style produces (C++), and how
much of the data lives on the heap.

Each profile parameterises the deterministic program generator
(:mod:`repro.workloads.generator`) with those statistics, scaled down
to interpreter-friendly sizes.  The *relative* ordering across
benchmarks follows the paper's characterisation:

- ``502.gcc_r``     -- the most vulnerable variables and branches; worst
  CPA overhead (69.8% in the paper) and worst Pythia overhead (25.4%).
- ``500.perlbench_r`` -- high CPA overhead (60.7%) collapsing to 18%.
- ``519.lbm_r``     -- tiny branch count (75), no IC-affected branches:
  both techniques protect 100%.
- ``505.mcf_r``, ``525.x264_r`` -- fully protectable by Pythia.
- ``510.parest_r`` (C++) -- the most input channels and PA sites for
  Pythia, and the largest DFI protection gap (~17%).
- ``523.xalancbmk_r`` (C++) -- PA inside loop nests: worst CPA IPC hit.
- ``nginx``         -- copy/move-dominated ICs (712 of 720) inside a hot
  request loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class BenchmarkProfile:
    """Generator knobs for one benchmark."""

    name: str
    language: str  # "c" or "c++"

    # -- code shape -----------------------------------------------------------
    #: hot compute functions over non-tainted data (unaffected branches)
    hot_functions: int = 4
    #: hot compute functions over IC-tainted data (CPA instruments these)
    tainted_functions: int = 2
    #: pointer-arithmetic walkers over tainted data (DFI slice killers)
    pointer_functions: int = 1
    #: struct-field logic over tainted data (field-insensitivity killers)
    field_functions: int = 1
    #: input-channel handler functions (buffers + IC calls + direct branches)
    ic_handlers: int = 2
    #: helpers branching on caller-opaque memory (Pythia's interproc limit)
    opaque_functions: int = 0
    #: heap-allocating workers with IC-written heap buffers
    heap_workers: int = 1

    # -- dynamic intensity -------------------------------------------------------
    #: outer main-loop iterations
    outer_iterations: int = 6
    #: inner loop trip count of hot/tainted/pointer functions
    inner_iterations: int = 24
    #: element count of the data arrays
    array_size: int = 16
    #: arithmetic statements per hot-loop iteration (dilutes overheads,
    #: modelling compute-dense kernels like lbm/namd)
    compute_weight: int = 1

    # -- input-channel mix (relative weights, Fig. 5(b)) ----------------------------
    ic_weights: Tuple[int, int, int, int, int, int] = (32, 66, 1, 1, 1, 1)
    #: extra print/copy IC call sites per handler (drives total IC count)
    ic_sites_per_handler: int = 4

    seed: int = 1


def _p(**kwargs) -> BenchmarkProfile:
    return BenchmarkProfile(**kwargs)


#: The paper's benchmark list with scaled-down, shape-preserving knobs.
SPEC_PROFILES: Dict[str, BenchmarkProfile] = {
    profile.name: profile
    for profile in [
        _p(
            name="500.perlbench_r", language="c", seed=500, compute_weight=0,
            hot_functions=5, tainted_functions=5, pointer_functions=2,
            field_functions=1, ic_handlers=3, opaque_functions=1,
            heap_workers=2, outer_iterations=6, inner_iterations=30,
            ic_sites_per_handler=4,
        ),
        _p(
            name="502.gcc_r", language="c", seed=502, compute_weight=0,
            hot_functions=5, tainted_functions=7, pointer_functions=3,
            field_functions=2, ic_handlers=5, opaque_functions=1,
            heap_workers=2, outer_iterations=6, inner_iterations=32,
            ic_sites_per_handler=6,
        ),
        _p(
            name="505.mcf_r", language="c", seed=505, compute_weight=2,
            hot_functions=4, tainted_functions=1, pointer_functions=0,
            field_functions=0, ic_handlers=1, opaque_functions=0,
            heap_workers=0, outer_iterations=6, inner_iterations=28,
            ic_sites_per_handler=3,
        ),
        _p(
            name="508.namd_r", language="c++", seed=508, compute_weight=3,
            hot_functions=6, tainted_functions=1, pointer_functions=1,
            field_functions=2, ic_handlers=1, opaque_functions=1,
            heap_workers=1, outer_iterations=6, inner_iterations=30,
            ic_sites_per_handler=3,
        ),
        _p(
            name="510.parest_r", language="c++", seed=510, compute_weight=3,
            hot_functions=5, tainted_functions=5, pointer_functions=4,
            field_functions=5, ic_handlers=5, opaque_functions=1,
            heap_workers=2, outer_iterations=6, inner_iterations=26,
            ic_sites_per_handler=9,
        ),
        _p(
            name="511.povray_r", language="c++", seed=511, compute_weight=2,
            hot_functions=5, tainted_functions=3, pointer_functions=2,
            field_functions=3, ic_handlers=2, opaque_functions=1,
            heap_workers=1, outer_iterations=6, inner_iterations=26,
            ic_sites_per_handler=4,
        ),
        _p(
            name="519.lbm_r", language="c", seed=519, compute_weight=4,
            hot_functions=3, tainted_functions=0, pointer_functions=0,
            field_functions=0, ic_handlers=1, opaque_functions=0,
            heap_workers=0, outer_iterations=6, inner_iterations=36,
            ic_sites_per_handler=2,
        ),
        _p(
            name="520.omnetpp_r", language="c++", seed=520, compute_weight=2,
            hot_functions=4, tainted_functions=3, pointer_functions=2,
            field_functions=3, ic_handlers=2, opaque_functions=1,
            heap_workers=2, outer_iterations=6, inner_iterations=24,
            ic_sites_per_handler=4,
        ),
        _p(
            name="523.xalancbmk_r", language="c++", seed=523, compute_weight=3,
            hot_functions=4, tainted_functions=4, pointer_functions=2,
            field_functions=4, ic_handlers=3, opaque_functions=1,
            heap_workers=2, outer_iterations=6, inner_iterations=34,
            ic_sites_per_handler=4,
        ),
        _p(
            name="525.x264_r", language="c", seed=525, compute_weight=2,
            hot_functions=6, tainted_functions=2, pointer_functions=0,
            field_functions=0, ic_handlers=2, opaque_functions=0,
            heap_workers=1, outer_iterations=6, inner_iterations=30,
            ic_sites_per_handler=3,
        ),
        _p(
            name="526.blender_r", language="c++", seed=526, compute_weight=1,
            hot_functions=5, tainted_functions=3, pointer_functions=2,
            field_functions=2, ic_handlers=2, opaque_functions=1,
            heap_workers=1, outer_iterations=6, inner_iterations=26,
            ic_sites_per_handler=4,
        ),
        _p(
            name="531.deepsjeng_r", language="c++", seed=531,
            hot_functions=5, tainted_functions=2, pointer_functions=1,
            field_functions=1, ic_handlers=1, opaque_functions=1,
            heap_workers=1, outer_iterations=6, inner_iterations=28,
            ic_sites_per_handler=3,
        ),
        _p(
            name="538.imagick_r", language="c", seed=538, compute_weight=2,
            hot_functions=5, tainted_functions=2, pointer_functions=1,
            field_functions=0, ic_handlers=2, opaque_functions=1,
            heap_workers=1, outer_iterations=6, inner_iterations=30,
            ic_sites_per_handler=3,
        ),
        _p(
            name="541.leela_r", language="c++", seed=541, compute_weight=2,
            hot_functions=4, tainted_functions=2, pointer_functions=1,
            field_functions=2, ic_handlers=1, opaque_functions=1,
            heap_workers=1, outer_iterations=6, inner_iterations=26,
            ic_sites_per_handler=3,
        ),
        _p(
            name="557.xz_r", language="c", seed=557, compute_weight=2,
            hot_functions=4, tainted_functions=2, pointer_functions=1,
            field_functions=0, ic_handlers=2, opaque_functions=1,
            heap_workers=1, outer_iterations=6, inner_iterations=28,
            ic_sites_per_handler=3,
        ),
    ]
}

#: nginx: few variables, many copy/move ICs, hot request loop.
NGINX_PROFILE = _p(
    name="nginx", language="c", seed=8080,
    hot_functions=4, tainted_functions=4, pointer_functions=1,
    field_functions=1, ic_handlers=3, opaque_functions=0,
    heap_workers=2, outer_iterations=8, inner_iterations=22,
    compute_weight=2, ic_weights=(1, 89, 0, 0, 0, 0), ic_sites_per_handler=4,
)

#: Everything the paper's figures iterate over, in figure order.
ALL_PROFILES: Dict[str, BenchmarkProfile] = {**SPEC_PROFILES, "nginx": NGINX_PROFILE}


def profile_names() -> List[str]:
    return list(ALL_PROFILES)


def get_profile(name: str) -> BenchmarkProfile:
    try:
        return ALL_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(ALL_PROFILES)}"
        ) from None
