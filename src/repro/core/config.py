"""Defense configuration."""

from __future__ import annotations

from dataclasses import dataclass

#: The defense schemes the framework can apply.
SCHEMES = ("vanilla", "cpa", "pythia", "dfi")
#: The uninstrumented scheme every overhead is measured relative to.
BASELINE = "vanilla"
#: The scheme ``run``, ``profile``, serve requests and ``protect()``
#: apply when none is named.
DEFAULT_SCHEME = "pythia"


@dataclass
class DefenseConfig:
    """Options controlling how a module is protected.

    ``scheme``
        ``vanilla`` (no instrumentation), ``cpa`` (conservative full
        pointer authentication, §4.2), ``pythia`` (stack canaries +
        heap sectioning, §4.3), or ``dfi`` (the comparison baseline).
    ``run_mem2reg``
        Promote scalars to SSA first, as the paper does; only surviving
        memory traffic is instrumented.
    ``verify``
        Run the IR verifier before and after every pass.
    ``protect_stack`` / ``protect_heap``
        Ablation switches for the two halves of the Pythia scheme.
    ``protect_fields``
        Opt-in §6.4 extension: per-field struct canaries, catching
        intra-struct overflows the base scheme cannot see.
    """

    scheme: str = DEFAULT_SCHEME
    run_mem2reg: bool = True
    verify: bool = True
    protect_stack: bool = True
    protect_heap: bool = True
    #: §6.4 future work: interleave canaries inside struct fields
    protect_fields: bool = False
    #: §4.4: re-randomise canaries before every input-channel use
    #: (defeats leak-and-replay); disable only for the ablation
    rerandomize_canaries: bool = True

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
