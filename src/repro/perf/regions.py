"""Profile digests for the trace tier's compiled-region cache.

The trace compiler (:mod:`repro.hardware.tracec`) caches its compiled
program in the module's derived-artifact memo, and a cached program
hits only for the profile that guided its region selection: feeding a
different warmup profile into ``trace_compile`` must recompile even
when the IR did not change, and re-running with the same profile must
hit.  The digest lives here (not in ``hardware/``) because the perf
layer owns what counts as "the same profile" -- today that is the
per-block execution counts and nothing else: step and cycle
attributions do not influence region selection or chain layout, so
they stay out of the key.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional


def profile_digest(block_counts: Optional[Dict[str, float]]) -> Optional[str]:
    """Stable short digest of a ``"function:block" -> executions`` map.

    ``None`` (no profile: static region selection) digests to ``None``.
    Counts are digested with ``:.0f`` so the float/int representation an
    entry took through JSON round-trips does not split the cache, and
    zero-count blocks are dropped for the same reason -- region
    selection ignores them, so their presence must not force a
    recompile.
    """
    if block_counts is None:
        return None
    digest = hashlib.sha256()
    for label in sorted(block_counts):
        count = block_counts[label]
        if not isinstance(count, (int, float)) or count <= 0:
            continue
        digest.update(f"{label}={count:.0f};".encode("utf-8"))
    return digest.hexdigest()[:16]
