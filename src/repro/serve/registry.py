"""Warm per-worker module registry for the serve daemon.

A single-shot CLI invocation pays parse, verification, mem2reg,
vulnerability analysis, and per-scheme instrumentation for every
request.  The registry keeps all of that alive inside one worker
process, keyed by the content digest of the *source text* (the same
SHA-256 addressing :mod:`repro.perf.cache` uses for its on-disk
entries):

- ``prepared`` module: compiled, verified, SSA-promoted once;
- the shared :class:`~repro.analysis.manager.AnalysisManager`
  vulnerability report, computed once and carried into every scheme
  variant through the PR 2 ``Module.clone(value_map=True)`` + report
  remap path (never re-analyzed per scheme);
- one :class:`~repro.core.framework.ProtectionResult` per
  ``(scheme, protect_fields)`` variant, whose module object also
  accretes the interpreter tiers' decode/block/trace code caches
  across requests -- a warm ``run`` re-executes without re-decoding.

Entries are LRU-bounded (``capacity``); eviction drops the whole entry
so memory stays proportional to the distinct-module working set, not
the request count.  An optional on-disk
:class:`~repro.perf.cache.CompilationCache` backs the registry so a
restarted worker (or a sibling shard recompiling after a crash) can
skip instrumentation it has never run in-process.

The registry is single-threaded by construction: each worker process
owns exactly one and services one request at a time; cross-request
concurrency is the pool's job (sharding) and the front-end's
(single-flight dedup).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..analysis.manager import get_manager, invalidate_analyses
from ..core.config import DefenseConfig
from ..core.framework import ProtectionResult, protect
from ..core.remap import remap_report
from ..frontend.driver import compile_source, source_digest
from ..hardware.decoder import invalidate_decode_cache
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..observability import get_metrics, phase_span
from ..transforms.mem2reg import Mem2Reg
from ..ir.verifier import verify_module


@dataclass
class RegistryStats:
    """Warm/cold accounting for one registry instance."""

    module_hits: int = 0
    module_misses: int = 0
    protection_hits: int = 0
    protection_misses: int = 0
    evictions: int = 0


@dataclass
class _Entry:
    """Everything warm about one distinct source module."""

    digest: str
    #: verified + mem2reg-promoted module; the vanilla result and the
    #: clone source for every protected variant
    prepared: Module
    #: shared vulnerability report over ``prepared`` (``None`` until a
    #: non-vanilla scheme first needs it)
    report: Any = None
    #: printed pristine-module text, the on-disk cache key basis
    cache_text: Optional[str] = None
    #: (scheme, protect_fields) -> ProtectionResult
    protections: Dict[Tuple[str, bool], ProtectionResult] = field(
        default_factory=dict
    )
    #: (scheme, protect_fields) -> (printed protected module, its digest)
    printed: Dict[Tuple[str, bool], Tuple[str, str]] = field(default_factory=dict)


class WarmRegistry:
    """LRU registry of prepared modules and their scheme variants."""

    def __init__(self, capacity: int = 32, cache_dir: Optional[str] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = RegistryStats()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._disk = None
        if cache_dir is not None:
            from ..perf.cache import CompilationCache

            self._disk = CompilationCache(cache_dir)

    def __len__(self) -> int:
        return len(self._entries)

    # -- module preparation ------------------------------------------------------

    def _entry(self, source: str, name: str) -> _Entry:
        digest = source_digest(source)
        entry = self._entries.get(digest)
        if entry is not None:
            self._entries.move_to_end(digest)
            self.stats.module_hits += 1
            get_metrics().inc("serve.registry.module_hits")
            return entry
        self.stats.module_misses += 1
        get_metrics().inc("serve.registry.module_misses")
        timings: Dict[str, float] = {}
        with phase_span("frontend", timings):
            module = compile_source(source, name=name)
        # The on-disk cache keys over the pristine printed module, so
        # capture the text before mem2reg rewrites it.
        cache_text = print_module(module) if self._disk is not None else None
        with phase_span("verify", timings):
            verify_module(module)
        with phase_span("mem2reg", timings):
            Mem2Reg().run(module)
        with phase_span("verify", timings):
            verify_module(module)
        invalidate_decode_cache(module)
        invalidate_analyses(module)
        entry = _Entry(digest=digest, prepared=module, cache_text=cache_text)
        self._entries[digest] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            get_metrics().inc("serve.registry.evictions")
        return entry

    def _report(self, entry: _Entry) -> Any:
        if entry.report is None:
            with phase_span("analysis", {}):
                entry.report = get_manager().vulnerability_report(entry.prepared)
        return entry.report

    # -- scheme variants ---------------------------------------------------------

    def protection(
        self,
        source: str,
        name: str = "module",
        scheme: str = "pythia",
        protect_fields: bool = False,
    ) -> Tuple[ProtectionResult, bool]:
        """The protected module for one scheme variant.

        Returns ``(result, warm)`` where ``warm`` says the variant was
        served from this registry (not compiled for this call).  Scheme
        variants of an already-prepared module reuse the shared
        analysis through the clone/remap path, so the second scheme of
        a module never re-runs verification, mem2reg, or analysis.
        """
        entry = self._entry(source, name)
        key = (scheme, protect_fields)
        result = entry.protections.get(key)
        if result is not None:
            self.stats.protection_hits += 1
            get_metrics().inc("serve.registry.protection_hits")
            return result, True
        self.stats.protection_misses += 1
        get_metrics().inc("serve.registry.protection_misses")
        result = self._compile_variant(entry, scheme, protect_fields)
        entry.protections[key] = result
        return result, False

    def _compile_variant(
        self, entry: _Entry, scheme: str, protect_fields: bool
    ) -> ProtectionResult:
        config = DefenseConfig(scheme=scheme, protect_fields=protect_fields)
        disk_key = None
        if self._disk is not None and entry.cache_text is not None:
            disk_key = self._disk.key_for(entry.cache_text, config)
            cached = self._disk.load(disk_key)
            if cached is not None:
                return ProtectionResult(
                    module=parse_module(cached["module"]),
                    scheme=scheme,
                    report=None,
                    pass_stats=cached["pass_stats"],
                    timings=dict(cached.get("timings", {})),
                )
        if scheme == "vanilla":
            result = ProtectionResult(
                module=entry.prepared, scheme="vanilla", report=None
            )
        else:
            target, vmap = entry.prepared.clone(value_map=True)
            timings: Dict[str, float] = {}
            with phase_span("remap", timings):
                remapped = remap_report(self._report(entry), vmap)
            result = protect(
                target,
                config=config,
                clone=False,
                report=remapped,
                prepared=True,
            )
            result.timings.update(timings)
        if self._disk is not None and disk_key is not None:
            self._disk.store(
                disk_key,
                scheme,
                print_module(result.module),
                result.pass_stats,
                result.timings,
            )
        return result

    def printed_module(
        self, source: str, name: str, scheme: str, protect_fields: bool = False
    ) -> Tuple[ProtectionResult, str, str, bool]:
        """``(protection, printed text, text digest, warm)`` for a variant.

        The print (and its digest) is memoized with the entry: repeated
        ``compile`` requests for a warm variant return byte-identical
        text without re-rendering the module.
        """
        protection, warm = self.protection(source, name, scheme, protect_fields)
        entry = self._entries[source_digest(source)]
        key = (scheme, protect_fields)
        memo = entry.printed.get(key)
        if memo is None:
            text = print_module(protection.module)
            memo = (text, hashlib.sha256(text.encode("utf-8")).hexdigest())
            entry.printed[key] = memo
        return protection, memo[0], memo[1], warm
