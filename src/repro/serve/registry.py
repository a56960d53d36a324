"""Warm per-worker module registry for the serve daemon.

A single-shot CLI invocation pays parse, verification, mem2reg,
vulnerability analysis, and per-scheme instrumentation for every
request.  The registry keeps all of that alive inside one worker
process, keyed by the content digest of the *source text* (the same
SHA-256 addressing :mod:`repro.perf.cache` uses for its on-disk
entries).  Each entry holds:

- a :class:`~repro.core.framework.PreparedModule`: the module compiled,
  verified and SSA-promoted once, with its vulnerability report
  computed on first need and shared by every scheme variant;
- one :class:`~repro.core.framework.ProtectionResult` per
  ``(scheme, protect_fields)`` variant, whose module object also
  accretes the interpreter tiers' decode/block/trace code caches
  across requests -- a warm ``run`` re-executes without re-decoding.

Entries are LRU-bounded (``capacity``); eviction drops the whole entry
so memory stays proportional to the distinct-module working set, not
the request count.  Each live entry's source text maps to its digest,
so a warm request's source is looked up, not hashed again
(:meth:`WarmRegistry.digest_of`).  An optional on-disk
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
from typing import Dict, Optional, Tuple

from ..core.config import DEFAULT_SCHEME, DefenseConfig
from ..core.framework import PreparedModule, ProtectionResult, protect
from ..frontend.driver import compile_source, source_digest
from ..ir.printer import print_module
from ..observability import get_metrics, phase_span


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
    #: the source text the digest addresses
    source: str
    #: the prepared module every scheme variant derives from
    prepared: PreparedModule
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
        #: source text -> digest, for every live entry
        self._digests: Dict[str, str] = {}
        self._disk = None
        if cache_dir is not None:
            from ..perf.cache import CompilationCache

            self._disk = CompilationCache(cache_dir)

    def __len__(self) -> int:
        return len(self._entries)

    # -- module preparation ------------------------------------------------------

    def digest_of(self, source: str) -> str:
        """The content digest of ``source``: looked up for a live
        entry's source, hashed otherwise."""
        digest = self._digests.get(source)
        return source_digest(source) if digest is None else digest

    def _entry(self, source: str, name: str) -> _Entry:
        digest = self.digest_of(source)
        entry = self._entries.get(digest)
        if entry is not None:
            self._entries.move_to_end(digest)
            self.stats.module_hits += 1
            get_metrics().inc("serve.registry.module_hits")
            return entry
        self.stats.module_misses += 1
        get_metrics().inc("serve.registry.module_misses")
        with phase_span("frontend"):
            module = compile_source(source, name=name)
        # The on-disk cache keys over the pristine printed module, so
        # capture the text before mem2reg rewrites it.
        cache_text = print_module(module) if self._disk is not None else None
        prepared = PreparedModule(module, consume=True)
        entry = _Entry(
            digest=digest, source=source, prepared=prepared, cache_text=cache_text
        )
        self._entries[digest] = entry
        self._digests[source] = digest
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            del self._digests[evicted.source]
            self.stats.evictions += 1
            get_metrics().inc("serve.registry.evictions")
        return entry

    # -- scheme variants ---------------------------------------------------------

    def protection(
        self,
        source: str,
        name: str = "module",
        scheme: str = DEFAULT_SCHEME,
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
        if self._disk is None:
            return protect(entry.prepared, config=config)
        key = self._disk.key_for(entry.cache_text, config)
        result = self._disk.load_protection(key, scheme)
        if result is None:
            result = protect(entry.prepared, config=config)
            self._disk.store_protection(key, result)
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
        entry = self._entries[self.digest_of(source)]
        key = (scheme, protect_fields)
        memo = entry.printed.get(key)
        if memo is None:
            text = print_module(protection.module)
            memo = (text, hashlib.sha256(text.encode("utf-8")).hexdigest())
            entry.printed[key] = memo
        return protection, memo[0], memo[1], warm
