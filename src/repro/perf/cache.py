"""Content-addressed on-disk compilation cache.

Protecting a module is deterministic: the same input module, scheme,
and :class:`~repro.core.config.DefenseConfig` always produce the same
instrumented module (the remap/recompute bit-identity tests pin this
down).  That makes compilation outputs content-addressable -- the cache
key is a SHA-256 over the *printed* input module plus the scheme and a
canonical encoding of the config, so any change to either the program
or the protection options misses naturally.

Entries live under ``<root>/<key[:2]>/<key>.json`` and carry the
printed protected module, the pass statistics, and the recorded phase
timings, plus an internal payload digest.  A stored entry whose digest
no longer matches its payload (truncated write, manual edit, bit rot)
is treated as a miss and recompiled over; corruption never produces a
wrong module.  Writes go through a temp file and ``os.replace`` so
concurrent suite workers sharing one cache directory cannot observe a
half-written entry.

The cache is an accelerator, never a correctness dependency, so I/O
failure must not kill a run: any :class:`OSError` beyond a plain miss
(permissions, disk full, the root turning out to be a file) logs one
warning and **degrades the instance to cache-off** -- every later
lookup misses and every later store is a no-op.  An optional
``fault_hook`` (see :mod:`repro.robustness.faults`) lets chaos runs
inject exactly those failures plus corrupted/truncated entries.

:meth:`CompilationCache.load_protection` and
:meth:`~CompilationCache.store_protection` convert between entries and
:class:`~repro.core.framework.ProtectionResult` for every caller (the
suite's measurements and the serve registry), and keep an in-process
memo of parsed protected modules.

This module is deliberately light on dependencies (stdlib plus the
stdlib-only :mod:`repro.observability`; the IR parser and printer load
only inside the protection pair): callers in
:mod:`repro.metrics.overhead` import it lazily to keep the metrics
layer importable without dragging in the perf package.  Every lookup
outcome is published twice -- into the per-instance :class:`CacheStats`
(the legacy per-run view) and into the global metrics registry /
tracer as ``cache.*`` counters and instant events, which is how suite
manifests keep the final statistics even after an instance degrades to
cache-off.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import tempfile
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from ..observability import current_tracer, get_event_log, get_metrics

#: Bump to invalidate every existing cache entry (key prefix).
#: v2: keys hash a memoized digest of the module text instead of
#: re-hashing the full text once per scheme.
CACHE_FORMAT = "repro-compile-cache-v2"

logger = logging.getLogger(__name__)


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    io_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


def config_token(config: Any) -> str:
    """Canonical string encoding of a defense config for the cache key.

    Any dataclass works; fields are serialized sorted so the token is
    stable across field-declaration reordering.
    """
    return json.dumps(dataclasses.asdict(config), sort_keys=True)


@lru_cache(maxsize=64)
def _text_digest(module_text: str) -> str:
    """Digest of one printed module, memoized.

    A measurement computes one key per scheme over the *same* module
    text; memoizing the text's digest makes those repeat keyings hash a
    64-char digest instead of the whole printed module each time.
    """
    return hashlib.sha256(module_text.encode("utf-8")).hexdigest()


def compute_key(module_text: str, scheme: str, token: str) -> str:
    """The content address of one (module, scheme, config) compilation."""
    digest = hashlib.sha256()
    for part in (CACHE_FORMAT, scheme, token, _text_digest(module_text)):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def _payload_digest(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: (root, key) -> (digest of the raw entry text, verified payload).
#: Re-loading an unchanged entry skips the JSON deserialize and the
#: canonical-payload re-hash; the raw-text digest still covers every
#: byte on disk, so tampering since the first load is still a miss.
_LOAD_MEMO: Dict[Tuple[str, str], Tuple[str, Dict[str, Any]]] = {}
_LOAD_MEMO_CAP = 256

#: (root, key) -> protected Module, already parsed.  Keys are content
#: addresses, so a memoized module is exactly what parsing the
#: (digest-verified) entry text would produce; reusing the object also
#: carries over its attached decode/block caches, so warm runs skip
#: re-decoding too.  Seeded on store, so a warm run never re-parses
#: what this process just compiled.  Never consulted when the cache
#: has a fault hook (chaos runs must see every deserialize).
_PARSED_MODULES: Dict[Tuple[str, str], Any] = {}
_PARSED_MODULES_CAP = 128


def _memo_module(memo_key: Tuple[str, str], module: Any) -> None:
    if len(_PARSED_MODULES) >= _PARSED_MODULES_CAP:
        _PARSED_MODULES.pop(next(iter(_PARSED_MODULES)))
    _PARSED_MODULES[memo_key] = module


class CompilationCache:
    """Directory-backed cache of protected modules and their stats."""

    def __init__(self, root: str, fault_hook=None):
        self.root = root
        self.stats = CacheStats()
        #: True once an I/O error demoted this instance to cache-off.
        self.disabled = False
        #: optional fault injector: loads pass through
        #: ``on_cache_load(key, entry)``, stores through
        #: ``on_cache_store(key, text)`` (which may raise ``OSError``)
        self.fault_hook = fault_hook

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def _miss(self) -> None:
        self.stats.misses += 1
        get_metrics().inc("cache.misses")

    def _degrade(self, operation: str, exc: OSError) -> None:
        """Demote to cache-off after an I/O failure, warning once."""
        self.stats.io_errors += 1
        metrics = get_metrics()
        metrics.inc("cache.io_errors")
        metrics.set_gauge("cache.degraded", 1)
        current_tracer().instant(
            "cache.io_error", "cache", operation=operation, error=str(exc)
        )
        if not self.disabled:
            self.disabled = True
            logger.warning(
                "compilation cache %s failed (%s: %s); "
                "disabling the cache for the rest of the run",
                operation,
                type(exc).__name__,
                exc,
            )

    def key_for(self, module_text: str, config: Any) -> str:
        return compute_key(module_text, config.scheme, config_token(config))

    @staticmethod
    def _valid_entry_on_disk(path: str, digest: str) -> bool:
        """True when ``path`` already holds a verified entry for ``digest``.

        Any read/parse problem just returns ``False`` -- the caller
        then writes a fresh entry over whatever is there.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            return False
        return (
            isinstance(existing, dict)
            and existing.get("format") == CACHE_FORMAT
            and existing.get("digest") == digest
        )

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored entry for ``key``, or ``None`` on miss/corruption.

        The returned dict has ``scheme``, ``module`` (printed protected
        module), ``pass_stats``, and ``timings`` keys.
        """
        if self.disabled:
            self._miss()
            return None
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            self._miss()
            current_tracer().instant("cache.miss", "cache", key=key[:12])
            return None
        except OSError as exc:
            self._degrade("read", exc)
            self._miss()
            return None
        memo_key = (self.root, key)
        if self.fault_hook is None:
            text_digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            memo = _LOAD_MEMO.get(memo_key)
            if memo is not None and memo[0] == text_digest:
                self.stats.hits += 1
                get_metrics().inc("cache.hits")
                current_tracer().instant("cache.hit", "cache", key=key[:12])
                return memo[1]
        try:
            entry = json.loads(text)
        except ValueError:
            self._miss()
            current_tracer().instant("cache.miss", "cache", key=key[:12], reason="unparsable")
            return None
        if self.fault_hook is not None:
            entry = self.fault_hook.on_cache_load(key, entry)
        payload = entry.get("payload")
        if (
            not isinstance(payload, dict)
            or entry.get("format") != CACHE_FORMAT
            or entry.get("key") != key
            or entry.get("digest") != _payload_digest(payload)
        ):
            self.stats.corrupt += 1
            get_metrics().inc("cache.corrupt")
            self._miss()
            current_tracer().instant("cache.corrupt", "cache", key=key[:12])
            get_event_log().emit("cache-corrupt-recompile", key=key)
            return None
        if self.fault_hook is None:
            if len(_LOAD_MEMO) >= _LOAD_MEMO_CAP:
                _LOAD_MEMO.pop(next(iter(_LOAD_MEMO)))
            _LOAD_MEMO[memo_key] = (text_digest, payload)
        self.stats.hits += 1
        get_metrics().inc("cache.hits")
        current_tracer().instant("cache.hit", "cache", key=key[:12])
        return payload

    def load_protection(self, key: str, scheme: str):
        """The cached :class:`~repro.core.framework.ProtectionResult`
        for ``key``, or ``None`` on miss/corruption.

        The protected module comes from the parsed-module memo when this
        process already holds it, else from parsing the entry's text.
        """
        payload = self.load(key)
        if payload is None:
            return None
        from ..core.framework import ProtectionResult

        memo_key = (self.root, key)
        use_memo = self.fault_hook is None
        module = _PARSED_MODULES.get(memo_key) if use_memo else None
        if module is None:
            from ..ir.parser import parse_module

            module = parse_module(payload["module"])
            if use_memo:
                _memo_module(memo_key, module)
        return ProtectionResult(
            module=module,
            scheme=scheme,
            report=None,
            pass_stats=payload["pass_stats"],
            timings=dict(payload.get("timings", {})),
        )

    def store_protection(self, key: str, result) -> None:
        """Persist a ``ProtectionResult`` and memoize its module."""
        from ..ir.printer import print_module

        self.store(
            key,
            result.scheme,
            print_module(result.module),
            result.pass_stats,
            result.timings,
        )
        if self.fault_hook is None and not self.disabled:
            _memo_module((self.root, key), result.module)

    def store(
        self,
        key: str,
        scheme: str,
        module_text: str,
        pass_stats: Dict[str, Dict[str, Any]],
        timings: Optional[Dict[str, float]] = None,
    ) -> None:
        """Persist one compilation result atomically.

        Safe under concurrent same-key writers: the key is a content
        address, so every writer carries an identical entry -- each
        writes a private ``mkstemp`` file (``O_EXCL``) and publishes it
        with an atomic ``os.replace``, and readers can never observe a
        torn entry regardless of interleaving.  When a verified entry
        is already on disk the store is skipped entirely, so N racing
        writers collapse to (at most) N renames of identical bytes and
        usually just one.

        I/O failure is absorbed: the entry is simply not cached and the
        instance degrades to cache-off (see :meth:`_degrade`).
        """
        if self.disabled:
            return
        payload = {
            "scheme": scheme,
            "module": module_text,
            "pass_stats": pass_stats,
            "timings": timings or {},
        }
        entry = {
            "format": CACHE_FORMAT,
            "key": key,
            "digest": _payload_digest(payload),
            "payload": payload,
        }
        path = self._path(key)
        if self.fault_hook is None and self._valid_entry_on_disk(path, entry["digest"]):
            get_metrics().inc("cache.store_skips")
            current_tracer().instant("cache.store_skip", "cache", key=key[:12])
            return
        directory = os.path.dirname(path)
        temp_path = None
        try:
            text = json.dumps(entry, sort_keys=True)
            if self.fault_hook is not None:
                text = self.fault_hook.on_cache_store(key, text)
            os.makedirs(directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temp_path, path)
        except OSError as exc:
            if temp_path is not None:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
            self._degrade("write", exc)
            return
        self.stats.stores += 1
        get_metrics().inc("cache.stores")
        current_tracer().instant("cache.store", "cache", key=key[:12])
