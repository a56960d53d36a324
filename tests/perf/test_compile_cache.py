"""The content-addressed compilation cache: hits, misses, corruption."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.config import DefenseConfig
from repro.ir.printer import print_module
from repro.observability import EventLog, get_event_log, install_event_log
from repro.perf import run_suite
from repro.perf.cache import CompilationCache
from repro.workloads import generate_program, get_profile

NAME = "505.mcf_r"

COMPARED_FIELDS = (
    "scheme",
    "status",
    "cycles",
    "instructions",
    "ipc",
    "steps",
    "pa_static",
    "pa_dynamic",
    "binary_bytes",
    "canary_count",
    "isolated_allocations",
)


def entry_files(root):
    return sorted(
        os.path.join(dirpath, filename)
        for dirpath, _, filenames in os.walk(root)
        for filename in filenames
        if filename.endswith(".json")
    )


def assert_summaries_equal(left, right):
    assert set(left.programs) == set(right.programs)
    for name in left.programs:
        for left_s, right_s in zip(
            left.programs[name].schemes, right.programs[name].schemes
        ):
            for field in COMPARED_FIELDS:
                assert getattr(left_s, field) == getattr(right_s, field), (
                    name,
                    left_s.scheme,
                    field,
                )


# -- unit: the cache itself ----------------------------------------------------


def test_store_load_roundtrip(tmp_path):
    cache = CompilationCache(str(tmp_path))
    config = DefenseConfig(scheme="pythia")
    key = cache.key_for("module text", config)
    assert cache.load(key) is None
    cache.store(key, "pythia", "protected text", {"pythia-stack": {"canaries": 2}})
    entry = cache.load(key)
    assert entry["scheme"] == "pythia"
    assert entry["module"] == "protected text"
    assert entry["pass_stats"] == {"pythia-stack": {"canaries": 2}}
    assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (1, 1, 1)


def test_key_covers_module_scheme_and_config(tmp_path):
    cache = CompilationCache(str(tmp_path))
    base = cache.key_for("module text", DefenseConfig(scheme="pythia"))
    assert cache.key_for("module text", DefenseConfig(scheme="pythia")) == base
    assert cache.key_for("other text", DefenseConfig(scheme="pythia")) != base
    assert cache.key_for("module text", DefenseConfig(scheme="dfi")) != base
    assert (
        cache.key_for(
            "module text", DefenseConfig(scheme="pythia", protect_heap=False)
        )
        != base
    )


def test_corrupt_entry_is_rejected_not_trusted(tmp_path):
    cache = CompilationCache(str(tmp_path))
    key = cache.key_for("module text", DefenseConfig(scheme="cpa"))
    cache.store(key, "cpa", "protected text", {})
    (path,) = entry_files(tmp_path)

    # Tamper with the payload without refreshing the digest: a stale or
    # bit-flipped entry must be dropped, never served.
    with open(path, "r", encoding="utf-8") as handle:
        blob = json.load(handle)
    blob["payload"]["module"] = "tampered text"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(blob, handle)

    assert cache.load(key) is None
    assert cache.stats.corrupt == 1

    # Truncated/unparseable files are equally a miss.
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    assert cache.load(key) is None


def test_wrong_key_slot_is_rejected(tmp_path):
    cache = CompilationCache(str(tmp_path))
    config = DefenseConfig(scheme="cpa")
    key = cache.key_for("module text", config)
    other = cache.key_for("other text", config)
    cache.store(key, "cpa", "protected text", {})
    (path,) = entry_files(tmp_path)
    target = os.path.join(
        str(tmp_path), other[:2], f"{other}.json"
    )
    os.makedirs(os.path.dirname(target), exist_ok=True)
    os.replace(path, target)
    assert cache.load(other) is None  # internal key disagrees with the slot


# -- concurrent writers: atomic publish, no torn entries -----------------------


def test_same_key_restore_is_skipped_when_valid_entry_exists(tmp_path):
    cache = CompilationCache(str(tmp_path))
    config = DefenseConfig(scheme="pythia")
    key = cache.key_for("module text", config)
    cache.store(key, "pythia", "protected text", {})
    before = os.stat(entry_files(tmp_path)[0])
    # A second writer arriving with the same content-addressed entry
    # detects the verified file and skips the write entirely.
    cache.store(key, "pythia", "protected text", {})
    after = os.stat(entry_files(tmp_path)[0])
    assert cache.stats.stores == 1
    assert (before.st_ino, before.st_mtime_ns) == (after.st_ino, after.st_mtime_ns)
    assert cache.load(key)["module"] == "protected text"


def test_store_replaces_torn_entry(tmp_path):
    cache = CompilationCache(str(tmp_path))
    config = DefenseConfig(scheme="pythia")
    key = cache.key_for("module text", config)
    path = os.path.join(str(tmp_path), key[:2], f"{key}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"format": "repro-compile-cache')  # truncated write
    cache.store(key, "pythia", "protected text", {})
    assert cache.stats.stores == 1
    assert cache.load(key)["module"] == "protected text"


def _race_store(root, key, barrier, index):
    cache = CompilationCache(root)
    barrier.wait(timeout=30)
    for _ in range(20):
        cache.store(
            key, "pythia", "racing module text " * 100, {"pass": {"n": index}}
        )


def test_concurrent_same_key_stores_never_tear(tmp_path):
    """N processes hammering one key leave exactly one valid entry.

    Every writer publishes via a private O_EXCL temp file and an atomic
    rename, so no interleaving can surface a half-written entry to a
    reader -- the durable guarantee the serve workers' shared cache
    directory depends on.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    cache = CompilationCache(str(tmp_path))
    key = cache.key_for("racing module", DefenseConfig(scheme="pythia"))
    barrier = context.Barrier(4)
    workers = [
        context.Process(target=_race_store, args=(str(tmp_path), key, barrier, i))
        for i in range(4)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0
    files = entry_files(tmp_path)
    assert len(files) == 1  # one slot, and no .tmp stragglers
    leftovers = [
        name
        for dirpath, _, names in os.walk(tmp_path)
        for name in names
        if name.endswith(".tmp")
    ]
    assert leftovers == []
    entry = cache.load(key)
    assert entry is not None
    assert entry["module"] == "racing module text " * 100


# -- integration: the suite runner against the cache ---------------------------


def test_warm_suite_hits_and_matches_cold_and_uncached(tmp_path):
    cache_dir = str(tmp_path / "cache")
    uncached = run_suite(names=[NAME])
    cold = run_suite(names=[NAME], cache_dir=cache_dir)
    warm = run_suite(names=[NAME], cache_dir=cache_dir)

    schemes = len(cold.schemes)
    assert (cold.cache_hits, cold.cache_misses) == (0, schemes)
    assert (warm.cache_hits, warm.cache_misses) == (schemes, 0)
    assert len(entry_files(cache_dir)) == schemes

    assert_summaries_equal(cold, uncached)
    assert_summaries_equal(warm, cold)


def test_suite_recompiles_corrupted_entry(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = run_suite(names=[NAME], cache_dir=cache_dir)
    files = entry_files(cache_dir)
    assert len(files) == len(cold.schemes)

    with open(files[0], "r", encoding="utf-8") as handle:
        blob = json.load(handle)
    blob["payload"]["module"] = "tampered text"
    with open(files[0], "w", encoding="utf-8") as handle:
        json.dump(blob, handle)

    warm = run_suite(names=[NAME], cache_dir=cache_dir)
    # The tampered entry is detected, recompiled, and re-stored; the
    # other entries still hit.
    assert warm.cache_misses == 1
    assert warm.cache_hits == len(cold.schemes) - 1
    assert_summaries_equal(warm, cold)

    healed = run_suite(names=[NAME], cache_dir=cache_dir)
    assert (healed.cache_hits, healed.cache_misses) == (len(cold.schemes), 0)
    assert_summaries_equal(healed, cold)


@pytest.mark.parametrize("timeout", [None, 120.0], ids=["inline", "forked"])
def test_suite_reports_a_corrupt_entry_event_exactly_once(tmp_path, timeout):
    """The worker's security event reaches the caller's log, once.

    A forked attempt records into its own process; an inline one runs in
    the caller's.  Either way the suite hands back exactly one
    ``cache-corrupt-recompile`` event for the one tampered entry.
    """
    cache_dir = str(tmp_path / "cache")
    run_suite(names=[NAME], cache_dir=cache_dir)
    path = entry_files(cache_dir)[0]
    with open(path, "r", encoding="utf-8") as handle:
        blob = json.load(handle)
    blob["payload"]["module"] = "tampered text"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(blob, handle)

    previous = install_event_log(EventLog())
    try:
        warm = run_suite(names=[NAME], cache_dir=cache_dir, timeout=timeout)
        types = [record["type"] for record in get_event_log().snapshot()]
    finally:
        install_event_log(previous)
    assert warm.metrics["counters"]["cache.corrupt"] == 1
    assert types == ["cache-corrupt-recompile"]


def test_cached_modules_print_identically_to_recompiled(tmp_path):
    from repro.metrics import measure_program

    cache_dir = str(tmp_path / "cache")
    program = generate_program(get_profile(NAME))
    cold = measure_program(program, cache_dir=cache_dir)
    warm = measure_program(program, cache_dir=cache_dir)
    for scheme, warm_run in warm.runs.items():
        assert warm_run.cache_hit
        assert not cold.runs[scheme].cache_hit
        assert print_module(warm_run.protection.module) == print_module(
            cold.runs[scheme].protection.module
        )


# -- degrade-to-off on I/O failure ---------------------------------------------


def unwritable_cache(tmp_path):
    """A cache whose root can never materialize: its parent is a file."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    return CompilationCache(str(blocker / "cache"))


def test_store_oserror_degrades_to_cache_off(tmp_path, caplog):
    import logging

    cache = unwritable_cache(tmp_path)
    key = cache.key_for("module text", DefenseConfig(scheme="pythia"))
    with caplog.at_level(logging.WARNING, logger="repro.perf.cache"):
        cache.store(key, "pythia", "text", {})
    assert cache.disabled
    assert cache.stats.io_errors == 1
    assert cache.stats.stores == 0
    # later operations are silent no-ops / misses
    cache.store(key, "pythia", "text", {})
    assert cache.load(key) is None
    assert cache.stats.misses == 1


def test_degrade_warns_exactly_once(tmp_path, caplog):
    import logging

    cache = unwritable_cache(tmp_path)
    key = cache.key_for("module text", DefenseConfig(scheme="pythia"))
    with caplog.at_level(logging.WARNING, logger="repro.perf.cache"):
        cache.store(key, "pythia", "text", {})
        cache.store(key, "pythia", "other", {})
        cache.load(key)
    warnings = [r for r in caplog.records if "disabling the cache" in r.message]
    assert len(warnings) == 1


def test_read_oserror_degrades_to_cache_off(tmp_path, caplog):
    import logging

    cache = unwritable_cache(tmp_path)
    key = cache.key_for("module text", DefenseConfig(scheme="pythia"))
    with caplog.at_level(logging.WARNING, logger="repro.perf.cache"):
        assert cache.load(key) is None
    assert cache.disabled
    assert cache.stats.io_errors == 1
    assert cache.stats.misses == 1


def test_suite_manifest_records_cache_stats_after_degrade(tmp_path):
    """Even a cache that turned itself off mid-run must leave evidence.

    The suite's failure manifest carries the merged metrics snapshot,
    and the cache publishes every outcome into it in lockstep with
    ``CacheStats`` -- so the final counters (including the ``io_errors``
    that triggered the degrade) survive into the manifest.
    """
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    result = run_suite(names=[NAME], cache_dir=str(blocker / "cache"))

    manifest = result.failure_manifest()
    metrics = manifest["metrics"]
    counters = metrics["counters"]
    assert counters["cache.io_errors"] >= 1
    assert counters.get("cache.hits", 0) == 0
    # every scheme fell through to a recompile-and-drop miss
    assert counters["cache.misses"] >= len(result.schemes)
    assert counters.get("cache.stores", 0) == 0
    assert metrics["gauges"]["cache.degraded"] == 1


def test_missing_entry_is_a_plain_miss_not_a_degrade(tmp_path):
    cache = CompilationCache(str(tmp_path))
    key = cache.key_for("module text", DefenseConfig(scheme="pythia"))
    assert cache.load(key) is None
    assert not cache.disabled
    assert cache.stats.io_errors == 0
    assert cache.stats.misses == 1


# -- the warm-load memo: fast, but never a tamper loophole ---------------------


def test_reload_of_unchanged_entry_serves_the_memo(tmp_path):
    cache = CompilationCache(str(tmp_path))
    config = DefenseConfig(scheme="pythia")
    key = cache.key_for("memo module", config)
    cache.store(key, "pythia", "define i64 @main() { ret 0 }", {})
    first = cache.load(key)
    second = cache.load(key)
    # The raw-text digest matched, so the second load skipped the JSON
    # deserialize and returned the identical verified payload object.
    assert second is first
    assert cache.stats.hits == 2


def test_tamper_after_first_load_is_still_rejected(tmp_path):
    cache = CompilationCache(str(tmp_path))
    config = DefenseConfig(scheme="pythia")
    key = cache.key_for("tamper-after-load module", config)
    cache.store(key, "pythia", "define i64 @main() { ret 0 }", {})
    assert cache.load(key) is not None
    path = entry_files(tmp_path)[0]
    with open(path, "r", encoding="utf-8") as handle:
        entry = json.load(handle)
    entry["payload"]["module"] = "define i64 @main() { ret 666 }"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle)
    # The memo is keyed on the digest of the raw file text, so any
    # on-disk change since the first load misses it and falls through
    # to full digest validation -- which rejects the entry.
    assert cache.load(key) is None
    assert cache.stats.corrupt == 1


def test_fault_hook_bypasses_the_memo(tmp_path):
    class CountingHook:
        def __init__(self):
            self.loads = 0

        def on_cache_load(self, key, entry):
            self.loads += 1
            return entry

        def on_cache_store(self, key, text):
            return text

    hook = CountingHook()
    cache = CompilationCache(str(tmp_path), fault_hook=hook)
    config = DefenseConfig(scheme="pythia")
    key = cache.key_for("hooked module", config)
    cache.store(key, "pythia", "define i64 @main() { ret 0 }", {})
    assert cache.load(key) is not None
    assert cache.load(key) is not None
    # Chaos runs must observe every deserialize, so both loads went
    # through the hook instead of the memo.
    assert hook.loads == 2


def test_warm_measurement_reuses_the_parsed_module(tmp_path):
    from repro.metrics import measure_program

    program = generate_program(get_profile(NAME))
    schemes = ("vanilla", "pythia")
    cold = measure_program(program, schemes=schemes, cache_dir=str(tmp_path))
    warm = measure_program(program, schemes=schemes, cache_dir=str(tmp_path))
    for scheme in schemes:
        assert not cold.runs[scheme].cache_hit
        assert warm.runs[scheme].cache_hit
        # The store seeded the in-process parsed-module memo, so the
        # warm run skipped parse_module entirely and got the exact
        # module object the cold run compiled.
        assert warm.runs[scheme].protection.module is cold.runs[scheme].protection.module
