"""LRU plan-cache retention: mtime recency, eviction, concurrency, CLI."""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import time

import pytest

from repro.cli import main
from repro.experiments import cache
from repro.serve.cache_index import CacheIndex


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A pristine cache directory for one test."""
    target = tmp_path / "plans"
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(target))
    monkeypatch.delenv(cache.ENV_NO_CACHE, raising=False)
    monkeypatch.delenv(cache.ENV_CACHE_MAX_MB, raising=False)
    cache.stats.reset()
    return target


def _store_blob(key: str, size: int) -> None:
    cache.store(key, b"x" * size)


def _key(stem: str) -> str:
    return stem + "0" * 62


def _pin_mtime(key: str, mtime_ns: int) -> None:
    """Set an entry's recency explicitly (touches share timestamp ticks)."""
    os.utime(cache.index().entry_path(key), ns=(mtime_ns, mtime_ns))


def _lru_stems() -> list[str]:
    return [key[:2] for key, _, _ in cache.index().entries()]


def _tree_files(root) -> dict[str, int]:
    """Relative path → size of every file under ``root``."""
    return {
        path.relative_to(root).as_posix(): path.stat().st_size
        for path in root.rglob("*")
        if path.is_file()
    }


class TestCacheIndex:
    def test_hit_makes_entry_newest(self, cache_dir):
        _store_blob(_key("aa"), 100)
        _store_blob(_key("bb"), 100)
        _pin_mtime(_key("aa"), 1_000_000_000_000)
        _pin_mtime(_key("bb"), 2_000_000_000_000)
        assert _lru_stems() == ["aa", "bb"]
        hit, _ = cache.lookup(_key("aa"))
        assert hit
        assert _lru_stems() == ["bb", "aa"]

    def test_same_tick_ties_break_by_key(self, cache_dir):
        for stem in ("cc", "aa", "bb"):
            _store_blob(_key(stem), 100)
            _pin_mtime(_key(stem), 1_000_000_000_000)
        assert _lru_stems() == ["aa", "bb", "cc"]

    def test_prune_evicts_lru_first(self, cache_dir):
        for stem, mtime_ns in (("aa", 1), ("bb", 2), ("cc", 3)):
            _store_blob(_key(stem), 1000)
            _pin_mtime(_key(stem), mtime_ns * 1_000_000_000_000)
        hit, _ = cache.lookup(_key("aa"))  # aa becomes most recent
        assert hit
        result = cache.index().prune(2 * 1024)
        assert result.evicted_count == 1
        assert _lru_stems() == ["cc", "aa"]  # bb was least recently used

    def test_prune_respects_keep_set(self, cache_dir):
        for stem, mtime_ns in (("aa", 1), ("bb", 2)):
            _store_blob(_key(stem), 1000)
            _pin_mtime(_key(stem), mtime_ns * 1_000_000_000_000)
        protected = _key("aa")  # the oldest entry
        result = cache.index().prune(0, keep=frozenset((protected,)))
        assert result.evicted_count == 1
        assert [key for key, _, _ in cache.index().entries()] == [protected]

    def test_entry_file_layout_matches_cache(self, cache_dir):
        key = _key("ab")
        _store_blob(key, 10)
        path = CacheIndex(cache_dir).entry_path(key)
        assert path == cache_dir / "ab" / f"{key}.pkl" and path.is_file()

    def test_hit_on_file_unlinked_before_touch_returns_value(
        self, cache_dir, monkeypatch
    ):
        key = _key("aa")
        _store_blob(key, 10)
        real_load = cache.load

        def load_then_evict(probe: str):
            value = real_load(probe)
            cache.index().entry_path(probe).unlink()  # a prune wins the race
            return value

        monkeypatch.setattr(cache, "load", load_then_evict)
        hit, value = cache.lookup(key)
        assert hit and value == b"x" * 10
        assert cache.entry_count() == 0

    def test_hits_write_no_bytes(self, cache_dir):
        key = _key("aa")
        _store_blob(key, 1000)
        before = _tree_files(cache_dir)
        for _ in range(100):
            hit, _ = cache.lookup(key)
            assert hit
        assert _tree_files(cache_dir) == before

    def test_only_entries_and_lock_on_disk(self, cache_dir):
        for stem in ("aa", "bb", "cc"):
            _store_blob(_key(stem), 1000)
        assert cache.lookup(_key("aa"))[0]
        assert cache.prune(2 * 1024).evicted_count == 1
        names = set(_tree_files(cache_dir))
        assert "index.lock" in names
        entries = names - {"index.lock"}
        assert len(entries) == 2
        assert all(re.fullmatch(r"[0-9a-f]{2}/[0-9a-f]{64}\.pkl", n) for n in entries)

    def test_stale_journal_is_neither_read_nor_counted(self, cache_dir):
        _store_blob(_key("aa"), 1000)
        stale = cache_dir / "index.journal"
        stale.write_text(json.dumps({"key": _key("bb"), "size_bytes": 5}) + "\n")
        assert _lru_stems() == ["aa"]
        assert cache.total_bytes() == cache.index().entry_path(_key("aa")).stat().st_size


class TestCapEnforcement:
    def test_store_evicts_past_cap(self, cache_dir, monkeypatch):
        monkeypatch.setenv(cache.ENV_CACHE_MAX_MB, "1")
        blob = 400 * 1024
        for stem in ("aa", "bb", "cc"):
            _store_blob(_key(stem), blob)
        # three ~0.4 MiB entries under a 1 MiB cap: the oldest must go
        assert cache.entry_count() == 2
        assert cache.total_bytes() <= 1024 * 1024
        assert cache.stats.evictions >= 1
        assert "cc" in _lru_stems()  # the entry just stored is never evicted

    def test_store_never_evicts_entry_just_stored(self, cache_dir, monkeypatch):
        blob = 400 * 1024
        later_ns = time.time_ns() + 3_600 * 1_000_000_000
        for offset, stem in enumerate(("aa", "bb")):
            _store_blob(_key(stem), blob)
            # pinned an hour ahead: the next store is the oldest entry
            _pin_mtime(_key(stem), later_ns + offset)
        monkeypatch.setenv(cache.ENV_CACHE_MAX_MB, "1")
        _store_blob(_key("cc"), blob)
        assert _lru_stems() == ["cc", "bb"]
        assert cache.stats.evictions == 1

    def test_unset_cap_means_unbounded(self, cache_dir):
        assert cache.cache_max_bytes() is None
        for stem in ("aa", "bb", "cc", "dd"):
            _store_blob(_key(stem), 100_000)
        assert cache.entry_count() == 4

    def test_bogus_cap_values_ignored(self, cache_dir, monkeypatch):
        for bogus in ("nope", "-3", "0", ""):
            monkeypatch.setenv(cache.ENV_CACHE_MAX_MB, bogus)
            assert cache.cache_max_bytes() is None


def _hammer_worker(args: tuple[int, int]) -> dict[str, str]:
    """Fetch a fixed key set in a churned order; return key → sha of value.

    Runs in a separate process; the cache directory and size cap come in
    via the (inherited) environment, exactly like real pool workers.
    """
    import hashlib

    worker_id, rounds = args
    cache.stats.reset()
    digests: dict[str, str] = {}
    for round_no in range(rounds):
        for i in range(6):
            # deterministic per-worker interleaving, no RNG
            slot = (i + worker_id + round_no) % 6
            key = cache.make_key("hammer", slot=slot)
            value = cache.fetch(key, lambda: {"slot": slot, "blob": "x" * 300_000})
            digests[key] = hashlib.sha256(
                json.dumps(value, sort_keys=True).encode()
            ).hexdigest()
    return digests


class TestConcurrentHammer:
    def test_multiprocess_fetch_is_bit_identical(self, cache_dir, monkeypatch):
        monkeypatch.setenv(cache.ENV_CACHE_MAX_MB, "1")
        expected = {
            cache.make_key("hammer", slot=slot): slot for slot in range(6)
        }
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            results = pool.map(_hammer_worker, [(w, 5) for w in range(4)])
        # every process saw the same bytes for every key, every round
        merged: dict[str, set[str]] = {}
        for digests in results:
            for key, digest in digests.items():
                merged.setdefault(key, set()).add(digest)
        assert set(merged) == set(expected)
        assert all(len(d) == 1 for d in merged.values())
        # the stampede left no half-written entry behind
        assert not list(cache_dir.rglob("*.tmp"))
        # values on disk still round-trip to the expected content
        for key, _, _ in cache.index().entries():
            if key in expected:
                hit, value = cache.lookup(key)
                assert hit and value["slot"] == expected[key]


class TestCacheCli:
    def test_stats(self, cache_dir, capsys):
        _store_blob(_key("aa"), 1000)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and str(cache_dir) in out

    def test_prune(self, cache_dir, capsys):
        for stem in ("aa", "bb", "cc"):
            _store_blob(_key(stem), 100_000)
        assert main(["cache", "prune", "--max-mb", "0"]) == 0
        assert "pruned 3 entries" in capsys.readouterr().out
        assert cache.entry_count() == 0

    def test_prune_requires_max_mb(self, cache_dir, capsys):
        assert main(["cache", "prune"]) == 2
        assert "--max-mb is required" in capsys.readouterr().err

    def test_clear(self, cache_dir, capsys):
        _store_blob(_key("aa"), 1000)
        assert main(["cache", "clear"]) == 0
        assert "1 entries removed" in capsys.readouterr().out
        assert cache.entry_count() == 0


class TestIndexEntryShape:
    def test_prune_result_payload_roundtrip(self, cache_dir):
        _store_blob(_key("aa"), 1000)
        result = cache.prune(0)
        payload = result.to_payload()
        assert payload["evicted_count"] == 1
        assert payload["remaining_count"] == 0

    def test_entries_are_key_size_mtime(self, cache_dir):
        key = _key("aa")
        _store_blob(key, 1000)
        _pin_mtime(key, 1_234_000_000_000)
        size = cache.index().entry_path(key).stat().st_size
        assert cache.index().entries() == [(key, size, 1_234_000_000_000)]
