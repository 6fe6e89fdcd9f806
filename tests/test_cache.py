"""File cache: LRU eviction, shaping policies, write-through, warming."""

import dataclasses
import weakref

import pytest

from repro.cache.disk_cache import CacheStats, FileCache, ObjectInfo, ShapingPolicy
from repro.cache.lru import LruIndex
from repro.cache.warming import warm_from_peer
from repro.shared_storage.posix import MemoryFilesystem


def make_cache(capacity=100, policy=None) -> FileCache:
    return FileCache(MemoryFilesystem(), capacity, policy)


class TestLruIndex:
    def test_order_and_sizes(self):
        idx = LruIndex()
        idx.add("a", 10)
        idx.add("b", 20)
        idx.touch("a")
        assert [n for n, _ in idx.least_recent()] == ["b", "a"]
        assert idx.total_bytes == 30

    def test_re_add_refreshes(self):
        idx = LruIndex()
        idx.add("a", 10)
        idx.add("b", 5)
        idx.add("a", 12)
        assert idx.total_bytes == 17
        assert [n for n, _ in idx.least_recent()] == ["b", "a"]

    def test_remove(self):
        idx = LruIndex()
        idx.add("a", 10)
        assert idx.remove("a") == 10
        assert idx.remove("a") is None
        assert idx.total_bytes == 0

    def test_most_recent_within_budget(self):
        idx = LruIndex()
        for name, size in (("cold", 40), ("warm", 40), ("hot", 40)):
            idx.add(name, size)
        assert idx.most_recent_within(80) == ["hot", "warm"]
        assert idx.most_recent_within(200) == ["hot", "warm", "cold"]
        assert idx.most_recent_within(10) == []


class TestFileCache:
    def test_put_get_hit(self):
        cache = make_cache()
        assert cache.put("f1", b"data")
        assert cache.get("f1") == b"data"
        assert cache.stats.hits == 1

    def test_miss_counts(self):
        cache = make_cache()
        assert cache.get("nothing") is None
        assert cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = make_cache(capacity=10)
        cache.put("a", b"12345")
        cache.put("b", b"12345")
        cache.get("a")  # a is now hotter than b
        cache.put("c", b"12345")
        assert not cache.contains("b")
        assert cache.contains("a") and cache.contains("c")
        assert cache.stats.evictions == 1

    def test_oversized_file_not_cached(self):
        cache = make_cache(capacity=3)
        assert not cache.put("big", b"123456")
        assert not cache.contains("big")

    def test_bypass_get_does_not_touch(self):
        cache = make_cache(capacity=10)
        cache.put("a", b"12345")
        cache.put("b", b"12345")
        assert cache.get("a", use_cache=False) is None  # bypass = miss
        cache.put("c", b"12345")  # evicts a (bypass didn't refresh it)
        assert not cache.contains("a")

    def test_bypass_put(self):
        cache = make_cache()
        assert not cache.put("x", b"1", use_cache=False)
        assert not cache.contains("x")

    def test_drop(self):
        cache = make_cache()
        cache.put("x", b"1")
        cache.drop("x")
        assert not cache.contains("x")
        cache.drop("x")  # idempotent

    def test_clear(self):
        cache = make_cache()
        cache.put("x", b"1")
        cache.put("y", b"2")
        cache.clear()
        assert cache.file_count == 0 and cache.used_bytes == 0

    def test_self_heals_when_local_file_lost(self):
        fs = MemoryFilesystem()
        cache = FileCache(fs, 100)
        cache.put("x", b"data")
        fs.delete("cache_x")  # local disk lost the file behind our back
        assert cache.get("x") is None
        assert not cache.contains("x")

    def test_used_bytes_accounting(self):
        cache = make_cache(capacity=100)
        cache.put("a", b"123")
        cache.put("b", b"4567")
        assert cache.used_bytes == 7


class TestShapingPolicies:
    def test_deny_table_never_cached(self):
        policy = ShapingPolicy(deny_tables={"archive"})
        cache = make_cache(policy=policy)
        assert not cache.put("f", b"x", info=ObjectInfo(table="archive"))
        assert cache.put("g", b"x", info=ObjectInfo(table="hot"))
        assert cache.stats.rejected_by_policy == 1

    def test_pinned_files_survive_eviction(self):
        policy = ShapingPolicy(pin=lambda info: info.partition_key == "recent")
        cache = make_cache(capacity=10, policy=policy)
        cache.put("pinned", b"12345", info=ObjectInfo(partition_key="recent"))
        cache.put("other", b"12345")
        cache.put("newer", b"12345")  # must evict "other", not "pinned"
        assert cache.contains("pinned")
        assert not cache.contains("other")

    def test_pinned_can_still_be_dropped_explicitly(self):
        policy = ShapingPolicy(pin=lambda info: True)
        cache = make_cache(policy=policy)
        cache.put("p", b"1")
        cache.drop("p")
        assert not cache.contains("p")


class Opened:
    """Stand-in for a parsed reader: weak-referenceable, counts openings."""

    count = 0

    def __init__(self, data):
        Opened.count += 1
        self.data = data


def opened_ref(cache, name, data=b"12345", **kwargs):
    """Open ``name`` through the cache; a weak reference to the result."""
    return weakref.ref(cache.opened(name, data, Opened, **kwargs))


class TestOpenedMemo:
    """A file's opened form lives exactly as long as its depot entry."""

    def test_opened_once_while_resident(self):
        cache = make_cache()
        cache.put("a", b"12345")
        before = Opened.count
        first = cache.opened("a", b"12345", Opened)
        assert cache.opened("a", b"12345", Opened) is first
        assert Opened.count == before + 1

    def test_dropped_on_lru_eviction(self):
        cache = make_cache(capacity=10)
        cache.put("a", b"12345")
        ref = opened_ref(cache, "a")
        assert ref() is not None
        cache.put("b", b"12345")
        cache.put("c", b"12345")  # evicts a
        assert not cache.contains("a")
        assert ref() is None

    def test_dropped_on_drop(self):
        cache = make_cache()
        cache.put("a", b"12345")
        ref = opened_ref(cache, "a")
        cache.drop("a")
        assert ref() is None

    def test_dropped_on_clear(self):
        cache = make_cache()
        cache.put("a", b"12345")
        cache.put("b", b"12345")
        refs = [opened_ref(cache, "a"), opened_ref(cache, "b")]
        cache.clear()
        assert [r() for r in refs] == [None, None]

    def test_dropped_on_re_put(self):
        cache = make_cache()
        cache.put("a", b"old")
        ref = opened_ref(cache, "a", b"old")
        cache.put("a", b"new")
        assert ref() is None
        assert cache.opened("a", b"new", Opened).data == b"new"

    def test_dropped_when_local_file_lost(self):
        for read in ("get", "peek"):
            fs = MemoryFilesystem()
            cache = FileCache(fs, 100)
            cache.put("a", b"12345")
            ref = opened_ref(cache, "a")
            fs.delete("cache_a")  # local disk lost the file behind our back
            assert getattr(cache, read)("a") is None
            assert ref() is None

    def test_bypass_reads_are_not_memoized(self):
        cache = make_cache()
        cache.put("a", b"12345")
        first = cache.opened("a", b"12345", Opened, use_cache=False)
        assert cache.opened("a", b"12345", Opened, use_cache=False) is not first
        assert cache.opened("a", b"12345", Opened) is not first

    def test_denied_and_oversized_files_are_not_memoized(self):
        policy = ShapingPolicy(deny_tables={"archive"})
        cache = make_cache(capacity=4, policy=policy)
        assert not cache.put("denied", b"1", info=ObjectInfo(table="archive"))
        assert not cache.put("big", b"123456")
        for name, data in (("denied", b"1"), ("big", b"123456")):
            first = cache.opened(name, data, Opened)
            assert cache.opened(name, data, Opened) is not first
        assert cache.file_count == 0

    def test_memo_hits_leave_stats_recency_and_capacity_alone(self):
        policy = ShapingPolicy(pin=lambda info: info.partition_key == "recent")
        cache = make_cache(capacity=10, policy=policy)
        cache.put("pinned", b"123456", info=ObjectInfo(partition_key="recent"))
        cache.put("a", b"1234")
        cache.put("b", b"1234")  # evicts a, never the pinned file
        cache.get("b")
        cache.get("missing")
        cache.note_miss_bytes(7)
        cache.note_prefetch_hit("pinned", 6)

        def snapshot():
            return (
                dataclasses.asdict(cache.stats),
                cache.capacity_violation(),
                cache.used_bytes,
                cache.pinned_bytes,
                cache.file_count,
                cache.warm_list(100),
            )

        before = snapshot()
        for _ in range(3):
            for name in ("pinned", "a", "b", "missing"):
                cache.opened(name, b"x", Opened)
                cache.opened(name, b"x", Opened, use_cache=False)
        assert snapshot() == before


class TestWarming:
    def _peer_with_files(self, files):
        shared = MemoryFilesystem()
        peer = FileCache(MemoryFilesystem(), 1000)
        for name, data in files:
            shared.write(name, data)
            peer.put(name, data)
        return peer, shared

    def test_warm_copies_mru_files(self):
        peer, shared = self._peer_with_files([("a", b"11"), ("b", b"22")])
        subscriber = FileCache(MemoryFilesystem(), 1000)
        report = warm_from_peer(subscriber, peer, shared)
        assert report.transferred == 2
        assert subscriber.contains("a") and subscriber.contains("b")
        assert report.copied_from_peer == 2  # peer preferred over shared

    def test_warm_fetches_from_shared_when_not_preferring_peer(self):
        peer, shared = self._peer_with_files([("a", b"11")])
        subscriber = FileCache(MemoryFilesystem(), 1000)
        report = warm_from_peer(subscriber, peer, shared, prefer_peer=False)
        assert report.fetched_from_shared == 1

    def test_warm_is_incremental(self):
        peer, shared = self._peer_with_files([("a", b"11"), ("b", b"22")])
        subscriber = FileCache(MemoryFilesystem(), 1000)
        subscriber.put("a", b"11")  # lukewarm cache
        report = warm_from_peer(subscriber, peer, shared)
        assert report.already_present == 1
        assert report.transferred == 1

    def test_warm_respects_budget(self):
        peer, shared = self._peer_with_files([("a", b"x" * 60), ("b", b"y" * 60)])
        subscriber = FileCache(MemoryFilesystem(), 1000)
        report = warm_from_peer(subscriber, peer, shared, budget_bytes=70)
        assert report.requested == 1  # only the hottest fits

    def test_warm_missing_everywhere(self):
        peer = FileCache(MemoryFilesystem(), 1000)
        peer.put("ghost", b"data")  # in peer index but not on shared storage
        peer._fs.delete("cache_ghost")
        shared = MemoryFilesystem()
        subscriber = FileCache(MemoryFilesystem(), 1000)
        report = warm_from_peer(subscriber, peer, shared)
        assert report.missing == 1
