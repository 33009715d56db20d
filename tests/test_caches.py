"""Unit tests for the cache substrate."""

import pytest

from repro.caches import (
    ICacheConfig,
    InstructionCache,
    PrefetchCache,
    SetAssociativeCache,
)


def _one_set(ways: int) -> SetAssociativeCache:
    return SetAssociativeCache(num_sets=1, ways=ways)


def _probe(cache: SetAssociativeCache, key, index: int = 0):
    """An owner's probe of set ``index``: a hit becomes its set's most
    recent entry."""
    entries = cache.sets[index % cache.num_sets]
    if key not in entries:
        return None
    value = entries[key] = entries.pop(key)
    return value


class TestLRU:
    def test_victim_is_least_recent(self):
        cache = _one_set(4)
        for key in "abcd":
            cache.insert(key, key.upper(), 0)
        _probe(cache, "a")       # a becomes most recent
        assert cache.insert("e", "E", 0) == ("b", "B")

    def test_fill_refreshes(self):
        cache = _one_set(2)
        cache.insert("a", 1, 0)
        cache.insert("b", 2, 0)
        cache.insert("a", 3, 0)  # refill: a becomes most recent
        assert cache.insert("c", 4, 0) == ("b", 2)


class TestSetAssociativeCache:
    def test_hit_after_insert(self):
        cache = SetAssociativeCache(num_sets=4, ways=2)
        cache.insert(5, 1, 5)
        assert _probe(cache, 5, 5) == 1
        assert cache.sets[1] == {5: 1}   # set index reduced mod 4

    def test_miss_leaves_set_unchanged(self):
        cache = SetAssociativeCache(num_sets=4, ways=2)
        cache.insert(3, 1, 3)
        assert _probe(cache, 7, 7) is None
        assert cache.sets[3] == {3: 1}

    def test_eviction_within_set(self):
        # Single set: third insert must evict the LRU entry.
        cache = _one_set(2)
        cache.insert("a", 1, 0)
        cache.insert("b", 2, 0)
        _probe(cache, "a")  # refresh a
        evicted = cache.insert("c", 3, 0)
        assert evicted == ("b", 2)
        assert list(cache.sets[0]) == ["a", "c"]

    def test_reinsert_overwrites_in_place(self):
        cache = _one_set(2)
        cache.insert("a", 1, 0)
        assert cache.insert("a", 9, 0) is None
        assert list(cache.items()) == [("a", 9)]
        assert cache.occupancy() == 1

    def test_contains_does_not_count(self):
        cache = _one_set(2)
        cache.insert("a", 1, 0)
        cache.insert("b", 2, 0)
        assert "a" in cache.sets[0]   # a membership test is no hit
        assert [key for key, _ in cache.items()] == ["a", "b"]

    def test_capacity_and_items(self):
        cache = SetAssociativeCache(num_sets=4, ways=2)
        for key in range(8):
            cache.insert(key, key * 10, key)
        assert cache.occupancy() == 8
        assert dict(cache.items()) == {k: k * 10 for k in range(8)}


class TestInstructionCache:
    def test_geometry(self):
        config = ICacheConfig()
        assert config.num_sets == 256        # 64KB / (4 ways * 64B)
        assert config.instructions_per_line == 16

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            ICacheConfig(size_bytes=1000).num_sets

    def test_miss_then_hit(self):
        icache = InstructionCache()
        latency, missed = icache.fetch_line(0x1000, "slow_path")
        assert missed and latency == 10
        latency, missed = icache.fetch_line(0x1004, "slow_path")
        assert not missed and latency == 1  # same 64B line

    def test_per_client_traffic(self):
        icache = InstructionCache()
        icache.fetch_line(0x1000, "preconstruct", instructions=0)
        icache.fetch_line(0x1000, "slow_path", instructions=16)
        pre = icache.client_traffic("preconstruct")
        slow = icache.client_traffic("slow_path")
        assert pre.misses == 1 and slow.misses == 0
        assert slow.instructions_supplied == 16
        assert icache.total_misses == 1

    def test_prefetch_side_effect_benefits_slow_path(self):
        """A line touched by preconstruction later hits for the slow path
        (the Table 3 effect)."""
        icache = InstructionCache()
        icache.fetch_line(0x2000, "preconstruct")
        _, missed = icache.fetch_line(0x2000, "slow_path")
        assert not missed

    def test_contains_line_nondestructive(self):
        icache = InstructionCache()
        assert not icache.contains_line(0x1000)
        icache.fetch_line(0x1000, "slow_path")
        assert icache.contains_line(0x103C)  # same line
        assert icache.total_misses == 1


class TestPrefetchCache:
    def test_fill_up_and_refuse(self):
        cache = PrefetchCache(capacity_instructions=32, line_bytes=64)
        assert cache.capacity_lines == 2
        assert cache.add_line(0x1000)
        assert cache.add_line(0x1040)
        assert cache.full
        assert not cache.add_line(0x2000)   # full: refused
        assert cache.add_line(0x1000)       # already present: fine

    def test_contains_by_line(self):
        cache = PrefetchCache()
        cache.add_line(0x1010)
        assert cache.contains(0x103C)
        assert not cache.contains(0x1040)

    def test_reset(self):
        cache = PrefetchCache(capacity_instructions=16)
        cache.add_line(0x1000)
        cache.reset()
        assert cache.occupancy_lines == 0
        assert not cache.contains(0x1000)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PrefetchCache(capacity_instructions=0)
        with pytest.raises(ValueError):
            PrefetchCache(capacity_instructions=10)  # not whole lines

