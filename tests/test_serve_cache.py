"""Tests for the programmed-mapping LRU cache."""

import pytest

from repro.serve.cache import MappingCache


class Counter:
    """A programmer that counts how many times each key was built."""

    def __init__(self):
        self.programs = []

    def programmer(self, key):
        def build():
            self.programs.append(key)
            return f"mapping-{key}"

        return build


class TestHitMiss:
    def test_first_lookup_programs_then_hits(self):
        cache, counter = MappingCache(), Counter()
        key = "chip00"
        first = cache.get_or_program(key, counter.programmer(key))
        second = cache.get_or_program(key, counter.programmer(key))
        assert first is second
        assert counter.programs == [key]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_distinct_chips_get_distinct_mappings(self):
        cache, counter = MappingCache(), Counter()
        keys = [f"chip{i}" for i in range(3)]
        values = [cache.get_or_program(k, counter.programmer(k)) for k in keys]
        assert len(set(values)) == 3
        assert cache.stats.misses == 3

    def test_program_seconds_accumulate(self):
        cache, counter = MappingCache(), Counter()
        cache.get_or_program("chip00", counter.programmer("chip00"))
        assert cache.stats.program_seconds > 0.0


class TestEviction:
    def test_lru_evicts_least_recent(self):
        cache, counter = MappingCache(capacity=2), Counter()
        a, b, c = "abc"
        cache.get_or_program(a, counter.programmer(a))
        cache.get_or_program(b, counter.programmer(b))
        cache.get_or_program(a, counter.programmer(a))  # refresh a
        cache.get_or_program(c, counter.programmer(c))  # evicts b
        assert b not in cache
        assert a in cache and c in cache
        assert cache.stats.evictions == 1

    def test_evicted_key_reprograms(self):
        cache, counter = MappingCache(capacity=1), Counter()
        a, b = "a", "b"
        cache.get_or_program(a, counter.programmer(a))
        cache.get_or_program(b, counter.programmer(b))
        cache.get_or_program(a, counter.programmer(a))
        assert counter.programs == [a, b, a]
        assert cache.stats.misses == 3

    def test_capacity_none_never_evicts(self):
        cache, counter = MappingCache(capacity=None), Counter()
        for i in range(50):
            key = str(i)
            cache.get_or_program(key, counter.programmer(key))
        assert len(cache) == 50
        assert cache.stats.evictions == 0

    def test_keys_ordered_lru_first(self):
        cache, counter = MappingCache(), Counter()
        a, b = "a", "b"
        cache.get_or_program(a, counter.programmer(a))
        cache.get_or_program(b, counter.programmer(b))
        cache.get_or_program(a, counter.programmer(a))
        assert cache.keys == [b, a]

    def test_on_evict_receives_evicted_key_and_mapping(self):
        evicted = []
        cache = MappingCache(capacity=1, on_evict=lambda *pair: evicted.append(pair))
        counter = Counter()
        cache.get_or_program("chip00", counter.programmer("chip00"))
        cache.get_or_program("chip01", counter.programmer("chip01"))
        cache.invalidate("chip01")  # deliberate drops do not fire the hook
        assert evicted == [("chip00", "mapping-chip00")]


class TestInvalidate:
    def test_invalidate_drops_entry(self):
        cache, counter = MappingCache(), Counter()
        key = "a"
        cache.get_or_program(key, counter.programmer(key))
        assert cache.invalidate(key)
        assert key not in cache
        assert not cache.invalidate(key)

    def test_invalidate_counts_in_stats(self):
        cache, counter = MappingCache(), Counter()
        key = "a"
        cache.get_or_program(key, counter.programmer(key))
        cache.invalidate(key)
        cache.invalidate(key)  # already gone: not counted
        assert cache.stats.invalidations == 1
        assert cache.stats.evictions == 0
        assert cache.stats.as_dict()["invalidations"] == 1

    def test_peek_does_not_touch_stats_or_order(self):
        cache, counter = MappingCache(capacity=2), Counter()
        a, b = "a", "b"
        cache.get_or_program(a, counter.programmer(a))
        cache.get_or_program(b, counter.programmer(b))
        lookups_before = cache.stats.lookups
        assert cache.peek(a) == "mapping-" + str(a)
        assert cache.peek("zz") is None
        assert cache.stats.lookups == lookups_before
        assert cache.keys == [a, b]  # peek did not refresh a's recency

    def test_clear_keeps_stats(self):
        cache, counter = MappingCache(), Counter()
        key = "a"
        cache.get_or_program(key, counter.programmer(key))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1


class TestValidation:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MappingCache(capacity=0)
