"""Dedicated tests for the trace cache structure."""

import pytest

from repro.isa import Instruction, Opcode
from repro.trace import (
    BYTES_PER_ENTRY,
    Trace,
    TraceCache,
    TraceCacheConfig,
    TraceID,
)


def _trace(start_pc: int, outcomes=()) -> Trace:
    length = 4
    insts = tuple(Instruction(Opcode.NOP) for _ in range(length))
    pcs = tuple(start_pc + 4 * i for i in range(length))
    return Trace(trace_id=TraceID(start_pc, tuple(outcomes)),
                 instructions=insts, pcs=pcs,
                 next_pc=start_pc + 4 * length,
                 ends_in_call=False, ends_in_return=False)


class TestTraceCacheConfig:
    def test_paper_size_range(self):
        # Paper: 64 entries (4KB) up to 1024 entries (64KB).
        assert TraceCacheConfig(entries=64).size_bytes == 4 * 1024
        assert TraceCacheConfig(entries=1024).size_bytes == 64 * 1024
        assert BYTES_PER_ENTRY == 64

    def test_entries_must_divide_ways(self):
        with pytest.raises(ValueError):
            TraceCacheConfig(entries=63, ways=2)


class TestTraceCacheBehaviour:
    def test_insert_lookup(self):
        cache = TraceCache(TraceCacheConfig(entries=64))
        trace = _trace(0x1000)
        cache.insert(trace)
        assert cache.lookup(trace.trace_id) is trace
        assert cache.stats.hits == 1

    def test_same_start_different_outcomes_coexist(self):
        """Distinct paths through the same code are distinct entries —
        the working-set amplification that motivates the paper."""
        cache = TraceCache(TraceCacheConfig(entries=64))
        a = _trace(0x1000, outcomes=(True,))
        b = _trace(0x1000, outcomes=(False,))
        cache.insert(a)
        cache.insert(b)
        assert cache.lookup(a.trace_id) is a
        assert cache.lookup(b.trace_id) is b

    def test_capacity_eviction(self):
        cache = TraceCache(TraceCacheConfig(entries=4, ways=2))
        traces = [_trace(0x1000 + 0x40 * i) for i in range(12)]
        evicted = 0
        for trace in traces:
            if cache.insert(trace) is not None:
                evicted += 1
        assert cache.occupancy() <= 4
        assert evicted >= len(traces) - 4

    def test_contains_is_uncounted(self):
        cache = TraceCache(TraceCacheConfig(entries=64))
        trace = _trace(0x2000)
        cache.insert(trace)
        cache.contains(trace.trace_id)
        assert cache.stats.accesses == 0

    def test_resident_traces(self):
        cache = TraceCache(TraceCacheConfig(entries=64))
        # Stride chosen to land in distinct sets (no conflict evictions).
        traces = [_trace(0x1000 + 16 * i) for i in range(5)]
        for trace in traces:
            cache.insert(trace)
        assert set(t.trace_id for t in cache.resident_traces()) == \
            set(t.trace_id for t in traces)

    def test_residents_rebuild_the_lru_order(self):
        """resident_traces() lists each set least-recently used first,
        so a fresh cache rebuilt from it picks the same next victim in
        every set (the dynamic partition's migration relies on this)."""
        config = TraceCacheConfig(entries=8, ways=2)
        cache = TraceCache(config)
        traces = [_trace(0x1000 + 4 * i) for i in range(8)]  # 2 per set
        for trace in traces:
            cache.insert(trace)
        for trace in traces[:4]:  # each set's first fill becomes MRU
            cache.lookup(trace.trace_id)
        rebuilt = TraceCache(config)
        for trace in cache.resident_traces():
            rebuilt.insert(trace)
        for i in range(4):
            probe = _trace(0x2000 + 4 * i)  # set i
            victim = cache.insert(probe)
            assert victim is traces[4 + i]
            assert rebuilt.insert(probe) is victim

    def test_lru_within_set(self):
        # Force everything into one set with a constant-index config.
        cache = TraceCache(TraceCacheConfig(entries=2, ways=2))
        a, b, c = (_trace(0x1000), _trace(0x2000), _trace(0x3000))
        cache.insert(a)
        cache.insert(b)
        cache.lookup(a.trace_id)       # refresh a
        cache.insert(c)                # evicts b (LRU)
        assert cache.lookup(a.trace_id) is a
        assert cache.lookup(b.trace_id) is None
