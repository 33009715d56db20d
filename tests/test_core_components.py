"""Unit tests for start-point stack, regions, and preconstruction buffers."""

import pytest

from repro.caches import PrefetchCache
from repro.core import (
    PreconstructionBuffers,
    Region,
    RegionState,
    StartPoint,
    StartPointStack,
)
from repro.isa import Instruction, Opcode
from repro.trace import Trace, TraceID


def _trace(start_pc: int, length: int = 4) -> Trace:
    insts = tuple(Instruction(Opcode.NOP) for _ in range(length))
    pcs = tuple(start_pc + 4 * i for i in range(length))
    return Trace(trace_id=TraceID(start_pc, ()), instructions=insts,
                 pcs=pcs, next_pc=start_pc + 4 * length,
                 ends_in_call=False, ends_in_return=False)


class TestStartPointStack:
    def test_newest_first(self):
        stack = StartPointStack(depth=4)
        stack.push(0x100)
        stack.push(0x200)
        assert stack.pop_newest() == 0x200
        assert stack.pop_newest() == 0x100
        assert stack.pop_newest() is None

    def test_duplicate_top_suppressed(self):
        stack = StartPointStack(depth=4)
        assert stack.push(0x100)
        assert not stack.push(0x100)
        assert stack.duplicate_suppressed == 1
        assert len(stack) == 1

    def test_non_adjacent_duplicates_allowed(self):
        """Only the current top suppresses; an older identical entry is a
        fresh opportunity (the paper dedups against the top only)."""
        stack = StartPointStack(depth=4)
        stack.push(0x100)
        stack.push(0x200)
        assert stack.push(0x100)

    def test_overflow_discards_oldest(self):
        stack = StartPointStack(depth=2)
        stack.push(1)
        stack.push(2)
        stack.push(3)
        assert stack.overflow_discards == 1
        assert stack.entries() == (2, 3)

    def test_remove_reached(self):
        stack = StartPointStack(depth=4)
        stack.push(0x100)
        stack.push(0x200)
        assert stack.remove_reached(0x100)
        assert not stack.remove_reached(0x100)
        assert stack.entries() == (0x200,)

    def test_completed_memory_blocks_repush(self):
        stack = StartPointStack(depth=4, completed_memory=2)
        stack.mark_completed(0x300)
        assert not stack.push(0x300)
        assert stack.recently_completed(0x300)

    def test_completed_memory_is_bounded(self):
        stack = StartPointStack(depth=4, completed_memory=2)
        for pc in (1, 2, 3):
            stack.mark_completed(pc)
        assert not stack.recently_completed(1)
        assert stack.recently_completed(2)
        assert stack.recently_completed(3)


class TestRegion:
    def _region(self, seq=0, start=0x1000):
        return Region(seq=seq, start_pc=start,
                      prefetch_cache=PrefetchCache(64))

    def test_root_start_point_queued(self):
        region = self._region()
        point = region.pop_start_point()
        assert point == StartPoint(pc=0x1000)
        assert region.worklist_empty

    def test_visited_start_points_not_requeued(self):
        region = self._region()
        region.pop_start_point()
        assert region.push_start_point(StartPoint(pc=0x2000))
        assert not region.push_start_point(StartPoint(pc=0x2000))
        assert not region.push_start_point(StartPoint(pc=0x1000))  # root

    def test_same_pc_different_call_stack_is_distinct(self):
        region = self._region()
        assert region.push_start_point(StartPoint(0x2000, (0x100,)))
        assert region.push_start_point(StartPoint(0x2000, (0x200,)))

    def test_start_point_bound(self):
        region = Region(seq=0, start_pc=0x1000,
                        prefetch_cache=PrefetchCache(64), max_start_points=2)
        assert region.push_start_point(StartPoint(pc=0x2000))
        assert not region.push_start_point(StartPoint(pc=0x3000))

    def test_abandon_clears_worklist(self):
        region = self._region()
        region.abandon()
        assert region.state is RegionState.ABANDONED
        assert region.worklist_empty
        assert not region.push_start_point(StartPoint(pc=0x2000))


class TestPreconstructionBuffers:
    def test_probe_hit_and_take(self):
        buffers = PreconstructionBuffers(entries=8, ways=2)
        trace = _trace(0x1000)
        assert buffers.insert(trace, region_seq=0)
        assert buffers.probe(trace.trace_id) is trace
        assert buffers.take(trace.trace_id) is trace
        assert buffers.probe(trace.trace_id) is None
        assert buffers.stats.invalidations == 1

    def test_same_region_never_displaced(self):
        # One set only: two same-region traces fill it; the third fails.
        buffers = PreconstructionBuffers(entries=2, ways=2)
        assert buffers.insert(_trace(0x1000), region_seq=3)
        assert buffers.insert(_trace(0x2000), region_seq=3)
        assert not buffers.insert(_trace(0x3000), region_seq=3)
        assert buffers.stats.insert_failures == 1

    def test_lower_priority_region_displaced(self):
        priorities = {1: (0, 1), 2: (1, 2)}  # region 1 past, region 2 active
        buffers = PreconstructionBuffers(entries=2, ways=2,
                                         priority_fn=priorities.__getitem__)
        old = _trace(0x1000)
        buffers.insert(old, region_seq=1)
        buffers.insert(_trace(0x2000), region_seq=1)
        assert buffers.insert(_trace(0x3000), region_seq=2)
        assert buffers.stats.displaced == 1
        # One of region 1's traces is gone.
        remaining = [t.trace_id for t in buffers.resident_traces()]
        assert TraceID(0x3000, ()) in remaining
        assert len(remaining) == 2

    def test_reinsert_same_id_refreshes(self):
        buffers = PreconstructionBuffers(entries=4, ways=2)
        trace = _trace(0x1000)
        buffers.insert(trace, region_seq=0)
        assert buffers.insert(_trace(0x1000), region_seq=1)
        assert buffers.occupancy() == 1

    def test_contains_is_uncounted(self):
        buffers = PreconstructionBuffers(entries=4, ways=2)
        trace = _trace(0x1000)
        buffers.insert(trace, region_seq=0)
        assert buffers.contains(trace.trace_id)
        assert buffers.stats.probes == 0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            PreconstructionBuffers(entries=5, ways=2)
