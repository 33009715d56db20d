"""Preconstruction regions and their worklists (paper §2.1, §3.4).

A *region* is the unit of preconstruction effort: it owns one prefetch
cache, a worklist of trace start points, and a visited set that keeps
the breadth-first traversal of the dynamic execution tree from
re-expanding the same start point.

Worklist entries carry the constructor's view of the call stack at that
point, because a region's traversal may descend through procedure calls
and must be able to resolve the matching returns ("our trace algorithm
terminates preconstruction at jump indirect instructions (the target is
unknown)" — returns whose call was observed *inside* the region are not
unknown, so traversal continues through them).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.caches import PrefetchCache


@dataclass(frozen=True, slots=True)
class StartPoint:
    """A trace start point inside a region.

    ``call_stack`` is the tuple of return addresses the region traversal
    has entered through (innermost last).

    Start points key the regions' visited sets and the walk-script
    roots, so the hash is computed once, at construction, as
    :class:`~repro.trace.TraceID` does; equality still compares both
    fields.
    """

    pc: int
    call_stack: tuple[int, ...] = ()
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.pc, self.call_stack)))

    def __hash__(self) -> int:
        return self._hash


class RegionState(enum.Enum):
    ACTIVE = "active"
    COMPLETED = "completed"    # worklist drained or resource bound hit
    ABANDONED = "abandoned"    # processor caught up


_ACTIVE = RegionState.ACTIVE


class Region:
    """One preconstruction region."""

    def __init__(self, seq: int, start_pc: int,
                 prefetch_cache: PrefetchCache,
                 max_start_points: int = 64) -> None:
        self.seq = seq
        self.start_pc = start_pc
        self.prefetch_cache = prefetch_cache
        self.state = RegionState.ACTIVE
        self.max_start_points = max_start_points
        self._worklist: deque[StartPoint] = deque()
        self._visited: set[StartPoint] = set()
        self.traces_built = 0
        self.buffer_failures = 0
        self.fetch_bound_hit = False
        root = StartPoint(pc=start_pc)
        self._worklist.append(root)
        self._visited.add(root)

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self.state is RegionState.ACTIVE

    # ------------------------------------------------------------------
    def push_start_point(self, point: StartPoint) -> bool:
        """Queue a new trace start point unless already expanded/bounded."""
        if self.state is not _ACTIVE:
            return False
        if point in self._visited:
            return False
        if len(self._visited) >= self.max_start_points:
            return False
        self._visited.add(point)
        self._worklist.append(point)
        return True

    def pop_start_point(self) -> Optional[StartPoint]:
        if self._worklist:
            return self._worklist.popleft()
        return None

    @property
    def worklist_empty(self) -> bool:
        return not self._worklist

    # ------------------------------------------------------------------
    def complete(self) -> None:
        if self.active:
            self.state = RegionState.COMPLETED
            self._worklist.clear()

    def abandon(self) -> None:
        """Processor caught up: stop work (already-built traces remain)."""
        if self.active:
            self.state = RegionState.ABANDONED
            self._worklist.clear()
