"""Preconstruction buffers (paper §3.1).

A 2-way set-associative structure, organised like the primary trace
cache and probed in parallel with it.  Differences from the trace
cache:

* every resident trace is tagged with the region that produced it;
* replacement follows **region priority**: active regions beat past
  regions, and among actives the more recent region wins ("The more
  recent the active region, the higher its relative priority");
* "A trace generated for a region will not displace an existing trace
  from the same region" — when every candidate way in the set belongs
  to the inserting region, the allocation *fails*; this failure is the
  primary resource bound on a region's preconstruction effort;
* a hit promotes the trace into the primary trace cache and invalidates
  the buffer entry (the caller performs the promotion; the buffer
  exposes :meth:`take`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.trace import Trace, TraceID
from repro.trace.trace_cache import BYTES_PER_ENTRY


@dataclass
class _BufferLine:
    trace: Trace
    region_seq: int


@dataclass
class PreconBufferStats:
    probes: int = 0
    hits: int = 0
    inserts: int = 0
    insert_failures: int = 0
    displaced: int = 0
    invalidations: int = 0


class PreconstructionBuffers:
    """Region-priority trace buffer array."""

    def __init__(self, entries: int = 256, ways: int = 2,
                 priority_fn: Optional[Callable[[int], tuple]] = None) -> None:
        if entries <= 0 or entries % ways:
            raise ValueError("entries must divide evenly into ways")
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        #: Maps a region sequence number to its priority tuple; injected
        #: by the preconstruction engine so buffer replacement can see
        #: region state (active vs past).  Defaults to seq order.
        self.priority_fn = priority_fn or (lambda seq: (0, seq))
        self._sets: list[dict[TraceID, _BufferLine]] = [
            {} for _ in range(self.num_sets)]
        self.stats = PreconBufferStats()
        #: Optional :class:`repro.obs.ObsBus` (attached by the engine);
        #: ``None`` keeps every site a single dead branch.
        self.obs = None

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        return self.entries * BYTES_PER_ENTRY

    def _set_for(self, trace_id: TraceID) -> dict[TraceID, _BufferLine]:
        return self._sets[trace_id._index % self.num_sets]

    # ------------------------------------------------------------------
    def probe(self, trace_id: TraceID) -> Optional[Trace]:
        """Parallel probe with the trace cache (counted, non-destructive)."""
        self.stats.probes += 1
        line = self._set_for(trace_id).get(trace_id)
        if self.obs:
            self.obs.emit("buffers", "probe", hit=line is not None)
        if line is None:
            return None
        self.stats.hits += 1
        return line.trace

    def contains(self, trace_id: TraceID) -> bool:
        """Uncounted presence check (dedup before construction effort)."""
        return trace_id in self._set_for(trace_id)

    def take(self, trace_id: TraceID) -> Optional[Trace]:
        """Remove and return a trace (promotion into the trace cache)."""
        line = self._set_for(trace_id).pop(trace_id, None)
        if line is None:
            return None
        self.stats.invalidations += 1
        if self.obs:
            self.obs.emit("buffers", "take", occupancy=self.occupancy())
        return line.trace

    # ------------------------------------------------------------------
    def insert(self, trace: Trace, region_seq: int) -> bool:
        """Allocate a buffer for ``trace`` on behalf of region ``region_seq``.

        Returns ``False`` when allocation fails (all ways in the set
        already hold traces of the same region) — the region resource
        bound.  Re-inserting an identical trace id refreshes it in place.
        """
        target_set = self._set_for(trace.trace_id)
        if trace.trace_id in target_set:
            target_set[trace.trace_id] = _BufferLine(trace, region_seq)
            return True
        if len(target_set) < self.ways:
            target_set[trace.trace_id] = _BufferLine(trace, region_seq)
            self.stats.inserts += 1
            if self.obs:
                self.obs.emit("buffers", "insert", region=region_seq,
                              displaced=False, occupancy=self.occupancy())
            return True
        # Full set: evict the lowest-priority line not owned by us.
        candidates = [(self.priority_fn(line.region_seq), tid)
                      for tid, line in target_set.items()
                      if line.region_seq != region_seq]
        if not candidates:
            self.stats.insert_failures += 1
            if self.obs:
                self.obs.emit("buffers", "insert_fail", region=region_seq)
            return False
        _, victim = min(candidates, key=lambda candidate: candidate[0])
        del target_set[victim]
        target_set[trace.trace_id] = _BufferLine(trace, region_seq)
        self.stats.inserts += 1
        self.stats.displaced += 1
        if self.obs:
            self.obs.emit("buffers", "insert", region=region_seq,
                          displaced=True, occupancy=self.occupancy())
        return True

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_traces(self) -> list[Trace]:
        return [line.trace for s in self._sets for line in s.values()]

    def resident_with_regions(self) -> list[tuple[Trace, int]]:
        """Resident (trace, owning-region-seq) pairs, for migration
        during dynamic repartitioning."""
        return [(line.trace, line.region_seq)
                for s in self._sets for line in s.values()]
