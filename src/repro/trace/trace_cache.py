"""The trace cache: 2-way set-associative, LRU, indexed by trace identity.

Paper §4.1: "We vary the size of the trace cache from 64 entries up to
1024 entries (4 Kbytes to 64 Kbytes).  The trace cache is 2-way set
associative and uses LRU replacement."  One entry holds one trace of up
to 16 four-byte instructions, hence 64 bytes per entry for the area
accounting used in the Figure 5 equal-area comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.caches import CacheStats, SetAssociativeCache
from repro.trace.trace import MAX_TRACE_LENGTH, Trace, TraceID

BYTES_PER_ENTRY = MAX_TRACE_LENGTH * 4
"""Area accounting: one trace-cache entry is 64 bytes of storage."""


@dataclass(frozen=True)
class TraceCacheConfig:
    entries: int = 512
    ways: int = 2

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.entries % self.ways:
            raise ValueError("entries must divide evenly into ways")

    @property
    def num_sets(self) -> int:
        return self.entries // self.ways

    @property
    def size_bytes(self) -> int:
        return self.entries * BYTES_PER_ENTRY


class TraceCache:
    """Primary trace cache.

    A trace's set is ``TraceID._index`` (the start address folded with
    the branch outcomes, computed once per identity) modulo the set
    count.
    """

    def __init__(self, config: TraceCacheConfig | None = None) -> None:
        self.config = config or TraceCacheConfig()
        #: Optional :class:`repro.obs.ObsBus`; ``None`` (the default)
        #: keeps every instrumentation site a single dead branch.
        self.obs = None
        self._store: SetAssociativeCache[TraceID, Trace] = \
            SetAssociativeCache(num_sets=self.config.num_sets,
                                ways=self.config.ways)
        self._sets = self._store.sets
        self._num_sets = self._store.num_sets
        #: Counted probes (:meth:`lookup` only).
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def lookup(self, trace_id: TraceID) -> Optional[Trace]:
        """Counted probe (updates LRU)."""
        stats = self.stats
        stats.accesses += 1
        entries = self._sets[trace_id._index % self._num_sets]
        trace = entries.pop(trace_id, None)
        if trace is None:
            stats.misses += 1
            return None
        stats.hits += 1
        entries[trace_id] = trace  # a hit becomes the most recent
        return trace

    def contains(self, trace_id: TraceID) -> bool:
        """Uncounted probe, used by the preconstruction dedup check."""
        return trace_id in self._sets[trace_id._index % self._num_sets]

    def insert(self, trace: Trace) -> Optional[Trace]:
        """Install a trace; returns the evicted trace, if any."""
        trace_id = trace.trace_id
        evicted = self._store.insert(trace_id, trace, trace_id._index)
        if self.obs:
            self.obs.emit("trace_cache", "fill",
                          pc=trace_id.start_pc, len=len(trace))
            if evicted:
                victim = evicted[1]
                self.obs.emit("trace_cache", "evict",
                              pc=victim.trace_id.start_pc, len=len(victim))
        return evicted[1] if evicted else None

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        return self.config.size_bytes

    def occupancy(self) -> int:
        return self._store.occupancy()

    def resident_traces(self) -> list[Trace]:
        """Resident traces, set by set, each set least-recently used
        first: inserting them in this order into an empty cache of the
        same geometry rebuilds every set's LRU order."""
        return [trace for _, trace in self._store.items()]
