"""The trace cache: 2-way set-associative, LRU, indexed by trace identity.

Paper §4.1: "We vary the size of the trace cache from 64 entries up to
1024 entries (4 Kbytes to 64 Kbytes).  The trace cache is 2-way set
associative and uses LRU replacement."  One entry holds one trace of up
to 16 four-byte instructions, hence 64 bytes per entry for the area
accounting used in the Figure 5 equal-area comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

from repro.caches import SetAssociativeCache
from repro.trace.trace import MAX_TRACE_LENGTH, Trace, TraceID

BYTES_PER_ENTRY = MAX_TRACE_LENGTH * 4
"""Area accounting: one trace-cache entry is 64 bytes of storage."""


#: Set index: the start address folded with the branch outcomes,
#: computed once per :class:`TraceID` (``TraceID._index``).
_index_trace_id: Callable[[TraceID], int] = attrgetter("_index")


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
    """Primary trace cache."""

    def __init__(self, config: TraceCacheConfig | None = None) -> None:
        self.config = config or TraceCacheConfig()
        #: Optional :class:`repro.obs.ObsBus`; ``None`` (the default)
        #: keeps every instrumentation site a single dead branch.
        self.obs = None
        self._store: SetAssociativeCache[TraceID, Trace] = \
            SetAssociativeCache(
                num_sets=self.config.num_sets,
                ways=self.config.ways,
                index_fn=_index_trace_id,
            )

    # ------------------------------------------------------------------
    def lookup(self, trace_id: TraceID) -> Optional[Trace]:
        """Counted probe (updates LRU)."""
        return self._store.lookup(trace_id)

    def contains(self, trace_id: TraceID) -> bool:
        """Uncounted probe, used by the preconstruction dedup check."""
        return trace_id in self._store

    def insert(self, trace: Trace) -> Optional[Trace]:
        """Install a trace; returns the evicted trace, if any."""
        evicted = self._store.insert(trace.trace_id, trace)
        if self.obs:
            self.obs.emit("trace_cache", "fill",
                          pc=trace.trace_id.start_pc, len=len(trace))
            if evicted:
                victim = evicted[1]
                self.obs.emit("trace_cache", "evict",
                              pc=victim.trace_id.start_pc, len=len(victim))
        return evicted[1] if evicted else None

    # ------------------------------------------------------------------
    @property
    def stats(self):
        return self._store.stats

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
