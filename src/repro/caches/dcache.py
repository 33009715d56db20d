"""Data cache timing model (paper §4.1).

"We model a four ported level-one data cache of which any single
processing element can only access two ports per cycle.  The data cache
is non-blocking and is write-back.  [64-byte lines, 4-way, 64 KB],
two cycle hit latency, and the level-two cache has ten cycle hit
latency."

The model is timing-only: tag state determines hit/miss, ports
arbitrate per cycle, and misses fill from the perfect L2.  Write-back
is modelled as dirty-bit accounting (writebacks count traffic but — L2
being perfect — add no extra stall to the requester).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.setassoc import SetAssociativeCache


@dataclass(frozen=True)
class DCacheConfig:
    size_bytes: int = 64 * 1024
    ways: int = 4
    line_bytes: int = 64
    hit_latency: int = 2
    miss_latency: int = 10        # perfect L2 hit
    ports: int = 4                # total ports per cycle
    ports_per_pe: int = 2

    @property
    def num_sets(self) -> int:
        sets, rem = divmod(self.size_bytes, self.ways * self.line_bytes)
        if rem or sets <= 0:
            raise ValueError("dcache geometry does not divide evenly")
        return sets


@dataclass
class DCacheStats:
    loads: int = 0
    stores: int = 0
    load_misses: int = 0
    store_misses: int = 0
    writebacks: int = 0
    port_stall_cycles: int = 0

    @property
    def accesses(self) -> int:
        return self.loads + self.stores

    @property
    def misses(self) -> int:
        return self.load_misses + self.store_misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class DataCache:
    """Timing-only L1 data cache with per-cycle port arbitration."""

    def __init__(self, config: DCacheConfig | None = None) -> None:
        self.config = config or DCacheConfig()
        # Keyed by line number; the payload is the dirty bit.
        self._lines: SetAssociativeCache[int, bool] = SetAssociativeCache(
            num_sets=self.config.num_sets, ways=self.config.ways)
        self._sets = self._lines.sets
        self._num_sets = self._lines.num_sets
        #: Port accesses per cycle, and per ``(pe, cycle)``; a cycle
        #: with none is absent.
        self._port_load: dict[int, int] = {}
        self._pe_port_load: dict[tuple[int, int], int] = {}
        self.stats = DCacheStats()

    # ------------------------------------------------------------------
    def access(self, addr: int, is_store: bool, cycle: int,
               pe: int = 0) -> int:
        """Access the cache at ``cycle`` from ``pe``.

        Returns the completion latency relative to ``cycle`` (including
        any port-arbitration delay).  Misses fill the line; a dirty
        eviction counts a writeback.
        """
        config = self.config
        # The first cycle from ``cycle`` with a free port for ``pe``.
        port_load = self._port_load
        pe_port_load = self._pe_port_load
        issue = cycle
        while (port_load.get(issue, 0) >= config.ports
               or pe_port_load.get((pe, issue), 0) >= config.ports_per_pe):
            issue += 1
        port_load[issue] = port_load.get(issue, 0) + 1
        key = (pe, issue)
        pe_port_load[key] = pe_port_load.get(key, 0) + 1
        self.stats.port_stall_cycles += issue - cycle
        line = addr // config.line_bytes
        entries = self._sets[line % self._num_sets]
        dirty = entries.pop(line, None)
        if is_store:
            self.stats.stores += 1
        else:
            self.stats.loads += 1
        if dirty is not None:
            # A hit becomes the most recent; a store sets the dirty bit.
            entries[line] = dirty or is_store
            return (issue - cycle) + config.hit_latency
        if is_store:
            self.stats.store_misses += 1
        else:
            self.stats.load_misses += 1
        evicted = self._lines.insert(line, is_store, line)
        if evicted is not None and evicted[1]:
            self.stats.writebacks += 1
        return (issue - cycle) + config.miss_latency
