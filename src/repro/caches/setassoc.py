"""Set-associative LRU store.

Used by the instruction and data caches (keys are line numbers) and by
the trace cache (keys are trace identities).  The owner keeps one
integer set index per key and reduces it modulo the set count itself:
a line number for the L1 caches, the folded start address and branch
outcomes (``TraceID._index``) for the trace cache, as the paper
describes.

LRU is the one replacement policy of every cache in the paper's machine
(§4.1), so a set is one dict ordered least- to most-recently used: a hit
or a fill moves its key to the end, and a full set evicts its first key.
Owners probe ``sets[index % num_sets]`` directly (a hit re-adds its
key: ``entries[key] = entries.pop(key)``), so a probe on the hot path is
dict operations, not a chain of calls; :meth:`insert` holds the fill and
eviction rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Hashable, Iterator, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    """Counted probes of a cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0


class SetAssociativeCache(Generic[K, V]):
    """A set-associative store of key -> value with LRU replacement."""

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        #: Per set: key -> value, least-recently used first.
        self.sets: list[dict[K, V]] = [{} for _ in range(num_sets)]

    # ------------------------------------------------------------------
    def insert(self, key: K, value: V, index: int
               ) -> Optional[tuple[K, V]]:
        """Install ``key`` -> ``value`` as the most recent entry of set
        ``index`` (reduced modulo the set count); returns the evicted
        pair, if any.

        Inserting an existing key overwrites it and evicts nothing.
        """
        entries = self.sets[index % self.num_sets]
        evicted = None
        if key in entries:
            del entries[key]
        elif len(entries) == self.ways:
            victim = next(iter(entries))
            evicted = victim, entries.pop(victim)
        entries[key] = value
        return evicted

    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[K, V]]:
        """Yield every resident (key, value) pair, set by set, each set
        least-recently used first."""
        for entries in self.sets:
            yield from entries.items()

    def occupancy(self) -> int:
        return sum(len(entries) for entries in self.sets)
