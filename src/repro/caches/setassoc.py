"""Set-associative LRU store keyed by hashable tags.

Used by the instruction and data caches (keys are line addresses) and
by the trace cache (keys are trace identities).  Each caller passes the
function that maps a key to its integer set index: a line index for the
L1 caches, the folded start address and branch outcomes for the trace
cache, as the paper describes.

LRU is the one replacement policy of every cache in the paper's machine
(§4.1), so a set is one dict ordered least- to most-recently used: a hit
or a fill moves its key to the end, and a full set evicts its first key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterator, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    """Counted probes of a :class:`SetAssociativeCache`."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0


class SetAssociativeCache(Generic[K, V]):
    """A set-associative store of key -> value with LRU replacement.

    ``index_fn`` maps a key to its set index (any int; reduced modulo
    the set count).
    """

    def __init__(self, num_sets: int, ways: int,
                 index_fn: Callable[[K], int]) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self._index_fn = index_fn
        #: Per set: key -> value, least-recently used first.
        self._sets: list[dict[K, V]] = [{} for _ in range(num_sets)]
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def lookup(self, key: K) -> Optional[V]:
        """Probe for ``key``; counts the access and updates recency."""
        stats = self.stats
        stats.accesses += 1
        entries = self._sets[self._index_fn(key) % self.num_sets]
        if key in entries:
            stats.hits += 1
            value = entries[key] = entries.pop(key)
            return value
        stats.misses += 1
        return None

    def __contains__(self, key: K) -> bool:
        return key in self._sets[self._index_fn(key) % self.num_sets]

    def insert(self, key: K, value: V) -> Optional[tuple[K, V]]:
        """Install ``key`` -> ``value`` as its set's most recent entry;
        returns the evicted pair, if any.

        Inserting an existing key overwrites it and evicts nothing.
        """
        entries = self._sets[self._index_fn(key) % self.num_sets]
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
        for entries in self._sets:
            yield from entries.items()

    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)
