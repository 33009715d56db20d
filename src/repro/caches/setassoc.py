"""Generic set-associative cache keyed by arbitrary hashable tags.

Used directly by the instruction cache (keys are line addresses) and by
the trace cache / preconstruction buffers (keys are trace identities).
The index function is pluggable so trace structures can index by a hash
of start address and branch outcomes, as the paper describes.

Tag match is O(1): alongside the per-way line array, each set keeps a
``key -> way`` dict mirror, so a probe is a single dict lookup instead
of an associative scan.  The line array remains the ground truth the
LRU order is told about.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterator, Optional, TypeVar

from repro.caches.replacement import LRU

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


def stable_index(key: object) -> int:
    """Deterministic set-index hash for arbitrary keys.

    The builtin ``hash`` is deterministic for ints and tuples of ints
    but *salted per process* for ``str`` (PYTHONHASHSEED), so a cache
    whose keys ever contain a string would break the runner's
    byte-identical determinism contract.  This function is stable
    across processes: ints map to themselves (address-style keys keep
    their natural set distribution) and everything else goes through
    CRC-32 of a canonical encoding.
    """
    if isinstance(key, int):
        return key
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, (tuple, frozenset)):
        items = sorted(key) if isinstance(key, frozenset) else key
        acc = 0x811C9DC5
        for item in items:
            acc = ((acc ^ (stable_index(item) & 0xFFFFFFFF))
                   * 0x01000193) & 0xFFFFFFFF
        return acc
    return zlib.crc32(repr(key).encode("utf-8"))


@dataclass
class CacheStats:
    """Access counters maintained by :class:`SetAssociativeCache`."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class _Line(Generic[K, V]):
    __slots__ = ("valid", "key", "value")

    def __init__(self) -> None:
        self.valid = False
        self.key: Optional[K] = None
        self.value: Optional[V] = None


class SetAssociativeCache(Generic[K, V]):
    """A set-associative store of key -> value with LRU replacement.

    ``index_fn`` maps a key to its set index (any int; reduced modulo
    the set count).  The default is :func:`stable_index`, which is
    deterministic across processes regardless of PYTHONHASHSEED;
    address-based caches pass an explicit line-index function.
    """

    def __init__(self, num_sets: int, ways: int,
                 index_fn: Optional[Callable[[K], int]] = None) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self._index_fn = index_fn if index_fn is not None else stable_index
        self.lru = LRU(num_sets, ways)
        self._sets = [[_Line() for _ in range(ways)] for _ in range(num_sets)]
        # key -> way mirror of each set's valid lines (O(1) tag match).
        self._maps: list[dict[K, int]] = [{} for _ in range(num_sets)]
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.num_sets * self.ways

    def set_index(self, key: K) -> int:
        return self._index_fn(key) % self.num_sets

    # ------------------------------------------------------------------
    def lookup(self, key: K) -> Optional[V]:
        """Probe for ``key``; counts the access and updates recency."""
        stats = self.stats
        stats.accesses += 1
        set_index = self._index_fn(key) % self.num_sets
        way = self._maps[set_index].get(key)
        if way is not None:
            stats.hits += 1
            self.lru.on_access(set_index, way)
            return self._sets[set_index][way].value
        stats.misses += 1
        return None

    def peek(self, key: K) -> Optional[V]:
        """Probe without touching counters or recency (for dedup checks)."""
        set_index = self._index_fn(key) % self.num_sets
        way = self._maps[set_index].get(key)
        if way is None:
            return None
        return self._sets[set_index][way].value

    def __contains__(self, key: K) -> bool:
        set_index = self._index_fn(key) % self.num_sets
        return key in self._maps[set_index]

    # ------------------------------------------------------------------
    def insert(self, key: K, value: V) -> Optional[tuple[K, V]]:
        """Install ``key`` -> ``value``; returns the evicted pair, if any.

        Inserting an existing key overwrites it in place.
        """
        set_index = self._index_fn(key) % self.num_sets
        ways = self._sets[set_index]
        key_map = self._maps[set_index]
        way = key_map.get(key)
        if way is not None:
            ways[way].value = value
            self.lru.on_fill(set_index, way)
            return None
        for way, line in enumerate(ways):
            if not line.valid:
                line.valid, line.key, line.value = True, key, value
                key_map[key] = way
                self.lru.on_fill(set_index, way)
                self.stats.fills += 1
                return None
        way = self.lru.victim(set_index)
        line = ways[way]
        evicted = (line.key, line.value)
        del key_map[line.key]
        line.key, line.value = key, value
        key_map[key] = way
        self.lru.on_fill(set_index, way)
        self.stats.fills += 1
        self.stats.evictions += 1
        return evicted  # type: ignore[return-value]

    def invalidate(self, key: K) -> bool:
        """Drop ``key`` if present; returns whether it was present.

        The LRU order is notified so the freed way becomes the set's
        preferred victim — without this, its recency state goes stale
        and the next victim choice after an invalidate+refill can evict
        a live line instead.
        """
        set_index = self._index_fn(key) % self.num_sets
        way = self._maps[set_index].pop(key, None)
        if way is None:
            return False
        line = self._sets[set_index][way]
        line.valid, line.key, line.value = False, None, None
        self.lru.on_invalidate(set_index, way)
        return True

    def clear(self) -> None:
        for set_index, ways in enumerate(self._sets):
            for way, line in enumerate(ways):
                if line.valid:
                    line.valid, line.key, line.value = False, None, None
                    self.lru.on_invalidate(set_index, way)
            self._maps[set_index].clear()

    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[K, V]]:
        """Yield all resident (key, value) pairs."""
        for ways in self._sets:
            for line in ways:
                if line.valid:
                    yield line.key, line.value  # type: ignore[misc]

    def occupancy(self) -> int:
        return sum(1 for _ in self.items())
