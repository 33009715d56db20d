"""Cache substrate: LRU replacement, set-associative store, I-cache,
fill-up prefetch caches, and the perfect L2."""

from repro.caches.dcache import DataCache, DCacheConfig, DCacheStats
from repro.caches.icache import (
    FetchTraffic,
    ICacheConfig,
    InstructionCache,
)
from repro.caches.l2 import PerfectL2
from repro.caches.prefetch_cache import PrefetchCache
from repro.caches.replacement import LRU
from repro.caches.setassoc import CacheStats, SetAssociativeCache, stable_index

__all__ = [
    "DataCache", "DCacheConfig", "DCacheStats",
    "FetchTraffic", "ICacheConfig", "InstructionCache", "PerfectL2",
    "PrefetchCache", "LRU", "CacheStats", "SetAssociativeCache",
    "stable_index",
]
