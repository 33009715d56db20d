"""Cache substrate: set-associative LRU store, I-cache, D-cache and
fill-up prefetch caches."""

from repro.caches.dcache import DataCache, DCacheConfig, DCacheStats
from repro.caches.icache import (
    FetchTraffic,
    ICacheConfig,
    InstructionCache,
)
from repro.caches.prefetch_cache import PrefetchCache
from repro.caches.setassoc import CacheStats, SetAssociativeCache

__all__ = [
    "DataCache", "DCacheConfig", "DCacheStats",
    "FetchTraffic", "ICacheConfig", "InstructionCache",
    "PrefetchCache", "CacheStats", "SetAssociativeCache",
]
