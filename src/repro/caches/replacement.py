"""LRU replacement for set-associative structures.

The paper's trace cache is 2-way LRU (§4.1), and the I-cache and
D-cache use the same policy, so LRU is the one policy of every
:class:`~repro.caches.SetAssociativeCache`: :class:`LRU` manages *one*
cache, is told about accesses, fills and invalidations per
(set, way), and nominates the victim way when a set is full.
"""

from __future__ import annotations


class LRU:
    """Least-recently-used victim selection, per set."""

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        # Per set: ways ordered most-recent-first.
        self._order = [list(range(ways)) for _ in range(num_sets)]

    def on_access(self, set_index: int, way: int) -> None:
        """A hit touched ``way`` of ``set_index``."""
        order = self._order[set_index]
        order.remove(way)
        order.insert(0, way)

    def on_fill(self, set_index: int, way: int) -> None:
        """``way`` of ``set_index`` was (re)filled."""
        self.on_access(set_index, way)

    def victim(self, set_index: int) -> int:
        """The way to evict from a full ``set_index``."""
        return self._order[set_index][-1]

    def on_invalidate(self, set_index: int, way: int) -> None:
        """``way`` of ``set_index`` was invalidated.

        The way is demoted to least-recent so an invalidated slot is
        reclaimed before any live line; keeping its stale recency would
        let a later victim choice evict a live line while the set still
        holds dead state.
        """
        order = self._order[set_index]
        order.remove(way)
        order.append(way)  # least-recent: next victim

    def recency_order(self, set_index: int) -> tuple[int, ...]:
        """Ways of ``set_index``, most-recent first (for tests)."""
        return tuple(self._order[set_index])
