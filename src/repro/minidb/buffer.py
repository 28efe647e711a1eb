"""LRU buffer pool with read accounting."""

from __future__ import annotations

from collections import OrderedDict

from repro.minidb.pager import Pager

__all__ = ["BufferPool"]


class BufferPool:
    """Caches pages of one :class:`Pager` with LRU eviction.

    ``logical_reads`` counts every page request; ``physical_reads`` counts
    cache misses (i.e. actual file reads). The stored procedures report
    both — physical reads are the stand-in for the paper's disk time.

    The most recently used page is kept aside as well: asking for it
    again (a scan reading a page's rows one call at a time) counts a
    logical read and returns it without touching the LRU order, which a
    ``move_to_end`` of the newest entry would leave as it is anyway.
    """

    def __init__(self, pager: Pager, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._pager = pager
        self.capacity = capacity
        self._cache: OrderedDict[int, bytes] = OrderedDict()
        self._newest_id = -1
        self._newest: bytes = b""
        self.logical_reads = 0
        self.physical_reads = 0

    def get(self, page_id: int) -> bytes:
        """Fetch a page, via cache when possible."""
        self.logical_reads += 1
        if page_id == self._newest_id:
            return self._newest
        data = self._cache.get(page_id)
        if data is not None:
            self._cache.move_to_end(page_id)
        else:
            data = self._pager.read_page(page_id)
            self.physical_reads += 1
            self._cache[page_id] = data
            if len(self._cache) > self.capacity:
                self._cache.popitem(last=False)
        self._newest_id = page_id
        self._newest = data
        return data

    def invalidate(self, page_id: int) -> None:
        """Drop a page from the cache (after an out-of-band write)."""
        self._cache.pop(page_id, None)
        if page_id == self._newest_id:
            self._newest_id = -1

    def clear(self) -> None:
        """Empty the cache (cold-start measurements)."""
        self._cache.clear()
        self._newest_id = -1

    def reset_counters(self) -> None:
        """Zero the read counters (per-query accounting)."""
        self.logical_reads = 0
        self.physical_reads = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of logical reads served from cache."""
        if self.logical_reads == 0:
            return 0.0
        return 1.0 - self.physical_reads / self.logical_reads
