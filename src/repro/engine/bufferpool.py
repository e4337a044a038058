"""An LRU buffer-pool model.

The pool does not cache data (tables are in Python memory anyway); it
models *which pages would be resident* so the executor can distinguish
cheap cache hits from expensive disk reads. One pool serves all databases
an engine hosts — exactly the multi-tenant cache interference that makes
the paper's read-routing Option 1 (all reads of a database to one replica)
beat Option 3 (reads sprayed across replicas) in Figures 2-4: Option 1
keeps each database's working set hot on one machine, while Option 3
duplicates working sets across machines and evicts twice as much.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Tuple

PageId = Tuple[Hashable, ...]


@dataclass
class PoolStats:
    """Cumulative hit/miss counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class AccessReport:
    """Hits/misses charged to one batch of page accesses."""

    hits: int = 0
    misses: int = 0


class BufferPool:
    """Fixed-capacity LRU over page identifiers."""

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError(f"buffer pool needs >= 1 page: {capacity_pages}")
        self.capacity = capacity_pages
        self._pages: "OrderedDict[PageId, None]" = OrderedDict()
        self.stats = PoolStats()

    def __len__(self) -> int:
        return len(self._pages)

    def access(self, page: PageId) -> bool:
        """Touch one page; returns True on hit."""
        if page in self._pages:
            self._pages.move_to_end(page)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._pages[page] = None
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
            self.stats.evictions += 1
        return False

    def access_run(self, page: PageId, count: int) -> int:
        """Touch one page ``count`` times in a row; returns the hits.

        One LRU operation: only the first touch can miss (and evict),
        every later one finds the page it just made most recent — so the
        counters end where ``count`` calls to :meth:`access` leave them.
        """
        hits = count if self.access(page) else count - 1
        self.stats.hits += count - 1
        return hits

    def access_many(self, pages) -> AccessReport:
        """Touch a sequence of pages, returning the batch hit/miss split."""
        report = AccessReport()
        for page in pages:
            if self.access(page):
                report.hits += 1
            else:
                report.misses += 1
        return report

    def invalidate_prefix(self, prefix: Tuple[Hashable, ...]) -> int:
        """Drop every resident page whose id starts with ``prefix``.

        Used when a database is dropped or migrated off the machine.
        Returns the number of pages dropped.
        """
        doomed = [p for p in self._pages if p[: len(prefix)] == prefix]
        for page in doomed:
            del self._pages[page]
        return len(doomed)

    def resident(self, page: PageId) -> bool:
        """Non-mutating residency probe (no stats impact)."""
        return page in self._pages
