"""The page cache.

File data lives here between a ``write`` and its write-back, keyed by
``(ino, logical_block)``.  Three properties matter to RAE:

* **the gap** — dirty pages are application-visible state that is not yet
  on disk, which is exactly what the op log protects;
* **survival across contained reboot** — §2.3: "The data pages are shared
  between the base and the shadow because only applications can detect
  their corruption."  Contained reboot discards every *metadata* cache
  but calls :meth:`PageCache.detach`/:meth:`attach` to carry data pages
  across, and the shadow reads them (read-only) when replaying reads of
  not-yet-persisted data;
* **read-ahead** — a sequential-read heuristic that exists purely as a
  base-side performance feature, to make the Figure 2 contrast honest.

The cache owns the dirty set: every dirty transition (``install``,
:meth:`PageCache.mark_dirty`, ``mark_clean``, ``drop_ino``, ``detach``/
``attach``, ``drop_all``) goes through it and keeps ``_dirty`` in step
with the pages' ``dirty`` flags.  :meth:`PageCache.dirty_count` is
therefore O(1), so the write-back tick after every op costs nothing
proportional to the cache size.  ``Page.dirty`` stays readable, but only
this class writes it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import InvariantViolation
from repro.ondisk.layout import BLOCK_SIZE


@dataclass
class Page:
    ino: int
    logical: int
    data: bytearray
    dirty: bool = False


@dataclass
class PageCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    readahead_loads: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PageCache:
    """LRU page cache with dirty tracking and a read-ahead window.

    The cache itself never touches the device: the filesystem supplies
    data on miss and consumes dirty pages at write-back.  This keeps all
    allocation policy (delayed allocation!) out of the cache.
    """

    def __init__(self, capacity_pages: int = 4096, readahead_window: int = 4):
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity_pages
        self.readahead_window = readahead_window
        self._pages: OrderedDict[tuple[int, int], Page] = OrderedDict()
        self._last_read: dict[int, int] = {}  # ino -> last logical read (for read-ahead)
        self._dirty: set[tuple[int, int]] = set()  # keys of resident dirty pages
        self.stats = PageCacheStats()

    def __len__(self) -> int:
        return len(self._pages)

    def lookup(self, ino: int, logical: int) -> Page | None:
        key = (ino, logical)
        page = self._pages.get(key)
        if page is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._pages.move_to_end(key)
        return page

    def install(self, ino: int, logical: int, data: bytes, dirty: bool) -> Page:
        """Insert (or overwrite) a page."""
        if len(data) != BLOCK_SIZE:
            raise ValueError(f"page must be {BLOCK_SIZE} bytes, got {len(data)}")
        key = (ino, logical)
        page = self._pages.get(key)
        if page is None:
            page = Page(ino=ino, logical=logical, data=bytearray(data), dirty=dirty)
            self._pages[key] = page
        else:
            page.data[:] = data
            page.dirty = page.dirty or dirty
        if page.dirty:
            self._dirty.add(key)
        self._pages.move_to_end(key)
        self._evict_excess()
        return page

    def readahead_plan(self, ino: int, logical: int, file_blocks: int) -> list[int]:
        """Logical blocks to prefetch given a read at ``logical``.

        Sequential pattern (this read follows the previous one) extends
        the window; random access returns nothing.  The filesystem loads
        the planned blocks and installs them via :meth:`install`.
        """
        previous = self._last_read.get(ino)
        self._last_read[ino] = logical
        if previous is None or logical != previous + 1:
            return []
        plan = []
        for ahead in range(1, self.readahead_window + 1):
            candidate = logical + ahead
            if candidate >= file_blocks:
                break
            if (ino, candidate) not in self._pages:
                plan.append(candidate)
        self.stats.readahead_loads += len(plan)
        return plan

    def dirty_pages(self) -> list[Page]:
        """Dirty pages in (ino, logical) order — deterministic write-back."""
        return [self._pages[key] for key in sorted(self._dirty)]

    def dirty_count(self) -> int:
        return len(self._dirty)

    def mark_dirty(self, page: Page) -> None:
        """Dirty ``page`` after the caller changed its data in place.

        A page evicted (clean) between lookup and modification is adopted
        again, dirty, so the change still reaches write-back; the cache
        may then run over capacity until write-back, as it does when every
        page is dirty.  A different page cached under the same key would
        mean two copies of one block, and raises.
        """
        key = (page.ino, page.logical)
        resident = self._pages.get(key)
        if resident is None:
            self._pages[key] = page
        elif resident is not page:
            raise InvariantViolation(f"page {key} marked dirty is not the cached copy", check="page-alias")
        page.dirty = True
        self._dirty.add(key)

    def mark_clean(self, ino: int, logical: int) -> None:
        page = self._pages.get((ino, logical))
        if page is not None:
            page.dirty = False
            self._dirty.discard((ino, logical))

    def drop_ino(self, ino: int, from_logical: int = 0) -> None:
        """Drop pages of one file at/after ``from_logical`` (truncate, unlink)."""
        victims = [key for key in self._pages if key[0] == ino and key[1] >= from_logical]
        for key in victims:
            del self._pages[key]
            self._dirty.discard(key)
        self._last_read.pop(ino, None)

    def detach(self) -> dict[tuple[int, int], Page]:
        """Contained reboot: hand the pages out, clean, to survive the reset.

        The pages carry over as a *read* cache: the authoritative dirty
        copies arrive via the hand-off, so preserved dirtiness is cleared
        — a failed recovery must never flush distrusted buffered data.
        """
        pages = self._pages
        for key in self._dirty:
            pages[key].dirty = False
        self._pages = OrderedDict()
        self._dirty = set()
        self._last_read = {}
        return dict(pages)

    def attach(self, pages: dict[tuple[int, int], Page]) -> None:
        """Re-adopt pages preserved across a contained reboot."""
        for key in sorted(pages):
            page = pages[key]
            self._pages[key] = page
            if page.dirty:
                self._dirty.add(key)
        self._evict_excess()

    def drop_all(self) -> None:
        self._pages.clear()
        self._dirty.clear()
        self._last_read.clear()

    def _evict_excess(self) -> None:
        while len(self._pages) > self.capacity:
            victim = None
            for key in self._pages:
                if key not in self._dirty:
                    victim = key
                    break
            if victim is None:
                return  # all dirty; stay over capacity until write-back
            del self._pages[victim]
            self.stats.evictions += 1
