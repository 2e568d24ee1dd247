"""Write-back buffer cache.

The base filesystem never touches the device directly for metadata: it goes
through this cache, which is one of the "performance-oriented components"
(Figure 2, left) that the shadow deliberately lacks.  The cache provides:

* read caching with LRU eviction (clean blocks only — dirty blocks are
  pinned until written back);
* write-back semantics: ``write`` dirties the cached copy, and the dirty
  set is flushed either by the write-back daemon, by a journal commit, or
  by an explicit ``sync``;
* hit/miss statistics consumed by the Figure 2 benchmark.

Because a detected error distrusts *all* base in-memory state, contained
reboot simply drops this whole object; the cache therefore keeps no state
that matters beyond the dirty set, and ``dirty_blocks`` is exactly the
"buffered update" the paper's op log protects.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.blockdev.device import BlockDevice


@dataclass
class BufferCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    # Dirty blocks force-written by memory pressure.  For the base this
    # bypasses the journal, so the write-back thresholds are sized to
    # keep it at zero; tests assert that it stays there.
    forced_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferCache:
    """LRU write-back cache of device blocks.

    ``capacity`` bounds the number of cached blocks.  Dirty blocks do not
    count against evictability: if every cached block is dirty and capacity
    is exceeded, the cache force-writes the least-recently-used dirty block
    back (this mirrors memory-pressure write-back).
    """

    def __init__(self, device: BlockDevice, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.device = device
        self.capacity = capacity
        self._blocks: OrderedDict[int, bytearray] = OrderedDict()
        self._dirty: set[int] = set()
        self.stats = BufferCacheStats()

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def dirty_blocks(self) -> frozenset[int]:
        """Block numbers with un-written-back modifications."""
        return frozenset(self._dirty)

    def dirty_count(self) -> int:
        """``len(dirty_blocks)`` without copying the set."""
        return len(self._dirty)

    def read(self, block: int) -> bytes:
        """Return block contents, from cache if present."""
        cached = self._blocks.get(block)
        if cached is not None:
            self.stats.hits += 1
            self._blocks.move_to_end(block)
            return bytes(cached)
        self.stats.misses += 1
        data = self.device.read_block(block)
        self._insert(block, bytearray(data))
        return data

    def write(self, block: int, data: bytes) -> None:
        """Buffer a write; the device is not touched until write-back."""
        if len(data) != self.device.block_size:
            raise ValueError(f"write of {len(data)} bytes; block size is {self.device.block_size}")
        if block in self._blocks:
            self._blocks[block][:] = data
            self._blocks.move_to_end(block)
            self._dirty.add(block)
        else:
            # Dirty before insert: insertion may trigger eviction, and the
            # brand-new dirty block must never be the victim.
            self._dirty.add(block)
            self._insert(block, bytearray(data))

    def peek(self, block: int) -> bytes | None:
        """Return cached contents without affecting LRU order, or None."""
        cached = self._blocks.get(block)
        return bytes(cached) if cached is not None else None

    def is_dirty(self, block: int) -> bool:
        return block in self._dirty

    def writeback(self, block: int) -> bool:
        """Write one dirty block to the device; returns whether it was dirty."""
        if block not in self._dirty:
            return False
        self.device.write_block(block, bytes(self._blocks[block]))
        self._dirty.discard(block)
        self.stats.writebacks += 1
        return True

    def writeback_some(self, limit: int) -> int:
        """Write back up to ``limit`` dirty blocks (LRU-first); return count."""
        victims = [b for b in self._blocks if b in self._dirty][:limit]
        for block in victims:
            self.writeback(block)
        return len(victims)

    def sync(self) -> int:
        """Write back every dirty block and flush the device."""
        count = 0
        for block in list(self._blocks):
            if self.writeback(block):
                count += 1
        self.device.flush()
        return count

    def invalidate(self, block: int) -> None:
        """Drop a block from the cache, discarding dirty data if present.

        Used by contained reboot (which distrusts the dirty data) and by
        tests; normal operation never discards dirty blocks.
        """
        self._blocks.pop(block, None)
        self._dirty.discard(block)

    def drop_all(self) -> None:
        """Drop the entire cache including dirty data (contained reboot)."""
        self._blocks.clear()
        self._dirty.clear()

    def _insert(self, block: int, data: bytearray) -> None:
        self._blocks[block] = data
        self._blocks.move_to_end(block)
        while len(self._blocks) > self.capacity:
            evicted = self._evict_one()
            if not evicted:
                break

    def _evict_one(self) -> bool:
        for block in self._blocks:
            if block not in self._dirty:
                del self._blocks[block]
                self.stats.evictions += 1
                return True
        # All dirty: force write-back of the LRU dirty block, then evict it.
        for block in self._blocks:
            self.writeback(block)
            del self._blocks[block]
            self.stats.evictions += 1
            self.stats.forced_evictions += 1
            return True
        return False
