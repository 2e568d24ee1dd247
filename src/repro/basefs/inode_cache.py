"""The inode cache.

Decoded :class:`~repro.ondisk.inode.OnDiskInode` objects keyed by inode
number, with dirty tracking and LRU eviction of clean, unpinned entries.
Dirty inodes are the metadata half of the "buffered update" the op log
protects: they exist only here until a journal commit serializes them back
into their inode-table blocks.

Contained reboot drops this cache wholesale — a detected error means
nothing in it can be trusted — and the recovery hand-off repopulates it
from the shadow's output, entries marked dirty so the normal commit path
persists them (§3.2 "reuses its existing logic to place them into its
cache, marked as dirty").

The cache owns the dirty set: ``insert``, :meth:`InodeCache.mark_dirty`,
``clean``, ``remove`` and ``drop_all`` keep ``_dirty`` in step with the
slots' ``dirty`` flags, so :meth:`InodeCache.dirty_count` is O(1) and
:meth:`InodeCache.dirty_inodes` sorts only the dirty inode numbers.
``CachedInode.dirty`` stays readable, but only this class writes it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import InvariantViolation
from repro.ondisk.inode import OnDiskInode


@dataclass
class CachedInode:
    """One cache slot.  ``pins`` counts open fds + in-operation references;
    a pinned inode is never evicted."""

    ino: int
    inode: OnDiskInode
    dirty: bool = False
    pins: int = 0


@dataclass
class InodeCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class InodeCache:
    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._slots: OrderedDict[int, CachedInode] = OrderedDict()
        self._dirty: set[int] = set()  # inode numbers of resident dirty slots
        self.stats = InodeCacheStats()

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, ino: int) -> bool:
        return ino in self._slots

    def get(self, ino: int) -> CachedInode | None:
        slot = self._slots.get(ino)
        if slot is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._slots.move_to_end(ino)
        return slot

    def insert(self, ino: int, inode: OnDiskInode, dirty: bool = False) -> CachedInode:
        if ino in self._slots:
            raise ValueError(f"inode {ino} already cached")
        slot = CachedInode(ino=ino, inode=inode, dirty=dirty)
        self._slots[ino] = slot
        if dirty:
            self._dirty.add(ino)
        self._slots.move_to_end(ino)
        self._evict_excess()
        return slot

    def mark_dirty(self, slot: CachedInode | int) -> None:
        """Dirty a slot after the caller changed its inode in place.

        Given an inode number, the slot must be cached.  A slot evicted
        (clean) between lookup and modification is adopted again, dirty,
        so the change is still committed; the cache may then run over
        capacity until commit.  A different slot cached under the same
        inode number would mean two copies of one inode, and raises.
        """
        if isinstance(slot, int):
            resident = self._slots.get(slot)
            if resident is None:
                raise KeyError(f"inode {slot} not cached")
            slot = resident
        else:
            resident = self._slots.get(slot.ino)
            if resident is None:
                self._slots[slot.ino] = slot
            elif resident is not slot:
                raise InvariantViolation(f"inode {slot.ino} marked dirty is not the cached slot", check="inode-alias")
        slot.dirty = True
        self._dirty.add(slot.ino)

    def pin(self, ino: int) -> None:
        slot = self._slots.get(ino)
        if slot is None:
            raise KeyError(f"inode {ino} not cached")
        slot.pins += 1

    def unpin(self, ino: int) -> None:
        slot = self._slots.get(ino)
        if slot is None:
            raise KeyError(f"inode {ino} not cached")
        if slot.pins <= 0:
            raise ValueError(f"inode {ino} not pinned")
        slot.pins -= 1

    def dirty_inodes(self) -> list[CachedInode]:
        """Dirty slots in inode-number order (deterministic commit order)."""
        return [self._slots[ino] for ino in sorted(self._dirty)]

    def dirty_count(self) -> int:
        return len(self._dirty)

    def clean(self, ino: int) -> None:
        """Mark a slot clean after its table block was journaled."""
        slot = self._slots.get(ino)
        if slot is not None:
            slot.dirty = False
            self._dirty.discard(ino)

    def remove(self, ino: int) -> None:
        """Drop a slot (inode freed).  Dirty state is discarded — the
        caller has already recorded the free in the bitmaps."""
        self._slots.pop(ino, None)
        self._dirty.discard(ino)

    def drop_all(self) -> None:
        """Contained reboot: discard everything, dirty included."""
        self._slots.clear()
        self._dirty.clear()

    def _evict_excess(self) -> None:
        while len(self._slots) > self.capacity:
            victim = None
            for ino, slot in self._slots.items():
                if ino not in self._dirty and slot.pins == 0:
                    victim = ino
                    break
            if victim is None:
                return  # everything dirty/pinned: over-capacity until commit
            del self._slots[victim]
            self.stats.evictions += 1
