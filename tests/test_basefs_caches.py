"""Tests for the base's cache components: dentry, inode, page caches."""

import pytest

from repro.basefs.dentry_cache import DentryCache
from repro.basefs.hooks import HookPoints
from repro.basefs.inode_cache import InodeCache
from repro.basefs.page_cache import PageCache
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.errors import FsError, InvariantViolation, KernelBug
from repro.fsck import Fsck
from repro.ondisk.inode import FileType, OnDiskInode, make_mode
from repro.ondisk.layout import BLOCK_SIZE
from repro.workloads import WorkloadGenerator, fileserver_profile
from tests.conftest import formatted_device


class TestDentryCache:
    def test_positive_lookup(self):
        cache = DentryCache()
        cache.insert(2, "a", 10)
        assert cache.lookup(2, "a") == 10
        assert cache.stats.hits == 1

    def test_negative_lookup(self):
        cache = DentryCache()
        cache.insert_negative(2, "ghost")
        assert cache.lookup(2, "ghost") == DentryCache.NEGATIVE
        assert cache.stats.negative_hits == 1

    def test_miss_returns_none(self):
        cache = DentryCache()
        assert cache.lookup(2, "nothing") is None
        assert cache.stats.misses == 1

    def test_insert_rejects_negative_via_positive_api(self):
        cache = DentryCache()
        with pytest.raises(ValueError):
            cache.insert(2, "a", 0)

    def test_invalidate_specific(self):
        cache = DentryCache()
        cache.insert(2, "a", 10)
        cache.invalidate(2, "a")
        assert cache.lookup(2, "a") is None
        assert cache.stats.invalidations == 1

    def test_invalidate_dir_sweeps(self):
        cache = DentryCache()
        cache.insert(2, "a", 10)
        cache.insert(2, "b", 11)
        cache.insert(3, "c", 12)
        cache.invalidate_dir(2)
        assert cache.lookup(2, "a") is None
        assert cache.lookup(3, "c") == 12

    def test_invalidate_ino_sweeps_targets(self):
        cache = DentryCache()
        cache.insert(2, "a", 10)
        cache.insert(3, "hard", 10)
        cache.invalidate_ino(10)
        assert cache.lookup(2, "a") is None
        assert cache.lookup(3, "hard") is None

    def test_lru_eviction(self):
        cache = DentryCache(capacity=2)
        cache.insert(2, "a", 10)
        cache.insert(2, "b", 11)
        cache.lookup(2, "a")  # a is now MRU
        cache.insert(2, "c", 12)
        assert cache.lookup(2, "b") is None
        assert cache.lookup(2, "a") == 10


class TestInodeCache:
    def make_inode(self):
        return OnDiskInode(mode=make_mode(FileType.REGULAR), nlink=1)

    def test_insert_get(self):
        cache = InodeCache()
        slot = cache.insert(5, self.make_inode())
        assert cache.get(5) is slot
        assert cache.stats.hits == 1

    def test_double_insert_rejected(self):
        cache = InodeCache()
        cache.insert(5, self.make_inode())
        with pytest.raises(ValueError):
            cache.insert(5, self.make_inode())

    def test_dirty_tracking_ordered(self):
        cache = InodeCache()
        cache.insert(9, self.make_inode())
        cache.insert(4, self.make_inode())
        cache.mark_dirty(9)
        cache.mark_dirty(4)
        assert [slot.ino for slot in cache.dirty_inodes()] == [4, 9]
        cache.clean(4)
        assert [slot.ino for slot in cache.dirty_inodes()] == [9]

    def test_pins_prevent_eviction(self):
        cache = InodeCache(capacity=2)
        cache.insert(1, self.make_inode())
        cache.pin(1)
        cache.insert(2, self.make_inode())
        cache.insert(3, self.make_inode())  # would evict LRU=1, but pinned
        assert 1 in cache and 2 not in cache

    def test_dirty_never_evicted(self):
        cache = InodeCache(capacity=1)
        cache.insert(1, self.make_inode(), dirty=True)
        cache.insert(2, self.make_inode(), dirty=True)
        assert 1 in cache and 2 in cache  # over capacity rather than lose dirty

    def test_unpin_validation(self):
        cache = InodeCache()
        cache.insert(1, self.make_inode())
        with pytest.raises(ValueError):
            cache.unpin(1)
        with pytest.raises(KeyError):
            cache.pin(99)

    def test_drop_all(self):
        cache = InodeCache()
        cache.insert(1, self.make_inode(), dirty=True)
        cache.drop_all()
        assert len(cache) == 0


class TestPageCache:
    def page(self, tag: int) -> bytes:
        return bytes([tag]) * BLOCK_SIZE

    def test_install_lookup(self):
        cache = PageCache()
        cache.install(5, 0, self.page(1), dirty=True)
        page = cache.lookup(5, 0)
        assert page is not None and page.dirty

    def test_dirty_pages_sorted(self):
        cache = PageCache()
        cache.install(5, 1, self.page(1), dirty=True)
        cache.install(4, 0, self.page(2), dirty=True)
        cache.install(5, 0, self.page(3), dirty=False)
        assert [(p.ino, p.logical) for p in cache.dirty_pages()] == [(4, 0), (5, 1)]

    def test_overwrite_keeps_dirty(self):
        cache = PageCache()
        cache.install(1, 0, self.page(1), dirty=True)
        cache.install(1, 0, self.page(2), dirty=False)
        assert cache.lookup(1, 0).dirty  # dirty is sticky until mark_clean

    def test_mark_clean(self):
        cache = PageCache()
        cache.install(1, 0, self.page(1), dirty=True)
        cache.mark_clean(1, 0)
        assert cache.dirty_count() == 0

    def test_eviction_spares_dirty(self):
        cache = PageCache(capacity_pages=2)
        cache.install(1, 0, self.page(1), dirty=True)
        cache.install(1, 1, self.page(2), dirty=False)
        cache.install(1, 2, self.page(3), dirty=False)
        assert cache.lookup(1, 0) is not None  # dirty survived
        assert len(cache) == 2

    def test_drop_ino_range(self):
        cache = PageCache()
        for logical in range(4):
            cache.install(7, logical, self.page(logical), dirty=True)
        cache.drop_ino(7, from_logical=2)
        assert cache.lookup(7, 1) is not None
        assert cache.lookup(7, 2) is None

    def test_readahead_sequential_only(self):
        cache = PageCache(readahead_window=2)
        assert cache.readahead_plan(1, 0, file_blocks=10) == []  # first access
        assert cache.readahead_plan(1, 1, file_blocks=10) == [2, 3]  # sequential
        assert cache.readahead_plan(1, 7, file_blocks=10) == []  # random jump

    def test_readahead_clamped_at_eof(self):
        cache = PageCache(readahead_window=4)
        cache.readahead_plan(1, 0, file_blocks=3)
        assert cache.readahead_plan(1, 1, file_blocks=3) == [2]

    def test_detach_attach_roundtrip(self):
        cache = PageCache()
        cache.install(1, 0, self.page(1), dirty=True)
        pages = cache.detach()
        assert len(cache) == 0
        cache.attach(pages)
        assert cache.lookup(1, 0) is not None

    def test_rejects_bad_page_size(self):
        cache = PageCache()
        with pytest.raises(ValueError):
            cache.install(1, 0, b"small", dirty=False)


# The O(n) rescans the caches' dirty sets replaced, kept as the oracle.


def rescan_dirty_pages(cache: PageCache) -> list:
    return [cache._pages[key] for key in sorted(cache._pages) if cache._pages[key].dirty]


def rescan_dirty_inodes(cache: InodeCache) -> list:
    return [cache._slots[ino] for ino in sorted(cache._slots) if cache._slots[ino].dirty]


def rescan_dirty_metadata_count(fs) -> int:
    return (
        len(fs.cache.dirty_blocks)
        + len(rescan_dirty_inodes(fs.inode_cache))
        + len(fs.alloc.dirty_block_groups)
        + len(fs.alloc.dirty_inode_groups)
    )


class TestDirtySets:
    """The caches own their dirty sets: every transition keeps the count
    and the sorted listings equal to a rescan of the ``dirty`` flags."""

    def page(self, tag: int) -> bytes:
        return bytes([tag]) * BLOCK_SIZE

    def make_inode(self):
        return OnDiskInode(mode=make_mode(FileType.REGULAR), nlink=1)

    @staticmethod
    def assert_pages_consistent(cache: PageCache) -> None:
        flagged = rescan_dirty_pages(cache)
        assert cache.dirty_pages() == flagged
        assert cache.dirty_count() == len(flagged)

    @staticmethod
    def assert_inodes_consistent(cache: InodeCache) -> None:
        flagged = rescan_dirty_inodes(cache)
        assert cache.dirty_inodes() == flagged
        assert cache.dirty_count() == len(flagged)

    def test_page_install_overwrite_is_sticky(self):
        cache = PageCache()
        cache.install(1, 0, self.page(1), dirty=True)
        cache.install(1, 0, self.page(2), dirty=False)
        assert cache.dirty_count() == 1
        cache.install(1, 1, self.page(3), dirty=False)
        cache.install(1, 1, self.page(4), dirty=True)
        assert [(p.ino, p.logical) for p in cache.dirty_pages()] == [(1, 0), (1, 1)]
        self.assert_pages_consistent(cache)

    def test_page_mark_dirty_and_clean(self):
        cache = PageCache()
        page = cache.install(3, 2, self.page(1), dirty=False)
        assert cache.dirty_count() == 0
        cache.mark_dirty(page)
        cache.mark_dirty(page)
        assert page.dirty and cache.dirty_count() == 1
        cache.mark_clean(3, 2)
        assert not page.dirty and cache.dirty_count() == 0
        cache.mark_clean(9, 9)  # absent: no-op
        self.assert_pages_consistent(cache)

    def test_page_mark_dirty_of_evicted_page_readopts_it(self):
        cache = PageCache(capacity_pages=1)
        stale = cache.install(1, 0, self.page(1), dirty=False)
        cache.install(1, 1, self.page(2), dirty=False)  # evicts (1, 0)
        cache.mark_dirty(stale)
        assert stale.dirty and cache.dirty_pages() == [stale]
        assert len(cache) == 2  # over capacity until write-back
        self.assert_pages_consistent(cache)
        cache.install(1, 2, self.page(3), dirty=False)  # evicts clean pages only
        assert cache.dirty_pages() == [stale]
        self.assert_pages_consistent(cache)

    def test_page_mark_dirty_of_superseded_page_raises(self):
        cache = PageCache(capacity_pages=1)
        stale = cache.install(1, 0, self.page(1), dirty=False)
        cache.install(1, 1, self.page(2), dirty=False)  # evicts (1, 0)
        cache.install(1, 0, self.page(3), dirty=False)  # a second copy of (1, 0)
        with pytest.raises(InvariantViolation):
            cache.mark_dirty(stale)
        assert not stale.dirty and cache.dirty_count() == 0
        self.assert_pages_consistent(cache)

    def test_page_drop_ino_range(self):
        cache = PageCache()
        for logical in range(4):
            cache.install(7, logical, self.page(logical), dirty=logical % 2 == 1)
        cache.install(8, 5, self.page(9), dirty=True)
        cache.drop_ino(7, from_logical=2)
        assert [(p.ino, p.logical) for p in cache.dirty_pages()] == [(7, 1), (8, 5)]
        cache.drop_ino(7)
        assert [(p.ino, p.logical) for p in cache.dirty_pages()] == [(8, 5)]
        self.assert_pages_consistent(cache)

    def test_page_detach_cleans_and_attach_adopts(self):
        cache = PageCache()
        cache.install(1, 0, self.page(1), dirty=True)
        cache.install(1, 1, self.page(2), dirty=False)
        pages = cache.detach()
        assert cache.dirty_count() == 0 and cache.dirty_pages() == []
        assert not any(page.dirty for page in pages.values())
        fresh = PageCache()
        fresh.attach(pages)
        assert len(fresh) == 2 and fresh.dirty_count() == 0
        self.assert_pages_consistent(fresh)

    def test_page_attach_tracks_dirty_flags(self):
        source = PageCache()
        page = source.install(2, 0, self.page(1), dirty=False)
        source.mark_dirty(page)
        handed = {(2, 0): page}
        target = PageCache()
        target.attach(handed)
        assert target.dirty_pages() == [page]
        self.assert_pages_consistent(target)

    def test_page_drop_all(self):
        cache = PageCache()
        cache.install(1, 0, self.page(1), dirty=True)
        cache.drop_all()
        assert cache.dirty_count() == 0 and cache.dirty_pages() == []

    def test_page_eviction_never_takes_dirty(self):
        cache = PageCache(capacity_pages=3)
        for logical in range(3):
            cache.install(1, logical, self.page(logical), dirty=True)
        for logical in range(3, 8):
            cache.install(1, logical, self.page(logical), dirty=False)
        assert [p.logical for p in cache.dirty_pages()] == [0, 1, 2]
        # Each clean newcomer was the only clean page, so it went itself.
        assert cache.stats.evictions == 5 and len(cache) == 3
        cache.mark_clean(1, 0)
        cache.install(1, 9, self.page(9), dirty=False)  # now (1, 0) can go
        assert cache.lookup(1, 0) is None
        self.assert_pages_consistent(cache)

    def test_inode_insert_mark_clean(self):
        cache = InodeCache()
        slot = cache.insert(5, self.make_inode())
        cache.insert(3, self.make_inode(), dirty=True)
        assert [s.ino for s in cache.dirty_inodes()] == [3]
        cache.mark_dirty(slot)
        cache.mark_dirty(5)
        assert [s.ino for s in cache.dirty_inodes()] == [3, 5]
        cache.clean(3)
        cache.clean(42)  # absent: no-op
        assert cache.dirty_count() == 1
        self.assert_inodes_consistent(cache)

    def test_inode_mark_dirty_unknown_ino_raises(self):
        cache = InodeCache()
        with pytest.raises(KeyError):
            cache.mark_dirty(99)

    def test_inode_mark_dirty_of_evicted_slot_readopts_it(self):
        cache = InodeCache(capacity=1)
        stale = cache.insert(1, self.make_inode())
        cache.insert(2, self.make_inode())  # evicts ino 1
        cache.mark_dirty(stale)
        assert stale.dirty and cache.dirty_inodes() == [stale]
        assert 1 in cache and len(cache) == 2  # over capacity until commit
        self.assert_inodes_consistent(cache)

    def test_inode_mark_dirty_of_superseded_slot_raises(self):
        cache = InodeCache(capacity=1)
        stale = cache.insert(1, self.make_inode())
        cache.insert(2, self.make_inode())  # evicts ino 1
        cache.insert(1, self.make_inode())  # a second slot for ino 1
        with pytest.raises(InvariantViolation):
            cache.mark_dirty(stale)
        assert not stale.dirty and cache.dirty_count() == 0
        self.assert_inodes_consistent(cache)

    def test_inode_remove_dirty(self):
        cache = InodeCache()
        cache.insert(4, self.make_inode(), dirty=True)
        cache.insert(6, self.make_inode(), dirty=True)
        cache.remove(4)
        cache.remove(4)  # absent: no-op
        assert [s.ino for s in cache.dirty_inodes()] == [6]
        self.assert_inodes_consistent(cache)

    def test_inode_drop_all(self):
        cache = InodeCache()
        cache.insert(1, self.make_inode(), dirty=True)
        cache.drop_all()
        assert cache.dirty_count() == 0 and cache.dirty_inodes() == []

    def test_inode_eviction_never_takes_dirty(self):
        cache = InodeCache(capacity=2)
        cache.insert(1, self.make_inode(), dirty=True)
        cache.insert(2, self.make_inode())
        cache.insert(3, self.make_inode())  # evicts 2, the clean one
        assert 1 in cache and 2 not in cache and 3 in cache
        cache.insert(4, self.make_inode(), dirty=True)  # evicts 3
        assert [s.ino for s in cache.dirty_inodes()] == [1, 4]
        assert cache.stats.evictions == 2
        self.assert_inodes_consistent(cache)


def small_cache_fileserver_fs():
    """A supervised filesystem with 16-page / 8-inode caches and a
    ``KernelBug`` on every 5th ``dir.insert``: a fileserver stream then
    evicts constantly and goes through contained reboots and hand-offs."""
    hooks = HookPoints()
    firings = {"n": 0}

    def bug(point, ctx):
        firings["n"] += 1
        if firings["n"] % 5 == 0:
            raise KernelBug(f"injected at dir.insert firing {firings['n']}")

    hooks.register("dir.insert", bug)
    device = formatted_device(16384)
    fs = RAEFilesystem(
        device, RAEConfig(), hooks=hooks, page_cache_capacity=16, inode_cache_capacity=8
    )
    return device, fs


def test_dirty_sets_match_rescan_through_recoveries():
    """A fileserver stream through the supervisor, with a KernelBug on
    every 5th ``dir.insert`` and small caches: after every op — across
    commits, evictions, contained reboots and hand-offs — the O(1)
    counts and sorted listings equal a rescan of the dirty flags.

    Seed 13 at 400 ops gets through three or more recoveries and many
    evictions."""
    device, fs = small_cache_fileserver_fs()
    for operation in WorkloadGenerator(fileserver_profile(), seed=13).ops(400):
        try:
            operation.apply(fs)
        except FsError:
            pass
        base = fs.base
        pages = rescan_dirty_pages(base.page_cache)
        assert base.page_cache.dirty_pages() == pages
        assert base.dirty_page_count() == len(pages)
        assert base.inode_cache.dirty_inodes() == rescan_dirty_inodes(base.inode_cache)
        assert base.dirty_metadata_count() == rescan_dirty_metadata_count(base)
    assert fs.recovery_count >= 3
    assert fs.base.page_cache.stats.evictions > 0
    fs.unmount()
    assert Fsck(device).run().clean


def test_small_caches_keep_every_update():
    """With 16 pages and 8 inodes, a write or inode update can land on an
    entry that was evicted clean between lookup and modification.  Unless
    ``mark_dirty`` adopts it again, the update never reaches disk, the base
    reads stale data, and the shadow's cross-check raises
    ``CrossCheckMismatch`` after the next recovery (op #868 of this run)."""
    device, fs = small_cache_fileserver_fs()
    for operation in WorkloadGenerator(fileserver_profile(), seed=12).ops(800):
        try:
            operation.apply(fs)
        except FsError:
            pass
    fs.unmount()
    assert Fsck(device).run().clean
