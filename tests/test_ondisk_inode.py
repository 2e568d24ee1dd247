"""Tests for repro.ondisk.inode."""

import pytest

from repro.ondisk.inode import (
    FileType,
    MAX_FILE_SIZE,
    N_DIRECT,
    OnDiskInode,
    PTRS_PER_BLOCK,
    make_mode,
)
from repro.ondisk.layout import BLOCK_SIZE, INODE_SIZE


def test_make_mode_and_type_accessors():
    inode = OnDiskInode(mode=make_mode(FileType.DIRECTORY, 0o750))
    assert inode.is_dir and not inode.is_regular and not inode.is_symlink
    assert inode.perms == 0o750
    assert inode.ftype == FileType.DIRECTORY


def test_ftype_maps_every_type_nibble():
    for raw in range(16):
        try:
            expected = FileType(raw)
        except ValueError:
            expected = FileType.NONE
        assert OnDiskInode(mode=(raw << 12) | 0o644).ftype is expected, raw


def test_pack_unpack_roundtrip():
    inode = OnDiskInode(
        mode=make_mode(FileType.REGULAR, 0o644),
        uid=1000,
        gid=1000,
        nlink=2,
        size=123456,
        atime=1,
        mtime=2,
        ctime=3,
        generation=9,
    )
    inode.direct[0] = 77
    inode.direct[11] = 88
    inode.indirect = 99
    inode.double_indirect = 100
    restored = OnDiskInode.unpack(inode.pack())
    assert restored == inode
    assert len(inode.pack()) == INODE_SIZE


def test_zero_slot_is_free():
    inode = OnDiskInode.unpack(b"\x00" * INODE_SIZE)
    assert inode.is_free
    assert inode.ftype == FileType.NONE


def test_checksum_detects_corruption():
    raw = bytearray(OnDiskInode(mode=make_mode(FileType.REGULAR), nlink=1).pack())
    raw[8] ^= 0x40
    with pytest.raises(ValueError, match="checksum"):
        OnDiskInode.unpack(bytes(raw))
    OnDiskInode.unpack(bytes(raw), verify=False)  # tolerated when asked


def test_block_count_rounding():
    inode = OnDiskInode(size=1)
    assert inode.block_count() == 1
    inode.size = BLOCK_SIZE
    assert inode.block_count() == 1
    inode.size = BLOCK_SIZE + 1
    assert inode.block_count() == 2
    inode.size = 0
    assert inode.block_count() == 0


def test_max_file_size_formula():
    assert MAX_FILE_SIZE == (N_DIRECT + PTRS_PER_BLOCK + PTRS_PER_BLOCK**2) * BLOCK_SIZE


def test_copy_is_deep_for_direct():
    inode = OnDiskInode()
    clone = inode.copy()
    clone.direct[0] = 5
    assert inode.direct[0] == 0


def test_direct_and_indirect_roots():
    inode = OnDiskInode()
    inode.direct[3] = 10
    inode.indirect = 20
    assert inode.direct_and_indirect_roots() == [10, 20]
    inode.double_indirect = 30
    assert 30 in inode.direct_and_indirect_roots()


def test_pack_rejects_wrong_pointer_count():
    inode = OnDiskInode()
    inode.direct = [0] * 5
    with pytest.raises(ValueError):
        inode.pack()


def test_invalid_type_bits_map_to_none():
    inode = OnDiskInode(mode=(9 << 12))
    assert inode.ftype == FileType.NONE
