"""Tests for repro.ondisk.bitmap."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ondisk.bitmap import Bitmap
from repro.ondisk.layout import BLOCK_SIZE


def test_set_test_clear():
    bm = Bitmap(64)
    assert not bm.test(5)
    bm.set(5)
    assert bm.test(5)
    bm.clear(5)
    assert not bm.test(5)


def test_bounds_checked():
    bm = Bitmap(64)
    with pytest.raises(ValueError):
        bm.test(64)
    with pytest.raises(ValueError):
        bm.set(-1)
    with pytest.raises(ValueError):
        Bitmap(0)
    with pytest.raises(ValueError):
        Bitmap(BLOCK_SIZE * 8 + 1)


def test_find_free_wraps():
    bm = Bitmap(8)
    for bit in (0, 1, 2):
        bm.set(bit)
    assert bm.find_free(start=6) == 6
    bm = Bitmap(8)
    for bit in range(3, 8):
        bm.set(bit)
    assert bm.find_free(start=5) == 0  # wrapped


def test_find_free_full():
    bm = Bitmap(4)
    for bit in range(4):
        bm.set(bit)
    assert bm.find_free() is None


def test_find_free_run():
    bm = Bitmap(16)
    bm.set(3)
    assert bm.find_free_run(3) == 0
    assert bm.find_free_run(4) == 4
    assert bm.find_free_run(13) is None
    with pytest.raises(ValueError):
        bm.find_free_run(0)


def test_counts():
    bm = Bitmap(100)
    for bit in range(0, 100, 3):
        bm.set(bit)
    assert bm.count_set() == 34
    assert bm.count_free() == 66
    assert bm.set_bits() == list(range(0, 100, 3))


def test_serialization_roundtrip():
    bm = Bitmap(777)
    for bit in (0, 1, 776, 400):
        bm.set(bit)
    restored = Bitmap.from_block(777, bm.to_block())
    assert restored == bm
    assert restored.set_bits() == [0, 1, 400, 776]


def test_block_size_enforced():
    with pytest.raises(ValueError):
        Bitmap(64, data=b"short")


def test_copy_independent():
    bm = Bitmap(8)
    bm.set(1)
    other = bm.copy()
    other.set(2)
    assert not bm.test(2)
    assert other.test(1)


def test_equality_requires_same_nbits():
    a, b = Bitmap(8), Bitmap(9)
    assert a != b


# Bit-by-bit references for the byte-skipping find_free and the one-call
# count_set: only the first nbits count, padding bits never do.


def reference_find_free(data: bytes, nbits: int, start: int) -> int | None:
    start %= nbits
    for i in range(nbits):
        bit = (start + i) % nbits
        if not data[bit >> 3] & (1 << (bit & 7)):
            return bit
    return None


def reference_count_set(data: bytes, nbits: int) -> int:
    return sum(1 for bit in range(nbits) if data[bit >> 3] & (1 << (bit & 7)))


@st.composite
def bitmaps(draw):
    nbits = draw(st.one_of(st.integers(1, 80), st.integers(1, BLOCK_SIZE * 8)))
    fill = draw(st.sampled_from([0x00, 0xFF, None]))
    if fill is None:
        data = bytearray(draw(st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE)))
    else:
        data = bytearray([fill]) * BLOCK_SIZE
    # Sparse clear/set runs over a mostly-full or mostly-empty map.
    for bit in draw(st.lists(st.integers(0, nbits - 1), max_size=6)):
        data[bit >> 3] ^= 1 << (bit & 7)
    # Padding bits past nbits: all set, all clear, or left as drawn.
    padding = draw(st.sampled_from(["set", "clear", "keep"]))
    for bit in range(nbits, min(BLOCK_SIZE * 8, (nbits + 7) // 8 * 8 + 16)):
        if padding == "set":
            data[bit >> 3] |= 1 << (bit & 7)
        elif padding == "clear":
            data[bit >> 3] &= ~(1 << (bit & 7)) & 0xFF
    return nbits, bytes(data)


@settings(max_examples=300, deadline=None)
@given(bitmaps(), st.integers(-3 * BLOCK_SIZE * 8, 3 * BLOCK_SIZE * 8))
def test_find_free_and_count_set_match_bitwise_reference(bitmap, start):
    nbits, data = bitmap
    bm = Bitmap.from_block(nbits, data)
    assert bm.find_free(start) == reference_find_free(data, nbits, start)
    assert bm.count_set() == reference_count_set(data, nbits)
    assert bm.count_free() == nbits - bm.count_set()


@pytest.mark.parametrize("nbits", [1, 7, 8, 9, 777, BLOCK_SIZE * 8])
def test_full_bitmap_has_no_free_bit(nbits):
    bm = Bitmap(nbits)
    for bit in range(nbits):
        bm.set(bit)
    for start in (0, nbits - 1, nbits, -1, 5 * nbits + 3):
        assert bm.find_free(start) is None
    assert bm.count_set() == nbits


def test_find_free_ignores_clear_padding():
    bm = Bitmap(12)  # bits 12..15 of byte 1 are clear padding
    for bit in range(12):
        bm.set(bit)
    assert bm.find_free(11) is None
    bm.clear(3)
    assert bm.find_free(4) == 3  # wraps past the padding
    assert bm.find_free(-1) == 3
    assert bm.find_free(12 + 3) == 3
