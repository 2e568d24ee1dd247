"""Tests for repro.ondisk.directory."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.ondisk.directory import MAX_NAME_LEN, DirBlock, DirEntry, entry_size
from repro.ondisk.inode import FileType
from repro.ondisk.layout import BLOCK_SIZE


def test_fresh_block_is_empty():
    block = DirBlock()
    assert block.entries() == []
    assert block.is_empty()
    assert len(block.to_block()) == BLOCK_SIZE


def test_insert_find_remove():
    block = DirBlock()
    assert block.insert(10, "hello", FileType.REGULAR)
    entry = block.find("hello")
    assert entry is not None and entry.ino == 10 and entry.ftype == FileType.REGULAR
    assert block.remove("hello")
    assert block.find("hello") is None
    assert not block.remove("hello")


def test_insert_many_until_full():
    block = DirBlock()
    count = 0
    while block.insert(count + 1, f"file{count:04d}", FileType.REGULAR):
        count += 1
    # 8-byte header + 8-byte name rounded = 16 bytes per entry minimum,
    # so a 4096-byte block fits a couple hundred of these.
    assert count >= 200
    assert len(block.entries()) == count


def test_remove_first_entry_keeps_chain_valid():
    block = DirBlock()
    block.insert(1, "a", FileType.REGULAR)
    block.insert(2, "b", FileType.REGULAR)
    block.remove("a")
    assert [e.name for e in block.entries()] == ["b"]
    # space is reusable
    assert block.insert(3, "c", FileType.REGULAR)


def test_remove_middle_folds_into_previous():
    block = DirBlock()
    for i, name in enumerate(("x", "y", "z"), start=1):
        block.insert(i, name, FileType.REGULAR)
    block.remove("y")
    assert [e.name for e in block.entries()] == ["x", "z"]
    # the freed slack is reusable for a same-size name
    assert block.insert(9, "w", FileType.REGULAR)
    names = [e.name for e in block.entries()]
    assert "w" in names


def test_reinsert_after_remove_is_deterministic():
    a, b = DirBlock(), DirBlock()
    for block in (a, b):
        block.insert(1, "one", FileType.REGULAR)
        block.insert(2, "two", FileType.REGULAR)
        block.remove("one")
        block.insert(3, "three", FileType.DIRECTORY)
    assert a.to_block() == b.to_block()


def test_serialization_roundtrip():
    block = DirBlock()
    block.insert(5, "name-5", FileType.SYMLINK)
    restored = DirBlock(block.to_block())
    assert [e.ino for e in restored.entries()] == [5]


def test_long_names():
    block = DirBlock()
    name = "n" * MAX_NAME_LEN
    assert block.insert(1, name, FileType.REGULAR)
    assert block.find(name).ino == 1
    with pytest.raises(ValueError):
        block.insert(2, "n" * (MAX_NAME_LEN + 1), FileType.REGULAR)


def test_insert_validates_args():
    block = DirBlock()
    with pytest.raises(ValueError):
        block.insert(0, "zero-ino", FileType.REGULAR)
    with pytest.raises(ValueError):
        block.insert(1, "", FileType.REGULAR)


def test_malformed_block_detected():
    raw = bytearray(DirBlock().to_block())
    raw[4:6] = (3).to_bytes(2, "little")  # rec_len 3: under header size
    with pytest.raises(ValueError):
        DirBlock(bytes(raw)).entries()


def test_overrun_rec_len_detected():
    raw = bytearray(DirBlock().to_block())
    raw[4:6] = (BLOCK_SIZE + 8).to_bytes(2, "little")
    with pytest.raises(ValueError):
        DirBlock(bytes(raw)).entries()


def test_free_space_probe_is_non_mutating():
    block = DirBlock()
    before = block.to_block()
    assert block.free_space_for("anything")
    assert block.to_block() == before


def test_entry_size_alignment():
    assert entry_size(1) % 4 == 0
    assert entry_size(4) == 12
    assert entry_size(5) == 16


def test_direntry_rejects_bad_names():
    with pytest.raises(ValueError):
        DirEntry(ino=1, name="", ftype=FileType.REGULAR)


def test_wrong_block_size_rejected():
    with pytest.raises(ValueError):
        DirBlock(b"\x00" * 100)


# The record walk and lookups as they were before ``DirBlock`` validated a
# block in one pass of plain tuples: one ``DirEntry`` and one
# ``FileType(...)`` call per live record.  Kept as the reference the
# single-pass decoder must equal, exceptions included.


def reference_records(data: bytes) -> list[tuple[int, int, int, int, int]]:
    records = []
    offset = 0
    while offset < BLOCK_SIZE:
        if offset + 8 > BLOCK_SIZE:
            raise ValueError(f"directory record header at {offset} crosses block end")
        ino, rec_len, name_len, ftype = struct.unpack_from("<IHBB", data, offset)
        if rec_len < 8:
            raise ValueError(f"directory record at {offset} has rec_len {rec_len} < header size")
        if rec_len % 4 != 0:
            raise ValueError(f"directory record at {offset} has unaligned rec_len {rec_len}")
        if offset + rec_len > BLOCK_SIZE:
            raise ValueError(f"directory record at {offset} overruns the block (rec_len {rec_len})")
        if ino != 0 and entry_size(name_len) > rec_len:
            raise ValueError(f"directory record at {offset}: name_len {name_len} exceeds rec_len {rec_len}")
        records.append((offset, ino, rec_len, name_len, ftype))
        offset += rec_len
    if offset != BLOCK_SIZE:
        raise ValueError(f"directory records end at {offset}, not at block boundary")
    return records


def reference_entries(data: bytes) -> list[DirEntry]:
    out = []
    for offset, ino, _rec_len, name_len, ftype in reference_records(data):
        if ino == 0:
            continue
        name = data[offset + 8 : offset + 8 + name_len].decode()
        out.append(DirEntry(ino=ino, name=name, ftype=FileType(ftype), offset=offset))
    return out


def reference_find(data: bytes, name: str) -> DirEntry | None:
    for entry in reference_entries(data):
        if entry.name == name:
            return entry
    return None


def outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return ("returned", call())
    except ValueError as exc:
        return ("raised", type(exc), str(exc))


def assert_matches_reference(data: bytes, names) -> None:
    """``entries``, ``find`` and ``is_empty`` equal the reference on
    ``data``: the same result, or the same exception type and message."""
    block = DirBlock(data)
    assert outcome(block.entries) == outcome(lambda: reference_entries(data))
    assert outcome(block.is_empty) == outcome(lambda: not reference_entries(data))
    for name in names:
        assert outcome(lambda: block.find(name)) == outcome(lambda: reference_find(data, name))


NAMES = st.text(alphabet="ab.é中\U0001F600-", min_size=1, max_size=12)


@st.composite
def dir_histories(draw):
    """A block built by a random insert/remove history, and every name the
    history used (present or removed)."""
    block = DirBlock()
    used = []
    for step in range(draw(st.integers(0, 40))):
        if used and draw(st.booleans()) and draw(st.booleans()):
            block.remove(draw(st.sampled_from(used)))
            continue
        name = draw(NAMES)
        if block.find(name) is None:
            ftype = draw(st.sampled_from([FileType.REGULAR, FileType.DIRECTORY, FileType.SYMLINK]))
            block.insert(step + 2, name, ftype)
        used.append(name)
    return block.to_block(), used


@settings(max_examples=300, deadline=None)
@given(dir_histories(), NAMES)
def test_single_pass_matches_reference_on_valid_blocks(history, absent):
    data, used = history
    assert_matches_reference(data, used + [absent])


@settings(max_examples=500, deadline=None)
@given(
    dir_histories(),
    st.lists(
        st.tuples(st.one_of(st.integers(0, 255), st.integers(0, BLOCK_SIZE - 1)), st.integers(0, 255)),
        min_size=1,
        max_size=4,
    ),
)
def test_single_pass_matches_reference_on_corrupted_blocks(history, corruption):
    data, used = history
    raw = bytearray(data)
    for position, value in corruption:
        raw[position] = value
    assert_matches_reference(bytes(raw), used + ["absent"])


def three_entry_block() -> bytearray:
    """Live records ``a`` at 0, ``b`` at 12 and ``c`` at 24 (whose record
    runs to the block end)."""
    block = DirBlock()
    for ino, name in ((2, "a"), (3, "b"), (4, "c")):
        assert block.insert(ino, name, FileType.REGULAR)
    return bytearray(block.to_block())


def _empty_name(raw):
    raw[12 + 6] = 0  # name_len of "b"


def _file_type_7(raw):
    raw[12 + 7] = 7  # file type of "b"


def _invalid_utf8(raw):
    raw[12 + 8] = 0xFF  # first name byte of "b"


def _chain_broken_after_lookup(raw):
    raw[24 + 4 : 24 + 6] = (100).to_bytes(2, "little")  # "c" ends mid-block


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (_empty_name, "empty directory entry name"),
        (_file_type_7, "7 is not a valid FileType"),
        (_invalid_utf8, "can't decode byte 0xff"),
        (_chain_broken_after_lookup, "directory record at 124 has rec_len 0 < header size"),
    ],
)
def test_single_defect_raises_like_reference(corrupt, expected):
    raw = three_entry_block()
    corrupt(raw)
    data = bytes(raw)
    with pytest.raises(ValueError, match=expected):
        reference_entries(data)
    # "a" precedes the defect and "zz" is absent: both lookups still
    # validate the whole block.
    assert_matches_reference(data, ["a", "b", "c", "zz"])
    with pytest.raises(ValueError, match=expected):
        DirBlock(data).find("a")


@pytest.mark.parametrize(
    "defects",
    [
        (_invalid_utf8, _file_type_7),
        (_file_type_7, _empty_name),
        (_invalid_utf8, _chain_broken_after_lookup),
    ],
    ids=["utf8+type", "type+empty", "utf8+chain"],
)
def test_defect_precedence_matches_reference(defects):
    """With several defects, the one reported is the reference's: the
    chain before any record, then per record the decode, the file type,
    the empty name."""
    raw = three_entry_block()
    for corrupt in defects:
        corrupt(raw)
    assert_matches_reference(bytes(raw), ["a", "b", "zz"])


def test_file_type_none_on_live_record_is_accepted():
    raw = three_entry_block()
    raw[12 + 7] = int(FileType.NONE)
    assert_matches_reference(bytes(raw), ["b"])
    assert DirBlock(bytes(raw)).find("b").ftype is FileType.NONE
