from rio.memory import Allocator, ByteArena, PAGE_SIZE

import pytest


def test_read_back_across_chunk_boundary():
    arena = ByteArena()
    addr = PAGE_SIZE - 3
    arena.write(addr, b"abcdefgh")
    assert arena.read(addr, 8) == b"abcdefgh"
    assert arena.read(addr - 1, 10) == b"\x00abcdefgh\x00"


def test_unwritten_memory_reads_zero():
    arena = ByteArena()
    assert arena.read(123456, 16) == bytes(16)


def test_overwrite_in_place():
    arena = ByteArena()
    arena.write(100, b"xxxx")
    arena.write(102, b"ZZ")
    assert arena.read(100, 4) == b"xxZZ"


def test_a_mapped_buffer_and_the_arena_alias_until_unmapped():
    arena = ByteArena()
    base = 4 * PAGE_SIZE
    arena.write(base + 5, b"old")  # a mapping replaces what was there
    buf = arena.map(base, 2 * PAGE_SIZE + 1)
    assert type(buf) is bytearray and buf == bytes(3 * PAGE_SIZE)
    assert arena.read(base, 8) == bytes(8)
    arena.write(base + PAGE_SIZE - 2, b"wxyz")  # across a page boundary
    assert buf[PAGE_SIZE - 2 : PAGE_SIZE + 2] == b"wxyz"
    buf[2 * PAGE_SIZE : 2 * PAGE_SIZE + 3] = b"abc"
    assert arena.read(base + 2 * PAGE_SIZE - 1, 5) == b"\x00abc\x00"
    arena.unmap(base, 2 * PAGE_SIZE + 1)
    assert arena.read(base, 3 * PAGE_SIZE) == bytes(3 * PAGE_SIZE)
    assert buf[PAGE_SIZE - 2 : PAGE_SIZE + 2] == b"wxyz"  # the buffer is its own again
    with pytest.raises(ValueError):
        arena.map(base + 1, PAGE_SIZE)


def test_allocator_alignment_and_disjointness():
    alloc = Allocator()
    a = alloc.alloc(100)
    b = alloc.alloc(5000)
    c = alloc.alloc(1, align=2 * 1024 * 1024)
    assert a % PAGE_SIZE == 0
    assert b >= a + 100
    assert c % (2 * 1024 * 1024) == 0
    assert c >= b + 5000
    with pytest.raises(ValueError):
        alloc.alloc(0)


def test_read_matches_a_byte_model_across_chunks_gaps_and_offsets():
    arena = ByteArena()
    model = {}

    def write(addr, data):
        arena.write(addr, data)
        model.update(zip(range(addr, addr + len(data)), data))

    # Chunks 10 and 11 written whole, chunk 13 in part; 12 and 14 never.
    base = 10 * PAGE_SIZE
    write(base, memoryview(bytes((i * 7 + 1) & 0xFF for i in range(2 * PAGE_SIZE))))
    write(13 * PAGE_SIZE + 100, bytes(range(1, 201)))
    starts = [base - 3, base, base + 1, base + PAGE_SIZE - 1, base + 2 * PAGE_SIZE - 5,
              13 * PAGE_SIZE + 150]
    lengths = [0, 1, 2 * PAGE_SIZE // 3, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1,
               2 * PAGE_SIZE + 17, 3 * PAGE_SIZE]
    for start in starts:
        for length in lengths:
            got = arena.read(start, length)
            assert type(got) is bytes
            assert got == bytes(model.get(a, 0) for a in range(start, start + length)), \
                (start, length)
