"""Flat byte arenas standing in for process memory.

Client-side process memory is one flat address space; every (addr, len)
pair in the protocol indexes into it.  A mapped region is one contiguous
buffer; other memory is materialized sparsely, 4 KB at a time.
"""

from __future__ import annotations

PAGE_SIZE = 4096
_ZERO_PAGE = memoryview(bytes(PAGE_SIZE))  # unmaterialized chunks read as zeros


def pages_for(length: int) -> int:
    """The number of pages that ``length`` bytes occupy."""
    return (length + PAGE_SIZE - 1) // PAGE_SIZE


class ByteArena:
    """Byte-addressable memory as one chunk per 4 KB page: a page of its
    own, or a view of a mapped region's buffer."""

    def __init__(self) -> None:
        self._chunks: dict[int, bytearray | memoryview] = {}

    def map(self, base: int, length: int) -> bytearray:
        """A zeroed buffer of whole pages, mapped at ``base``: the arena's
        pages there become views of it, so both see the same bytes."""
        if base % PAGE_SIZE:
            raise ValueError("a mapping starts on a page boundary")
        buf = bytearray(pages_for(length) * PAGE_SIZE)
        view, first = memoryview(buf), base // PAGE_SIZE
        for off in range(0, len(buf), PAGE_SIZE):
            self._chunks[first + off // PAGE_SIZE] = view[off : off + PAGE_SIZE]
        return buf

    def unmap(self, base: int, length: int) -> None:
        """Drop the pages of ``map(base, length)``; they read as zeros again."""
        first = base // PAGE_SIZE
        for index in range(first, first + pages_for(length)):
            self._chunks.pop(index, None)

    def read(self, addr: int, length: int) -> bytes:
        if length < 0 or addr < 0:
            raise ValueError("negative address or length")
        chunks = self._chunks
        idx, off = divmod(addr, PAGE_SIZE)
        if off + length <= PAGE_SIZE:  # within one chunk
            return bytes(chunks.get(idx, _ZERO_PAGE)[off : off + length])
        # Several chunks: one join of views, so each byte is copied once.
        parts = []
        pos, end = addr, addr + length
        while pos < end:
            idx, off = divmod(pos, PAGE_SIZE)
            take = min(PAGE_SIZE - off, end - pos)
            parts.append(memoryview(chunks.get(idx, _ZERO_PAGE))[off : off + take])
            pos += take
        return b"".join(parts)

    def write(self, addr: int, data: bytes) -> None:
        # Stores go through memoryviews: assigning to a bytearray slice first
        # copies any value that is not itself a bytearray.
        if addr < 0:
            raise ValueError("negative address")
        chunks, length = self._chunks, len(data)
        idx, off = divmod(addr, PAGE_SIZE)
        if off + length <= PAGE_SIZE and idx in chunks:  # within one materialized chunk
            memoryview(chunks[idx])[off : off + length] = data
            return
        data, pos = memoryview(data), 0
        while pos < length:
            idx, off = divmod(addr + pos, PAGE_SIZE)
            take = min(PAGE_SIZE - off, length - pos)
            chunk = chunks.get(idx)
            if chunk is None:
                chunk = chunks[idx] = bytearray(PAGE_SIZE)
            memoryview(chunk)[off : off + take] = data[pos : pos + take]
            pos += take


class Allocator:
    """Bump allocator handing out non-overlapping arena ranges."""

    def __init__(self, base: int = 0x0010_0000) -> None:
        self._next = base

    def alloc(self, length: int, align: int = PAGE_SIZE) -> int:
        if length <= 0:
            raise ValueError("allocation size must be positive")
        addr = (self._next + align - 1) // align * align
        self._next = addr + length
        return addr
