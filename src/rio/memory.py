"""Flat byte arenas standing in for process memory.

Client-side process memory is modeled as a sparse flat address space of
4 KB chunks; every (addr, len) pair in the protocol indexes into it.
"""

from __future__ import annotations

PAGE_SIZE = 4096
_ZERO_PAGE = memoryview(bytes(PAGE_SIZE))  # unmaterialized chunks read as zeros


class ByteArena:
    """Sparse byte-addressable memory, materialized 4 KB at a time."""

    def __init__(self) -> None:
        self._chunks: dict[int, bytearray] = {}

    def _chunk(self, index: int) -> bytearray:
        chunk = self._chunks.get(index)
        if chunk is None:
            chunk = bytearray(PAGE_SIZE)
            self._chunks[index] = chunk
        return chunk

    def read(self, addr: int, length: int) -> bytes:
        if length < 0 or addr < 0:
            raise ValueError("negative address or length")
        idx, off = divmod(addr, PAGE_SIZE)
        if off + length <= PAGE_SIZE:  # within one chunk
            chunk = self._chunks.get(idx)
            return bytes(length) if chunk is None else bytes(chunk[off : off + length])
        # Several chunks: one join of views, so each byte is copied once.
        chunks = self._chunks
        parts = []
        pos, end = addr, addr + length
        while pos < end:
            idx, off = divmod(pos, PAGE_SIZE)
            take = min(PAGE_SIZE - off, end - pos)
            chunk = chunks.get(idx)
            if chunk is None:
                parts.append(_ZERO_PAGE[:take])
            elif take == PAGE_SIZE:
                parts.append(chunk)
            else:
                parts.append(memoryview(chunk)[off : off + take])
            pos += take
        return b"".join(parts)

    def write(self, addr: int, data: bytes) -> None:
        # Stores go through memoryviews: assigning to a bytearray slice first
        # copies any value that is not itself a bytearray.
        if addr < 0:
            raise ValueError("negative address")
        length = len(data)
        idx, off = divmod(addr, PAGE_SIZE)
        if 0 < length and off + length <= PAGE_SIZE:  # within one chunk
            memoryview(self._chunk(idx))[off : off + length] = data
            return
        data = memoryview(data)
        pos = 0
        while pos < length:
            a = addr + pos
            idx, off = divmod(a, PAGE_SIZE)
            take = min(PAGE_SIZE - off, length - pos)
            memoryview(self._chunk(idx))[off : off + take] = data[pos : pos + take]
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
