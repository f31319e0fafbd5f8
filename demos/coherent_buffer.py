"""A buffer shared coherently between client and server.

The client allocates a frame-sized buffer that both sides register in the
DSM.  The server device DMA-fills its mirror; under the invalidate policy
the client's reads fetch the pages on demand, each read its run of invalid
pages in round trips of up to 16 pages: one fetch for the first page, ten
for the other 149, so the last line reads ``total fetches: 11``.  The bytes
match the device's pattern function exactly.
"""

from rio.devices import FRAME_CAPTURE, frame_pattern
from rio.dsm import Policy
from rio.testbed import SimWorld


if __name__ == "__main__":
    world = SimWorld(link="lan", dsm_policy=Policy.INVALIDATE)

    async def scenario():
        handle = await world.session.open("framesource")
        size = 614_400
        gbuf = await handle.alloc_global_buffer(size, buffer_id=7)
        print(f"allocated shared buffer: {size} bytes = {gbuf.npages} pages, "
              f"client owns them (read-write)")

        assert await handle.ioctl(FRAME_CAPTURE, 7) == 0
        print("server filled its mirror by DMA and invalidated the client copies")

        fetched_before = world.session.dsm.stats["fetches"]
        head = await gbuf.page_read(gbuf.base, 4096)
        print(f"read of the first page triggered "
              f"{world.session.dsm.stats['fetches'] - fetched_before} fetch")

        everything = await gbuf.page_read(gbuf.base, size)
        assert everything == frame_pattern(1, size)
        print(f"all {gbuf.npages} pages verified bit-exact against the pattern; "
              f"total fetches: {world.session.dsm.stats['fetches']}")

    world.run(scenario())
