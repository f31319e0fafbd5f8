"""Whole-stack soak: every device class busy on one session at once."""

import struct

from rio.devices import (
    AUDIO_HEADER,
    AUDIO_XFER_OUT,
    ECHO_XFORM,
    FRAME_DQ,
    FRAME_SETUP,
    MODEM_SMS,
    POLLIN,
    frame_pattern,
)
from rio.testbed import SimWorld
from rio.wire import encode_frame


def test_all_devices_concurrently_on_one_session():
    world = SimWorld(link="lan", seed=13, sms_delay_ms=700.0)
    progress = {"sensor": 0, "audio": 0, "frames": 0, "echo": 0, "modem": 0}
    DURATION = 2500.0

    async def sensor_loop():
        handle = await world.session.open("sensor")
        buf = world.client.alloc(16)
        while world.now() < DURATION:
            await handle.poll(POLLIN)
            if await handle.read(buf, 12) == 12:
                progress["sensor"] += 1
        await handle.close()

    async def audio_loop():
        handle = await world.session.open("audio")
        hdr = world.client.alloc(16)
        data = world.client.alloc(480 * 4)
        while world.now() < DURATION:
            world.client.arena.write(hdr, AUDIO_HEADER.pack(0, data, 480))
            got = await handle.ioctl(AUDIO_XFER_OUT, hdr)
            assert got == 480
            progress["audio"] += got
        await handle.close()

    async def camera_loop():
        handle = await world.session.open("framesource")
        arg = world.client.alloc(12)
        world.client.arena.write(arg, struct.pack("<III", 160, 120, 3))
        assert await handle.ioctl(FRAME_SETUP, arg) == 0
        frame_bytes = 160 * 120 * 2
        buf_bytes = (frame_bytes + 4095) // 4096 * 4096
        region = await handle.mmap(3 * buf_bytes)
        while world.now() < DURATION:
            idx = await handle.ioctl(FRAME_DQ)
            assert idx >= 0
            seq = progress["frames"]
            got = await region.page_read(region.base + idx * buf_bytes, 64)
            assert got == frame_pattern(seq, 64)
            progress["frames"] += 1
        await region.unmap()
        await handle.close()

    async def echo_loop():
        handle = await world.session.open("echodev")
        arg = world.client.alloc(24)
        while world.now() < DURATION:
            world.client.arena.write(arg + 4, bytes((progress["echo"] + j) & 0xFF
                                                    for j in range(8)))
            assert await handle.ioctl(ECHO_XFORM, arg) == 0
            progress["echo"] += 1
            await world.kernel.sleep(40)
        await handle.close()

    async def modem_once():
        handle = await world.session.open("modem")
        rec = world.client.alloc(8)
        world.client.arena.write(rec, struct.pack("<I", MODEM_SMS) + b"ello")
        assert await handle.write(rec, 8) == 8
        await handle.poll(POLLIN)
        out = world.client.alloc(8)
        assert await handle.read(out, 8) == 8
        progress["modem"] = 1
        await handle.close()

    async def main():
        tasks = [world.kernel.spawn(coro) for coro in (
            sensor_loop(), audio_loop(), camera_loop(), echo_loop(), modem_once())]
        for task in tasks:
            await task
        await world.session.close()
        await world.kernel.sleep(100)

    world.run(main())
    # Every stream made steady progress.  The thresholds reflect genuine
    # contention: camera batches occupy most of the shared return
    # direction, stretching the other streams' response legs.
    assert progress["sensor"] >= 20          # ~72 ms per reading plus queueing
    assert progress["audio"] >= 35_000       # playback throttled by contention
    assert progress["frames"] >= 70          # small frames, ~25 ms each
    assert progress["echo"] >= 35
    assert progress["modem"] == 1
    assert world.session.coverage_misses == 0
    assert all(v == 0 for v in world.census().values())
    assert world.session.estimator.samples >= 3  # heartbeats kept flowing


def _echo_frame_stream(seed: int) -> list[bytes]:
    """Every frame an echodev open and one ECHO_XFORM put on the link."""
    world = SimWorld("lan", seed=seed)
    frames = []
    send = world.link._send

    def record(direction, msg):
        frames.append(encode_frame(msg))
        return send(direction, msg)

    world.link._send = record

    async def main():
        handle = await world.session.open("echodev")
        arg = world.client.alloc(24)
        assert await handle.ioctl(ECHO_XFORM, arg) == 0

    world.run(main())
    return frames


def test_same_scenario_and_seed_send_the_same_bytes_whatever_ran_before():
    first = _echo_frame_stream(3)
    assert _echo_frame_stream(3) == first
