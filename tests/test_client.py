"""Client stub: prefetch, poll adjustment, fallback, liveness."""

import random
import struct
import tracemalloc

import pytest

from rio.client import HandleState, OpenError, RttEstimator
from rio.devices import (
    AUDIO_HEADER,
    AUDIO_XFER_OUT,
    FRAME_DQ,
    FRAME_SETUP,
    POLLIN,
    SensorDevice,
    frame_pattern,
    io,
)
from rio.dsm import PageState, Policy
from rio.errors import DisconnectedError
from rio.memory import PAGE_SIZE
from rio.testbed import SimWorld
from rio.wire import LinkConfig, PageFetch


# ---------------------------------------------------------------------------
# Opening
# ---------------------------------------------------------------------------


def test_open_known_class_connects():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("sensor")
        return handle.state, handle.name

    state, name = world.run(main())
    assert state is HandleState.CONNECTED
    assert name == "sensor"


def test_open_unknown_class_fails_from_ack():
    world = SimWorld(link="lan")

    async def main():
        with pytest.raises(OpenError) as info:
            await world.session.open("gpu")
        return info.value.errno

    assert world.run(main()) == 19  # ENODEV


def test_remote_handle_renamed_when_local_class_registered():
    world = SimWorld(link="lan")
    world.client.register_local_fallback("sensor", SensorDevice(world.kernel))

    async def main():
        handle = await world.session.open("sensor")
        return handle.name

    assert world.run(main()) == "sensor_rio"


# ---------------------------------------------------------------------------
# Prefetch computation
# ---------------------------------------------------------------------------


def test_registry_covers_audio_indirect_buffer_zero_misses():
    rng = random.Random(11)
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("audio")
        hdr = world.client.alloc(16)
        for _ in range(20):
            frames = rng.randint(1, 400)
            data = world.client.alloc(frames * 4)
            world.client.arena.write(data, rng.randbytes(frames * 4))
            world.client.arena.write(
                hdr, AUDIO_HEADER.pack(rng.getrandbits(32), data, frames))
            got = await handle.ioctl(AUDIO_XFER_OUT, hdr)
            assert got == frames

    world.run(main())
    assert world.session.coverage_misses == 0
    assert world.server.stats.cache_misses == 0


def test_dir_none_command_ships_nothing_and_pays_per_copy():
    from test_server import ScriptedDevice
    world = SimWorld(link="lan")
    cmd = io(ord("S"), 9)  # no direction or size encoded
    dev = ScriptedDevice(world.kernel, [("cfu", 0x7000, 8)])
    world.server.devices["scripted"] = dev

    async def main():
        handle = await world.session.open("scripted")
        world.client.arena.write(0x7000, bytes(range(8)))
        before = world.stats.round_trips
        assert await handle.ioctl(cmd, 0x7000) == 0
        return world.stats.round_trips - before

    assert world.run(main()) == 2  # the op plus one copy round trip
    assert world.session.coverage_misses == 1
    assert dev.observed[0] == bytes(range(8))


def test_command_without_registry_uses_dir_size_parse():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("echodev")
        arg = world.client.alloc(24)
        world.client.arena.write(arg + 4, bytes(range(8)))
        before = world.stats.round_trips
        await handle.ioctl(0xDEAD, arg)  # unknown command: ENOTTY but parsed
        return world.stats.round_trips - before

    # dir bits of 0xDEAD are NONE, so nothing ships and no copies happen.
    assert world.run(main()) == 1
    assert world.session.coverage_misses == 0


# ---------------------------------------------------------------------------
# Transfers
# ---------------------------------------------------------------------------


def test_sensor_read_after_poll_is_one_round_trip():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("sensor")
        buf = world.client.alloc(16)
        await handle.poll(POLLIN)
        before = world.stats.round_trips
        n = await handle.read(buf, 12)
        return n, world.stats.round_trips - before, world.client.arena.read(buf, 12)

    n, trips, sample = world.run(main())
    assert n == 12
    assert trips == 1
    assert struct.unpack("<III", sample)[0] == 1


def test_zero_byte_write_is_well_formed():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("modem")
        buf = world.client.alloc(8)
        return await handle.write(buf, 0)

    assert world.run(main()) == -22  # modem rejects empty records


def test_modem_write_then_poll_completion():
    world = SimWorld(link="lan", sms_delay_ms=100.0)

    async def main():
        handle = await world.session.open("modem")
        rec = world.client.alloc(8)
        world.client.arena.write(rec, struct.pack("<I", 2) + b"abcd")
        n = await handle.write(rec, 8)
        got = await handle.poll(POLLIN)
        return n, got, world.now()

    n, got, when = world.run(main())
    assert n == 8
    assert got & POLLIN
    assert when < 300


# ---------------------------------------------------------------------------
# Poll modes
# ---------------------------------------------------------------------------


def test_nonblocking_poll_returns_immediately():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("modem")
        before = world.stats.round_trips
        got = await handle.poll(POLLIN, wait=False)
        return got, world.stats.round_trips - before, world.now()

    got, trips, when = world.run(main())
    assert got == 0
    assert trips == 1
    assert when < 20


def test_timeout_poll_observed_deadline_matches_request():
    # One-way 5 ms -> RTT estimate 10 ms once heartbeats flow.
    world = SimWorld(LinkConfig.mbps(5.0, None))

    async def main():
        handle = await world.session.open("modem")
        await world.kernel.sleep(1600)  # let the estimator settle
        est = world.session.estimator.estimate_ms
        start = world.now()
        got = await handle.poll(POLLIN, timeout_ms=50.0)
        return est, got, world.now() - start

    est, got, elapsed = world.run(main())
    assert est == pytest.approx(10.0)
    assert got == 0
    assert 48.0 <= elapsed <= 53.0  # about the requested 50, not 60


# ---------------------------------------------------------------------------
# RTT estimation
# ---------------------------------------------------------------------------


def test_estimator_seeds_with_first_sample_then_smooths():
    est = RttEstimator()
    assert est.update(8.0) == 8.0
    assert est.update(16.0) == pytest.approx(8.0 + 0.125 * 8.0)


def test_estimator_converges_on_constant_rtt():
    world = SimWorld(link="lan")

    async def main():
        await world.kernel.sleep(500 * 21)
        return world.session.estimator

    est = world.run(main())
    assert est.samples >= 20
    assert est.estimate_ms == pytest.approx(4.4, abs=0.1)


def test_disconnect_declared_about_three_intervals_after_last_ack():
    world = SimWorld(link="lan")

    async def main():
        await world.session.open("sensor")
        await world.kernel.sleep(1100)
        cut_at = world.now()
        world.cut_link()
        while world.session.live:
            await world.kernel.sleep(10)
        return world.now() - cut_at

    lag = world.run(main())
    interval = world.client.config.heartbeat_interval_ms
    assert 2 * interval <= lag <= 4.2 * interval


# ---------------------------------------------------------------------------
# Memory maps
# ---------------------------------------------------------------------------


def _setup_frames(world, count=3, width=640, height=480):
    async def setup():
        handle = await world.session.open("framesource")
        arg = world.client.alloc(12)
        world.client.arena.write(arg, struct.pack("<III", width, height, count))
        assert await handle.ioctl(FRAME_SETUP, arg) == 0
        region = await handle.mmap(count * width * height * 2)
        return handle, region
    return setup


def test_mmap_three_vga_buffers_450_invalid_pages():
    world = SimWorld(link="lan")

    async def main():
        handle, region = await _setup_frames(world)()
        client_region = world.session.dsm.region(region.region_id)
        states = {client_region.get(i) for i in range(region.npages)}
        return region.npages, states

    npages, states = world.run(main())
    assert npages == 450
    assert states == {PageState.INVALID}


def test_page_read_after_dma_under_invalidate_fetches_pattern():
    world = SimWorld(link="lan", dsm_policy=Policy.INVALIDATE)

    async def main():
        handle, region = await _setup_frames(world)()
        idx = await handle.ioctl(FRAME_DQ)
        assert idx == 0
        fetches_before = world.session.dsm.stats["fetches"]
        got = await region.page_read(region.base, 4096)
        fetches = world.session.dsm.stats["fetches"] - fetches_before
        return got, fetches

    got, fetches = world.run(main())
    assert fetches == 1
    assert got == frame_pattern(0, 614_400)[:4096]


def test_a_read_of_the_whole_three_buffer_region_is_one_fetch_across_its_pieces():
    world = SimWorld(link="lan", dsm_policy=Policy.INVALIDATE)
    sent = []

    async def main():
        handle, region = await _setup_frames(world)()
        for frame in range(3):
            assert await handle.ioctl(FRAME_DQ) == frame
        server = next(iter(world.server.sessions.values()))
        pieces = [len(piece) for piece in server.dsm.region(region.region_id).store.pieces]
        send = world.session.dsm.send
        world.session.dsm.send = lambda body: (sent.append(body), send(body))[1]
        installs = world.session.dsm.stats["installs"]
        got = await region.page_read(region.base, 3 * 614_400)
        return pieces, got, world.session.dsm.stats["installs"] - installs, region.region_id

    pieces, got, installs, region_id = world.run(main())
    assert pieces == [614_400] * 3  # each device buffer's pages are one piece
    assert sent == [PageFetch(region_id, 0, False, 450)]
    assert installs == 450
    assert got == b"".join(frame_pattern(frame, 614_400) for frame in range(3))


def test_page_read_under_update_push_costs_no_fetch():
    world = SimWorld(link="lan", dsm_policy=Policy.UPDATE_PUSH)

    async def main():
        handle, region = await _setup_frames(world)()
        idx = await handle.ioctl(FRAME_DQ)
        assert idx == 0
        fetches_before = world.session.dsm.stats["fetches"]
        got = await region.page_read(region.base, 614_400)
        return got, world.session.dsm.stats["fetches"] - fetches_before

    got, fetches = world.run(main())
    assert fetches == 0  # the batch already arrived with the dequeue
    assert got == frame_pattern(0, 614_400)


def test_global_buffer_readthrough_after_capture():
    from rio.devices import FRAME_CAPTURE
    world = SimWorld(link="lan", dsm_policy=Policy.INVALIDATE)

    async def main():
        handle = await world.session.open("framesource")
        gbuf = await handle.alloc_global_buffer(614_400, buffer_id=7)
        server_region = next(iter(world.server.sessions.values())).dsm.region(
            gbuf.region_id)
        assert server_region.npages == 150
        client_region = world.session.dsm.region(gbuf.region_id)
        assert client_region.get(0) == PageState.READ_WRITE
        assert await handle.ioctl(FRAME_CAPTURE, 7) == 0
        data = await gbuf.page_read(gbuf.base, 614_400)
        return data

    data = world.run(main())
    assert data == frame_pattern(1, 614_400)


def test_global_buffer_size_zero_rejected():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("framesource")
        with pytest.raises(ValueError):
            await handle.alloc_global_buffer(0, buffer_id=1)
        return True

    assert world.run(main())


def test_duplicate_global_buffer_id_rejected():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("framesource")
        await handle.alloc_global_buffer(4096, buffer_id=3)
        with pytest.raises(Exception):
            await handle.alloc_global_buffer(4096, buffer_id=3)
        return True

    assert world.run(main())


# ---------------------------------------------------------------------------
# Disconnection and fallback
# ---------------------------------------------------------------------------


def test_sensor_poll_read_survives_mid_sequence_disconnect():
    world = SimWorld(link="lan")
    world.client.register_local_fallback("sensor", SensorDevice(world.kernel))

    async def main():
        handle = await world.session.open("sensor")
        buf = world.client.alloc(16)
        cycle_times = []
        for i in range(14):
            if i == 5:
                world.cut_link()
            await handle.poll(POLLIN)
            n = await handle.read(buf, 12)
            assert n == 12
            cycle_times.append(world.now())
        return handle.state, cycle_times

    state, times = world.run(main())
    assert state is HandleState.FALLING_BACK
    deltas = [b - a for a, b in zip(times, times[1:])]
    # Cycles stay sample-paced apart from the one disconnect-detection gap.
    assert sum(1 for d in deltas if d > 300) <= 1
    assert all(60 <= d <= 80 for d in deltas if d <= 300)


def test_modem_in_flight_call_drops_with_error():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("modem")
        rec = world.client.alloc(8)
        world.client.arena.write(rec, struct.pack("<I", 1) + b"x" * 4)
        await handle.write(rec, 8)
        world.cut_link()
        with pytest.raises(DisconnectedError):
            await handle.poll(POLLIN)
        start = world.now()
        with pytest.raises(DisconnectedError):
            await handle.read(rec, 8)  # immediate, no hang
        return handle.state, world.now() - start

    state, second_op = world.run(main())
    assert state is HandleState.FAILED
    assert second_op == 0.0


def test_disconnect_with_no_inflight_op_next_op_follows_rules():
    world = SimWorld(link="lan")
    world.client.register_local_fallback("sensor", SensorDevice(world.kernel))

    async def main():
        sensor = await world.session.open("sensor")
        modem = await world.session.open("modem")
        world.cut_link()
        while world.session.live:
            await world.kernel.sleep(50)
        got = await sensor.poll(POLLIN)  # served locally
        with pytest.raises(DisconnectedError):
            await modem.poll(POLLIN, wait=False)
        return got

    assert world.run(main()) & POLLIN


class RecordingSensor(SensorDevice):
    """A sensor that keeps every descriptor it opens."""

    def __init__(self, kernel):
        super().__init__(kernel)
        self.descs = []

    async def open(self, flags=0):
        desc = await super().open(flags)
        self.descs.append(desc)
        return desc


def test_fallback_poll_waits_the_full_timeout():
    world = SimWorld(link="lan")
    world.client.register_local_fallback("sensor", SensorDevice(world.kernel))

    async def main():
        handle = await world.session.open("sensor")
        world.cut_link()
        while world.session.live:
            await world.kernel.sleep(50)
        opened = world.now()  # the first local op opens the local twin
        timed_out = await handle.poll(POLLIN, timeout_ms=40)
        timed_out_after = world.now() - opened
        ready = await handle.poll(POLLIN)
        return timed_out, timed_out_after, ready, world.now() - opened

    timed_out, timed_out_after, ready, ready_after = world.run(main())
    # No link: the local wait is not shortened by the RTT estimate.
    assert timed_out == 0 and timed_out_after == pytest.approx(40.0, abs=1e-9)
    # The local sample falls due one cadence after the local open.
    assert ready == POLLIN and ready_after == pytest.approx(65.0, abs=1e-9)


def test_close_after_fallback_releases_the_local_descriptor():
    world = SimWorld(link="lan")
    local = RecordingSensor(world.kernel)
    world.client.register_local_fallback("sensor", local)

    async def main():
        handle = await world.session.open("sensor")
        buf = world.client.alloc(16)
        world.cut_link()
        for _ in range(60):
            await handle.poll(POLLIN)
            assert await handle.read(buf, 12) == 12
        assert handle.state is HandleState.FALLING_BACK
        await handle.close()

    world.run(main())
    (desc,) = local.descs
    assert desc.closed
    assert ("release", desc.desc_id) in local.op_log
    samples = desc.seq
    world.advance(1000.0)
    assert desc.seq == samples  # a released sensor produces nothing more


def test_close_of_a_mapped_handle_ends_closed_when_the_link_dies_during_it():
    world = SimWorld(link="lan", dsm_policy=Policy.INVALIDATE)

    async def main():
        handle, region = await _setup_frames(world)()
        world.cut_link()
        await handle.close()  # its unmap waits until the disconnect is declared
        return handle, region

    handle, region = world.run(main())
    assert not world.session.live
    assert handle.state is HandleState.CLOSED
    assert handle not in world.session.handles
    assert not handle.regions and region.region_id not in world.session.dsm.regions


def test_closed_handles_leave_the_session():
    world = SimWorld(link="lan")

    async def main():
        kept = await world.session.open("echodev")
        for _ in range(200):
            handle = await world.session.open("echodev")
            await handle.close()
        return kept

    kept = world.run(main())
    assert list(world.session.handles) == [kept]


def test_blocking_poll_returns_about_due_time_plus_half_rtt():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("sensor")
        buf = world.client.alloc(16)
        await handle.poll(POLLIN)
        await handle.read(buf, 12)  # consume; next sample re-armed on delivery
        # The next sample falls due one cadence after the read lands.
        start = world.now()
        await handle.poll(POLLIN)
        return world.now() - start

    waited = world.run(main())
    # due-in ~(65 - half RTT) from poll issue, plus the response leg home
    assert 60.0 <= waited <= 65.0 + 4.4 * 2


def test_mmap_length_mismatch_rejected():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("framesource")
        arg = world.client.alloc(12)
        world.client.arena.write(arg, struct.pack("<III", 640, 480, 3))
        assert await handle.ioctl(FRAME_SETUP, arg) == 0
        with pytest.raises(Exception):
            await handle.mmap(1234)  # not count * buffer size
        return True

    assert world.run(main())
    assert world.census()["regions"] == 0


def test_frame_setup_rejects_bad_dimensions():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("framesource")
        arg = world.client.alloc(12)
        world.client.arena.write(arg, struct.pack("<III", 0, 480, 3))
        return await handle.ioctl(FRAME_SETUP, arg)

    assert world.run(main()) == -22


def test_open_on_dead_session_raises_immediately():
    world = SimWorld(link="lan")

    async def main():
        world.cut_link()
        while world.session.live:
            await world.kernel.sleep(50)
        with pytest.raises(DisconnectedError):
            await world.session.open("sensor")
        return True

    assert world.run(main())


def test_average_latency_preset_usable_end_to_end():
    world = SimWorld(link="lan_avg")

    async def main():
        handle = await world.session.open("sensor")
        buf = world.client.alloc(16)
        times = []
        for _ in range(10):
            await handle.poll(POLLIN)
            await handle.read(buf, 12)
            times.append(world.now())
        deltas = [b - a for a, b in zip(times, times[1:])]
        return sum(deltas) / len(deltas)

    mean = world.run(main())
    assert mean == pytest.approx(65.0 + 1.5 * 13.8, abs=1.0)


def test_sms_with_zero_carrier_delay_completes_at_protocol_cost():
    world = SimWorld(link="lan", sms_delay_ms=0.0)

    async def main():
        handle = await world.session.open("modem")
        rec = world.client.alloc(8)
        world.client.arena.write(rec, struct.pack("<I", 2) + b"dest")
        start = world.now()
        await handle.write(rec, 8)
        await handle.poll(POLLIN)
        return world.now() - start

    elapsed = world.run(main())
    assert elapsed <= 3 * 4.4  # a couple of round trips, no carrier time


def test_zero_byte_write_round_trips_with_count_zero():
    from rio.devices import Device

    class SinkDevice(Device):
        class_name = "sink"

        async def write(self, desc, addr, length, mem):
            if length:
                await mem.copy_from_user(addr, length)
            return length

    world = SimWorld(link="lan")
    world.server.devices["sink"] = SinkDevice(world.kernel)

    async def main():
        handle = await world.session.open("sink")
        buf = world.client.alloc(8)
        before = world.stats.round_trips
        count = await handle.write(buf, 0)
        return count, world.stats.round_trips - before

    count, trips = world.run(main())
    assert count == 0
    assert trips == 1


def test_close_fails_an_op_in_flight():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("sensor")
        poll = world.kernel.spawn(handle.poll(POLLIN), "poll")
        await world.kernel.sleep(1.0)  # the request is still on the link
        assert len(world.session.pending) == 1
        await world.session.close()
        await world.kernel.sleep(100.0)  # deliver the cleanup notice
        return poll

    poll = world.run(main())
    assert poll.done()
    with pytest.raises(DisconnectedError):
        poll.result()
    assert not world.session.pending
    assert not any(world.census().values())


# ---------------------------------------------------------------------------
# The page path: push snapshots and reads by runs
# ---------------------------------------------------------------------------


def test_update_push_carries_the_frame_as_it_was_at_dma_time():
    world = SimWorld(link="lan", dsm_policy=Policy.UPDATE_PUSH)
    overwrites = []

    async def main():
        handle, region = await _setup_frames(world)()
        server = next(iter(world.server.sessions.values()))
        dma_complete = server._dma_complete

        def dma_then_overwrite(region_id, offset, length):
            installs = world.session.dsm.stats["installs"]
            dma_complete(region_id, offset, length)
            # The device fills the buffer again before the batch arrives.
            store = server.dsm.region(region_id).store
            for page in range(offset // PAGE_SIZE, (offset + length - 1) // PAGE_SIZE + 1):
                store.run(page, 1)[0][:] = b"\xee" * PAGE_SIZE
            overwrites.append(world.session.dsm.stats["installs"] - installs)

        server._dma_complete = dma_then_overwrite
        idx = await handle.ioctl(FRAME_DQ)
        got = await region.page_read(region.base + idx * 614_400, 614_400)
        return got, bytes(server.dsm.region(region.region_id).store.run(0, 1)[0])

    got, server_page = world.run(main())
    assert overwrites == [0]  # overwritten before the client installed anything
    assert server_page == b"\xee" * PAGE_SIZE
    assert got == frame_pattern(0, 614_400)


def _page_spans(region, addr, length):
    """(page, address, length) of each page's part of ``[addr, addr + length)``."""
    pos, end = addr, addr + length
    while pos < end:
        page = (pos - region.base) // PAGE_SIZE
        take = min(end, region.base + (page + 1) * PAGE_SIZE) - pos
        yield page, pos, take
        pos += take


async def _per_page_read(region, addr, length):
    """The reference read: each page acquired on its own, then read alone."""
    session = region.session
    parts = []
    for page, pos, take in _page_spans(region, addr, length):
        await session._acquire_page(region.region_id, page, False)
        parts.append(session.client.arena.read(pos, take))
    return b"".join(parts)


async def _page_read(region, addr, length):
    return await region.page_read(addr, length)


MIXED_WRITE = bytes((7 * i + 3) & 0xFF for i in range(6 * PAGE_SIZE))


async def _per_page_write(region, addr, length):
    """The reference write: each page acquired for writing on its own, then
    written alone through the arena."""
    session, data = region.session, MIXED_WRITE[:length]
    for page, pos, take in _page_spans(region, addr, length):
        await session._acquire_page(region.region_id, page, True)
        session.client.arena.write(pos, data[pos - addr : pos - addr + take])


async def _page_write(region, addr, length):
    await region.page_write(addr, MIXED_WRITE[:length])


async def _mixed_invalidate_region(world):
    """Pages 0-6 of a frame buffer, in order: invalid, read-only, read-only,
    read-write, invalid, invalid with a fetch in flight, invalid."""
    handle, region = await _setup_frames(world)()
    assert await handle.ioctl(FRAME_DQ) == 0
    base = region.base
    await region.page_read(base + PAGE_SIZE, 2 * PAGE_SIZE)
    await region.page_write(base + 3 * PAGE_SIZE + 10, b"rw")
    world.kernel.spawn(region.page_read(base + 5 * PAGE_SIZE, 8))
    await world.kernel.sleep(0)
    return region, [PageState.INVALID, PageState.READ_ONLY, PageState.READ_ONLY,
                    PageState.READ_WRITE, PageState.INVALID, PageState.INVALID,
                    PageState.INVALID]


async def _mixed_push_region(world):
    """Pages 0-6 all read-only from an update batch, while page 5's fetch,
    sent before the batch arrived, is still in flight."""
    handle, region = await _setup_frames(world)()
    world.kernel.spawn(handle.ioctl(FRAME_DQ))
    world.kernel.spawn(region.page_read(region.base + 5 * PAGE_SIZE, 8))
    states = world.session.dsm.region(region.region_id).states
    while states[5] != PageState.READ_ONLY:
        await world.kernel.sleep(0.1)
    return region, [PageState.READ_ONLY] * 7


def _over_mixed_pages(policy, prepare, access):
    """Run ``access(region, addr, length)`` from mid page 0 to mid page 6 of
    the region ``prepare`` sets up.  Returns what it returned, when it
    finished, every coherence body either side sent during it, the client's
    page states then, the server's once what it sent has arrived, and the
    client's bytes of the pages."""
    world = SimWorld(link="lan", dsm_policy=policy)
    sent = []

    def record(node):
        send = node.send

        def recording_send(body):
            sent.append((node.side, world.now(), type(body).__name__,
                         getattr(body, "page", None), tuple(getattr(body, "pages", ()))))
            send(body)
        node.send = recording_send

    async def main():
        region, states = await prepare(world)
        dsm = world.session.dsm
        client_states = dsm.region(region.region_id).states
        assert client_states[:7] == states
        assert set(dsm._pending) == {(region.region_id, 5)}
        server_dsm = next(iter(world.server.sessions.values())).dsm
        record(dsm)
        record(server_dsm)
        got = await access(region, region.base + 100, 6 * PAGE_SIZE)
        done, done_states = world.now(), client_states[:7]
        await world.kernel.sleep(50)
        return (got, done, sent, done_states, server_dsm.region(region.region_id).states[:7],
                bytes(region.view[: 7 * PAGE_SIZE]))

    return world.run(main())


@pytest.mark.parametrize("policy,prepare,fetched", [
    pytest.param(Policy.INVALIDATE, _mixed_invalidate_region, [0, 4, 6], id="invalidate"),
    pytest.param(Policy.UPDATE_PUSH, _mixed_push_region, [], id="update_push"),
])
def test_page_read_by_runs_matches_the_per_page_reference(policy, prepare, fetched):
    result = _over_mixed_pages(policy, prepare, _page_read)
    got, _, sent, _, _, _ = result
    want = bytearray(frame_pattern(0, 614_400)[: 7 * PAGE_SIZE])
    if policy == Policy.INVALIDATE:
        want[3 * PAGE_SIZE + 10 : 3 * PAGE_SIZE + 12] = b"rw"
    assert got == bytes(want[100 : 100 + 6 * PAGE_SIZE])
    assert [page for side, _, kind, page, _ in sent
            if side == "client" and kind == "PageFetch"] == fetched
    assert result == _over_mixed_pages(policy, prepare, _per_page_read)


@pytest.mark.parametrize("policy,prepare,claims", [
    pytest.param(Policy.INVALIDATE, _mixed_invalidate_region,
                 [("PageFetch", 0), ("PageInvalidate", 1), ("PageInvalidate", 2),
                  ("PageFetch", 4), ("PageInvalidate", 5), ("PageFetch", 6)],
                 id="invalidate"),
    pytest.param(Policy.UPDATE_PUSH, _mixed_push_region,
                 [("PageInvalidate", page) for page in range(7)], id="update_push"),
])
def test_page_write_by_runs_matches_the_per_page_reference(policy, prepare, claims):
    result = _over_mixed_pages(policy, prepare, _page_write)
    _, _, sent, client_states, server_states, written = result
    want = bytearray(frame_pattern(0, 614_400)[: 7 * PAGE_SIZE])
    want[100 : 100 + 6 * PAGE_SIZE] = MIXED_WRITE
    assert written == want
    assert [(kind, page) for side, _, kind, page, _ in sent if side == "client"] == claims
    assert client_states == [PageState.READ_WRITE] * 7
    assert server_states == [PageState.INVALID] * 7
    assert result == _over_mixed_pages(policy, prepare, _per_page_write)


@pytest.mark.parametrize("link,width,height,policy", [
    pytest.param("wan", 640, 480, Policy.INVALIDATE, id="vga-wan"),
    pytest.param("lan", 1920, 1080, Policy.INVALIDATE, id="1080p-lan"),
    pytest.param("wan", 640, 480, Policy.UPDATE_PUSH, id="vga-wan-push"),
    pytest.param("lan", 1920, 1080, Policy.UPDATE_PUSH, id="1080p-lan-push"),
])
def test_a_whole_frame_read_keeps_the_session_live(link, width, height, policy):
    # The frame crosses the link as one message, a fetch reply or a push,
    # that takes seconds on these links; the heartbeat acks pass it a
    # piece at a time, so the session stays inside its heartbeat horizon.
    frame_bytes = width * height * 2
    buffer_bytes = -(-frame_bytes // PAGE_SIZE) * PAGE_SIZE
    world = SimWorld(link, dsm_policy=policy)

    async def drive():
        handle = await world.session.open("framesource")
        arg = world.client.alloc(12)
        world.client.arena.write(arg, struct.pack("<III", width, height, 3))
        assert await handle.ioctl(FRAME_SETUP, arg) == 0
        region = await handle.mmap(3 * buffer_bytes)
        idx = await handle.ioctl(FRAME_DQ)
        return await region.page_read(region.base + idx * buffer_bytes, frame_bytes)

    assert world.run(drive()) == frame_pattern(0, frame_bytes)
    assert world.session.live
    world.advance(2000.0)  # past the heartbeat horizon once more
    assert world.session.live


# ---------------------------------------------------------------------------
# Shadow memory: one buffer per mapped region, aliased by the arena
# ---------------------------------------------------------------------------

VGA_FRAME = 640 * 480 * 2  # 150 whole pages


@pytest.mark.parametrize("policy", [Policy.UPDATE_PUSH, Policy.INVALIDATE],
                         ids=["push", "invalidate"])
def test_a_read_frame_keeps_its_bytes_when_the_next_frame_fills_its_buffer(policy):
    world = SimWorld(link="lan", dsm_policy=policy)

    async def main():
        handle, region = await _setup_frames(world, count=1)()
        frames = []
        for _ in range(2):
            assert await handle.ioctl(FRAME_DQ) == 0  # one buffer: frame 1 overwrites frame 0
            frames.append(await region.page_read(region.base, VGA_FRAME))
        return frames

    first, second = world.run(main())
    assert type(first) is bytes and type(second) is bytes
    assert first == frame_pattern(0, VGA_FRAME)
    assert second == frame_pattern(1, VGA_FRAME)


def test_the_arena_and_a_mapped_region_see_the_same_bytes():
    # Copy requests and prefetch read and write process memory through the
    # arena; coherence installs into, and page_read reads, the region's buffer.
    world = SimWorld(link="lan", dsm_policy=Policy.INVALIDATE)
    arena = world.client.arena

    async def main():
        handle, region = await _setup_frames(world, count=1)()
        assert await handle.ioctl(FRAME_DQ) == 0
        read = await region.page_read(region.base, VGA_FRAME)  # fetched and installed
        installed = arena.read(region.base, VGA_FRAME)
        arena.write(region.base + PAGE_SIZE - 2, b"wxyz")  # across a page boundary
        stored = await region.page_read(region.base + PAGE_SIZE - 4, 8)
        return read, installed, stored

    read, installed, stored = world.run(main())
    want = frame_pattern(0, VGA_FRAME)
    assert installed == read == want
    around = PAGE_SIZE - 4
    assert stored == want[around : around + 2] + b"wxyz" + want[around + 6 : around + 8]


@pytest.mark.parametrize("end", ["link-cut", "session-closed"])
def test_a_handle_closed_after_its_session_ended_leaves_no_region_mapped(end):
    world = SimWorld(link="lan")
    arena = world.client.arena

    async def main():
        handle, region = await _setup_frames(world, count=1)()
        assert await handle.ioctl(FRAME_DQ) == 0
        assert await region.page_read(region.base, VGA_FRAME) == frame_pattern(0, VGA_FRAME)
        if end == "link-cut":
            world.cut_link()
            await world.kernel.sleep(3000.0)  # past the heartbeat horizon
            assert not world.session.live
        else:
            await world.session.close()
        await handle.close()
        return range(region.base // PAGE_SIZE, (region.base + VGA_FRAME) // PAGE_SIZE)

    region_pages = world.run(main())
    assert arena._chunks  # the FRAME_SETUP argument, outside the region
    assert not any(page in region_pages for page in arena._chunks)


def test_map_and_unmap_cycles_keep_client_memory_bounded():
    # The allocator never reuses an address, so only unmapping a region can
    # give its memory back.
    world = SimWorld(link="lan")

    async def cycle(handle):
        region = await handle.mmap(VGA_FRAME)
        assert await handle.ioctl(FRAME_DQ) == 0
        assert await region.page_read(region.base, VGA_FRAME) != bytes(VGA_FRAME)
        await region.unmap()

    async def main():
        handle, region = await _setup_frames(world, count=1)()
        await region.unmap()
        await cycle(handle)  # first-use allocations are not growth
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(30):
                await cycle(handle)
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    assert world.run(main()) < 2 * VGA_FRAME
