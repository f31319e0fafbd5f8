"""Server stub: dispatch, copy service, cleanup, liveness."""

import logging
import random
import struct

import pytest

from rio.client import Client, ClientConfig
from rio.devices import (
    AUDIO_HEADER,
    AUDIO_XFER_OUT,
    Device,
    ECHO_XFORM,
    FRAME_SETUP,
    MemoryContext,
    OP_LOG_MAX,
    POLLIN,
    io,
    iowr,
)
from rio.errors import DisconnectedError, RioError
from rio.memory import PAGE_SIZE, ByteArena
from rio.testbed import SimWorld, link_preset
from rio.wire import (
    COHERENCE_KINDS,
    Channel,
    CleanupNotice,
    CopyDir,
    CopyRequest,
    CopyResponse,
    FileOp,
    FileOpRequest,
    FileOpResponse,
    HEARTBEAT_INTERVAL_MS,
    HEARTBEAT_TIMEOUT_MS,
    Heartbeat,
    HeartbeatAck,
    Kind,
    Message,
    OpenAck,
    OpenRequest,
    PageData,
    PageFetch,
    PageInvalidate,
    PageUpdateBatch,
    SimulatedLink,
    decode_body,
    encode_body,
)


class ScriptedDevice(Device):
    """Runs a fixed list of memory operations inside one ioctl."""

    class_name = "scripted"

    def __init__(self, kernel, script):
        super().__init__(kernel)
        self.script = script
        self.observed = []

    async def ioctl(self, desc, cmd, arg, mem: MemoryContext) -> int:
        for step in self.script:
            if step[0] == "cfu":
                _, addr, length = step
                self.observed.append(await mem.copy_from_user(addr, length))
            elif step[0] == "ctu":
                _, addr, data = step
                await mem.copy_to_user(addr, data)
            else:
                _, addr, value, width = step
                await mem.put_user(addr, value, width)
        return 0


def world_with(device, **kwargs):
    world = SimWorld(link="lan", **kwargs)
    world.server.devices[device.class_name] = device
    return world


# ---------------------------------------------------------------------------
# Copy service
# ---------------------------------------------------------------------------


def test_full_prefetch_echodev_no_copy_requests_two_batch_entries():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("echodev")
        arg = world.client.alloc(24)
        world.client.arena.write(arg + 4, bytes(range(8)))
        resp_batches = []
        orig_dispatch = world.session._dispatch_message

        def spy(msg):
            if msg.kind == Kind.FILE_OP_RESPONSE:
                resp_batches.append(decode_body(msg).batch)
            orig_dispatch(msg)

        world.session._dispatch_message = spy
        assert await handle.ioctl(ECHO_XFORM, arg) == 0
        return resp_batches

    batches = world.run(main())
    assert world.session.coverage_misses == 0
    assert world.server.stats.cache_misses == 0
    (batch,) = batches
    assert len(batch) == 2  # the 4-byte counter store and the 12-byte output
    assert (batch[0][0], len(batch[0][1])) == (world.client.allocator._next - 24, 4)
    assert len(batch[1][1]) == 12


def test_stale_prefetch_rule_server_sees_cleared_result():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("audio")
        hdr = world.client.alloc(16)
        data = world.client.alloc(64)
        world.client.arena.write(data, bytes(16))
        world.client.arena.write(hdr, AUDIO_HEADER.pack(0xDEADBEEF, data, 4))
        assert await handle.ioctl(AUDIO_XFER_OUT, hdr) == 4
        device = world.server.devices["audio"]
        desc = next(iter(world.server.sessions.values())).descs
        entry = next(iter(desc.values()))
        return entry.desc.last_header, world.client.arena.read(hdr, 4)

    header, client_result = world.run(main())
    assert header[0] == 0  # server-side copy observed the cleared field
    assert client_result == b"\x00\x00\x00\x00"  # batch replayed it home
    assert world.server.stats.cache_misses == 0


def test_pcm_style_four_copies_still_one_round_trip():
    cmd = iowr(ord("S"), 1, 8)
    ranges = [(0x7000, 8), (0x8000, 16), (0x9000, 4), (0xA000, 32)]
    script = [("cfu", addr, length) for addr, length in ranges]

    world = SimWorld(link="lan")
    dev = ScriptedDevice(world.kernel, script)
    world.server.devices["scripted"] = dev
    world.client.registry[("scripted", 1)] = lambda c, a, arena: ranges

    async def main():
        handle = await world.session.open("scripted")
        for addr, length in ranges:
            world.client.arena.write(addr, bytes(range(length)))
        before = world.stats.round_trips
        assert await handle.ioctl(cmd, 0x7000) == 0
        return world.stats.round_trips - before

    assert world.run(main()) == 1
    assert world.server.stats.cache_misses == 0
    assert dev.observed[1] == bytes(range(16))


def test_partial_miss_fetches_only_missing_range():
    cmd = iowr(ord("S"), 2, 8)
    world = SimWorld(link="lan")
    dev = ScriptedDevice(world.kernel, [("cfu", 0x7000, 16)])
    world.server.devices["scripted"] = dev
    world.client.registry[("scripted", 2)] = lambda c, a, arena: [(0x7000, 8)]

    async def main():
        handle = await world.session.open("scripted")
        world.client.arena.write(0x7000, bytes(range(16)))
        assert await handle.ioctl(cmd, 0x7000) == 0

    world.run(main())
    assert list(world.session.coverage_log) == [(0x7008, 8)]  # only the gap
    assert world.server.stats.cache_misses == 1
    assert dev.observed[0] == bytes(range(16))


def test_zero_length_copy_costs_nothing():
    cmd = iowr(ord("S"), 3, 8)
    world = SimWorld(link="lan", optimize=False)
    dev = ScriptedDevice(world.kernel, [("cfu", 0x7000, 0)])
    world.server.devices["scripted"] = dev

    async def main():
        handle = await world.session.open("scripted")
        before = world.stats.round_trips
        assert await handle.ioctl(cmd, 0) == 0
        return world.stats.round_trips - before

    assert world.run(main()) == 1  # just the op itself
    assert world.server.stats.cache_misses == 0


def test_copy_round_limit_aborts_pathological_op():
    cmd = iowr(ord("S"), 4, 8)
    script = [("cfu", 0x1000 * i, 4) for i in range(1, 20)]
    world = SimWorld(link="lan", optimize=False)
    world.server.devices["scripted"] = ScriptedDevice(world.kernel, script)

    async def main():
        handle = await world.session.open("scripted")
        return await handle.ioctl(cmd, 0)

    assert world.run(main()) == -22  # aborted with an error result
    assert world.census()["cache_entries"] == 0


def test_batch_replay_equals_device_issue_order():
    rng = random.Random(42)
    script = []
    for _ in range(30):
        addr = 0x5000 + rng.randrange(0, 64)
        if rng.random() < 0.5:
            script.append(("ctu", addr, rng.randbytes(rng.randint(1, 24))))
        else:
            script.append(("put", addr, rng.getrandbits(32), 4))
    cmd = iowr(ord("S"), 5, 8)
    world = SimWorld(link="lan")
    world.server.devices["scripted"] = ScriptedDevice(world.kernel, script)

    async def main():
        handle = await world.session.open("scripted")
        assert await handle.ioctl(cmd, 0) == 0

    world.run(main())
    oracle = ByteArena()  # serial replay of the same stores
    for step in script:
        if step[0] == "ctu":
            oracle.write(step[1], step[2])
        else:
            oracle.write(step[1], step[2].to_bytes(step[3], "little"))
    assert world.client.arena.read(0x5000, 128) == oracle.read(0x5000, 128)


# ---------------------------------------------------------------------------
# Heartbeats
# ---------------------------------------------------------------------------


def test_heartbeat_ack_echoes_sequence():
    world = SimWorld(link="lan")
    acks = []
    orig = world.session._dispatch_message

    def spy(msg):
        if msg.kind == Kind.HEARTBEAT_ACK:
            acks.append(decode_body(msg).echo_seq)
        orig(msg)

    world.session._dispatch_message = spy

    async def main():
        await world.kernel.sleep(1700)

    world.run(main())
    assert acks[:4] == [0, 1, 2, 3]


def test_heartbeat_answered_during_blocking_poll():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("modem")  # no completion pending
        poll_task = world.kernel.spawn(handle.poll(POLLIN))
        await world.kernel.sleep(3000)  # several heartbeat intervals
        alive = world.session.live
        poll_task.cancel()
        return alive

    assert world.run(main())  # acks kept flowing; no disconnect declared


def test_server_cleans_up_after_heartbeat_silence():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("sensor")
        await world.kernel.sleep(100)
        world.cut_link()
        return handle

    world.run(main())
    world.kernel.run_until(100 + HEARTBEAT_TIMEOUT_MS + HEARTBEAT_INTERVAL_MS + 100)
    assert world.server.stats.cleanups
    assert world.server.stats.cleanups[0][1] == "HeartbeatTimeout"
    assert all(v == 0 for v in world.census().values())


# ---------------------------------------------------------------------------
# Cleanup semantics
# ---------------------------------------------------------------------------


def test_cleanup_runs_close_map_before_releases():
    world = SimWorld(link="lan")
    shared_log = []
    for dev in world.server.devices.values():
        dev.op_log = shared_log

    async def main():
        fs = await world.session.open("framesource")
        arg = world.client.alloc(12)
        world.client.arena.write(arg, struct.pack("<III", 64, 64, 1))
        assert await fs.ioctl(FRAME_SETUP, arg) == 0
        await fs.mmap(64 * 64 * 2)
        await world.session.open("sensor")
        await world.kernel.sleep(50)
        world.cut_link()

    world.run(main())
    world.kernel.run_until(60 + HEARTBEAT_TIMEOUT_MS + 600)
    names = [op for op, _ in shared_log if op in ("close_map", "release")]
    assert names == ["close_map", "release", "release"]
    assert all(v == 0 for v in world.census().values())


def test_double_cleanup_is_idempotent():
    world = SimWorld(link="lan")

    async def main():
        await world.session.open("echodev")
        await world.kernel.sleep(10)

    world.run(main())
    session = next(iter(world.server.sessions.values()))
    session.cleanup("ClientClose")
    session.cleanup("ClientClose")
    world.kernel.run_until(world.now() + 50)
    assert len(world.server.stats.cleanups) == 1
    assert all(v == 0 for v in world.census().values())


def test_disconnect_during_blocking_poll_then_fresh_open():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("sensor")
        buf = world.client.alloc(16)
        await handle.poll(POLLIN)
        await handle.read(buf, 12)
        world.cut_link()
        with pytest.raises(DisconnectedError):
            await handle.poll(POLLIN)  # no fallback registered
        return handle

    world.run(main())
    world.kernel.run_until(world.now() + HEARTBEAT_TIMEOUT_MS + 600)
    assert all(v == 0 for v in world.census().values())
    session = world.new_session()

    async def reopen():
        handle = await session.open("sensor")
        got = await handle.poll(POLLIN)
        return got

    assert world.run(reopen()) & POLLIN
    devlog = [op for op, _ in world.server.devices["sensor"].op_log]
    assert devlog.count("release") >= 1  # cleanup released the old descriptor


def test_client_close_notice_triggers_cleanup():
    world = SimWorld(link="lan")

    async def main():
        await world.session.open("echodev")
        await world.session.close()
        await world.kernel.sleep(50)

    world.run(main())
    assert list(world.server.stats.cleanups) == [(world.session.session_id, "ClientClose")]
    assert all(v == 0 for v in world.census().values())


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


def test_sessions_do_not_share_descriptors_or_caches():
    world = SimWorld(link="lan")
    second = world.new_session()

    async def main():
        h1 = await world.session.open("echodev")
        h2 = await second.open("echodev")
        assert h1.desc != h2.desc
        a1 = world.client.alloc(24)
        a2 = world.client.alloc(24)
        world.client.arena.write(a1 + 4, bytes(range(8)))
        world.client.arena.write(a2 + 4, bytes(range(8, 16)))
        t1 = world.kernel.spawn(h1.ioctl(ECHO_XFORM, a1))
        t2 = world.kernel.spawn(h2.ioctl(ECHO_XFORM, a2))
        assert await t1 == 0 and await t2 == 0
        return (world.client.arena.read(a1 + 12, 8), world.client.arena.read(a2 + 12, 8))

    out1, out2 = world.run(main())
    assert out1 == bytes((~i) & 0xFF for i in range(8))
    assert out2 == bytes((~i) & 0xFF for i in range(8, 16))
    assert len(world.server.sessions) == 2


def test_unknown_descriptor_gets_error_response():
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("echodev")
        handle.desc = 9999
        return await handle.ioctl(ECHO_XFORM, 0)

    assert world.run(main()) == -9  # EBADF


def test_photo_capture_is_one_push_of_1954_pages():
    from rio.devices import FRAME_CAPTURE
    world = SimWorld(link="loopback")

    async def main():
        handle = await world.session.open("framesource")
        await handle.alloc_global_buffer(8 * 10**6, buffer_id=1)
        session = next(iter(world.server.sessions.values()))
        before = session.dsm.stats["pushes"]
        assert await handle.ioctl(FRAME_CAPTURE, 1) == 0
        client_installs = world.session.dsm.stats["installs"]
        return session.dsm.stats["pushes"] - before, client_installs

    pushes, installs = world.run(main())
    assert pushes == 1        # the whole buffer rides one update batch
    assert installs == 1954   # ceil(8e6 / 4096) pages installed client-side


def test_sequence_gap_tears_down_session():
    world = SimWorld(link="lan")

    async def main():
        await world.session.open("echodev")
        # Skip a sequence number on the file-op channel.
        world.session._out_seq[Channel.FILE_OP] += 1
        from rio.wire import FileOp, FileOpRequest
        req = FileOpRequest(99, 1, FileOp.RELEASE)
        world.session._send(req)
        await world.kernel.sleep(200)

    world.run(main())
    assert world.server.stats.cleanups
    assert world.server.stats.cleanups[0][1] == "LinkDown"
    assert all(v == 0 for v in world.census().values())


def test_malformed_payload_tears_down_session():
    world = SimWorld(link="lan")

    async def main():
        await world.session.open("echodev")
        seq = world.session._out_seq[Channel.FILE_OP]
        world.session._out_seq[Channel.FILE_OP] += 1
        world.session.endpoint.send(Message(
            world.session.session_id, seq, Channel.FILE_OP,
            Kind.FILE_OP_REQUEST, b"\x01"))  # far too short
        await world.kernel.sleep(200)

    world.run(main())
    assert [c for _, c in world.server.stats.cleanups] == ["LinkDown"]


# Every non-coherence kind one side sends and the other never receives.
_NEVER_RECEIVED = {
    "server": [
        (Kind.FILE_OP_RESPONSE, FileOpResponse(1, 0)),
        (Kind.COPY_REQUEST, CopyRequest(1, CopyDir.FROM_USER, 0x1000, 8)),
        (Kind.HEARTBEAT_ACK, HeartbeatAck(0)),
        (Kind.OPEN_ACK, OpenAck(True, 1, 0)),
    ],
    "client": [
        (Kind.FILE_OP_REQUEST, FileOpRequest(1, 1, FileOp.READ)),
        (Kind.COPY_RESPONSE, CopyResponse(1)),
        (Kind.HEARTBEAT, Heartbeat()),
        (Kind.CLEANUP, CleanupNotice(0)),
        (Kind.OPEN, OpenRequest(0, "echodev")),
    ],
}


@pytest.mark.parametrize("receiver,kind,body", [
    pytest.param(side, kind, body, id=f"{side}-{kind.name}")
    for side, cases in _NEVER_RECEIVED.items() for kind, body in cases
])
def test_kind_the_receiver_never_gets_tears_the_session_down(receiver, kind, body, caplog):
    world = SimWorld(link="lan")

    async def main():
        await world.session.open("echodev")
        server_session = next(iter(world.server.sessions.values()))
        sender, target = ((world.session, server_session) if receiver == "server"
                          else (server_session, world.session))
        unexpected = set(Kind) - COHERENCE_KINDS - set(target._handlers)
        assert unexpected == {k for k, _ in _NEVER_RECEIVED[receiver]}
        sender._send(body)
        await world.kernel.sleep(50)

    with caplog.at_level(logging.INFO, logger="rio.client"):
        world.run(main())
    if receiver == "server":
        assert list(world.server.stats.cleanups) == [(1, "LinkDown")]
        assert all(v == 0 for v in world.census().values())
    else:
        assert not world.session.live
        assert "disconnect declared (protocol error)" in caplog.text
        assert not world.server.stats.cleanups


# Coherence bodies that name what the receiver does not hold: region 77,
# which no one registered, or page 5 of a live one-page region; and runs
# no receiver serves: no pages, a run past the one-page region's end, or
# two pages with ownership, asked of the two-page region next to it.
_FOREIGN_COHERENCE = {
    "fetch-unknown-region": lambda live: PageFetch(77, 0),
    "data-unknown-region": lambda live: PageData(77, 0, [bytes(PAGE_SIZE)]),
    "invalidate-unknown-region": lambda live: PageInvalidate(77, 0),
    "batch-unknown-region": lambda live: PageUpdateBatch(77, 0, [bytes(PAGE_SIZE)]),
    "fetch-past-the-end": lambda live: PageFetch(live, 5),
    "invalidate-past-the-end": lambda live: PageInvalidate(live, 5),
    "batch-past-the-end": lambda live: PageUpdateBatch(live, 5, [bytes(PAGE_SIZE)]),
    "fetch-of-no-pages": lambda live: PageFetch(live, 0, False, 0),
    "fetch-of-a-run-past-the-end": lambda live: PageFetch(live, 0, False, 2),
    "owning-fetch-of-a-run": lambda live: PageFetch(live + 1, 0, True, 2),
    "invalidate-of-no-pages": lambda live: PageInvalidate(live, 0, 0),
}
# What only the client sends wrong: only the server pushes pages, and a
# client's claim names one page.
_FOREIGN_TO_SERVER = {
    **_FOREIGN_COHERENCE,
    "batch-to-the-server": lambda live: PageUpdateBatch(live, 0, [b"X" * PAGE_SIZE]),
    "claim-of-two-pages": lambda live: PageInvalidate(live + 1, 0, 2),
}


async def _one_page_region(session):
    """The handle and a one-page global buffer (id 1); buffer 2, the next
    region id, spans two pages."""
    handle = await session.open("framesource")
    region = await handle.alloc_global_buffer(PAGE_SIZE, buffer_id=1)
    await handle.alloc_global_buffer(2 * PAGE_SIZE, buffer_id=2)
    return handle, region


@pytest.mark.parametrize("make_body", _FOREIGN_TO_SERVER.values(), ids=_FOREIGN_TO_SERVER)
def test_a_foreign_coherence_frame_drops_only_the_sending_session(make_body):
    world = SimWorld(link="lan")
    link = SimulatedLink(world.kernel, link_preset("lan"), rng=world.rng)
    world.server.attach(link.b)
    hostile = world.client.connect(link.a)
    server_bufs = []

    async def main():
        _, region = await _one_page_region(hostile)
        hostile_session = world.server.sessions[(link.b, hostile.session_id)]
        server_bufs.extend(ref.buf for ref in hostile_session.regions.values())
        hostile._send(make_body(region.region_id))
        await world.kernel.sleep(50)
        link.cut()  # the hostile client's later frames would open a new session
        handle = await world.session.open("echodev")
        arg = world.client.alloc(24)
        world.client.arena.write(arg + 4, bytes(range(8)))
        assert await handle.ioctl(ECHO_XFORM, arg) == 0
        await handle.close()
        await world.session.close()
        await world.kernel.sleep(50)
        return world.client.arena.read(arg + 12, 8)

    assert world.run(main()) == bytes((~i) & 0xFF for i in range(8))
    assert list(world.server.stats.cleanups) == [(hostile.session_id, "LinkDown"),
                                                 (world.session.session_id, "ClientClose")]
    assert all(v == 0 for v in world.census().values())
    assert [bytes(buf) for buf in server_bufs] == [bytes(PAGE_SIZE), bytes(2 * PAGE_SIZE)]


def test_a_session_the_server_tore_down_stays_down():
    world = SimWorld(link="lan")
    link = SimulatedLink(world.kernel, link_preset("lan"), rng=world.rng)
    world.server.attach(link.b)
    hostile = world.client.connect(link.a)

    async def main():
        await hostile.open("echodev")
        hostile._send(PageFetch(77, 0))
        # The client learns nothing, so it goes on sending heartbeats.
        await world.kernel.sleep(1400)

    world.run(main())
    assert hostile.live
    assert list(world.server.stats.cleanups) == [(hostile.session_id, "LinkDown")]
    assert [sid for _, sid in world.server.sessions] == [world.session.session_id]


def test_a_session_torn_down_by_its_first_frame_stays_down_on_a_fresh_channel():
    world = SimWorld(link="lan")
    link = SimulatedLink(world.kernel, link_preset("lan"), rng=world.rng)
    world.server.attach(link.b)
    hostile = world.client.connect(link.a)

    async def main():
        hostile._send(PageFetch(77, 0))
        # The open is the first frame on its channel, after the teardown;
        # unanswered, the client declares the link down.
        with pytest.raises(RioError):
            await hostile.open("echodev")

    world.run(main())
    assert not hostile.live
    assert list(world.server.stats.cleanups) == [(hostile.session_id, "LinkDown")]
    assert [sid for _, sid in world.server.sessions] == [world.session.session_id]
    # Nothing of the hostile session is left; the world's own session holds nothing.
    census = world.census()
    assert census == {**dict.fromkeys(census, 0), "sessions": 1}


def test_a_session_torn_down_stays_down_past_op_log_max_later_teardowns():
    world = SimWorld(link="lan")
    link = SimulatedLink(world.kernel, link_preset("lan"), rng=world.rng)
    world.server.attach(link.b)
    sessions = OP_LOG_MAX + 1
    for sid in range(1, sessions + 1):  # each torn down by its first frame
        link.a.send(Message(sid, 0, Channel.COHERENCE, Kind.PAGE_FETCH,
                            encode_body(PageFetch(77, 0))))
    world.advance(50)
    assert len(world.server.stats.cleanups) == OP_LOG_MAX
    link.a.send(Message(1, 0, Channel.HEARTBEAT, Kind.HEARTBEAT, encode_body(Heartbeat())))
    world.advance(50)
    assert [sid for _, sid in world.server.sessions] == [world.session.session_id]


@pytest.mark.parametrize("make_body", _FOREIGN_COHERENCE.values(), ids=_FOREIGN_COHERENCE)
def test_a_foreign_coherence_frame_is_a_protocol_error_at_the_client(make_body, caplog):
    world = SimWorld(link="lan")

    async def main():
        handle, region = await _one_page_region(world.session)
        server_session = next(iter(world.server.sessions.values()))
        server_session._send(make_body(region.region_id))
        await world.kernel.sleep(50)
        with pytest.raises(RioError):
            await handle.ioctl(FRAME_SETUP, 0)

    with caplog.at_level(logging.INFO, logger="rio.client"):
        world.run(main())
    assert not world.session.live
    assert "disconnect declared (protocol error)" in caplog.text


def test_two_clients_with_the_same_session_id_on_one_server():
    world = SimWorld(link="lan")
    other = Client(world.kernel, ClientConfig())
    link = SimulatedLink(world.kernel, link_preset("lan"), rng=world.rng)
    world.server.attach(link.b)
    second = other.connect(link.a)
    assert second.session_id == world.session.session_id

    async def echo(session, client, first):
        handle = await session.open("echodev")
        arg = client.alloc(24)
        client.arena.write(arg + 4, bytes(range(first, first + 8)))
        assert await handle.ioctl(ECHO_XFORM, arg) == 0
        await handle.close()
        await session.close()
        return client.arena.read(arg + 12, 8)

    async def main():
        t1 = world.kernel.spawn(echo(world.session, world.client, 0))
        t2 = world.kernel.spawn(echo(second, other, 8))
        return await t1, await t2

    out1, out2 = world.run(main())
    world.advance(100)
    assert out1 == bytes((~i) & 0xFF for i in range(8))
    assert out2 == bytes((~i) & 0xFF for i in range(8, 16))
    assert list(world.server.stats.cleanups) == [(1, "ClientClose")] * 2
    assert all(v == 0 for v in world.census().values())


def test_cleanup_and_coverage_logs_keep_the_last_op_log_max_entries():
    world = SimWorld(link="loopback", optimize=False)  # every copy_from_user misses
    ops = OP_LOG_MAX + 10

    async def main():
        handle = await world.session.open("echodev")
        arg = world.client.alloc(24)
        for _ in range(ops):
            assert await handle.ioctl(ECHO_XFORM, arg) == 0
        return arg

    arg = world.run(main())
    assert world.session.coverage_misses == ops
    assert list(world.session.coverage_log) == [(arg + 4, 8)] * OP_LOG_MAX

    last = OP_LOG_MAX + 11
    for sid in range(2, last + 1):  # each notice opens and closes one session
        world.link.a.send(Message(sid, 0, Channel.CONTROL, Kind.CLEANUP,
                                  encode_body(CleanupNotice(2))))
    world.advance(50)
    cleanups = world.server.stats.cleanups
    assert len(cleanups) == OP_LOG_MAX
    assert (cleanups[0], cleanups[-1]) == ((last - OP_LOG_MAX + 1, "ClientClose"),
                                           (last, "ClientClose"))
    assert len(world.server.sessions) == 1


def test_ops_serialized_per_descriptor_except_poll():
    world = SimWorld(link="lan")

    class SlowDevice(Device):
        class_name = "slow"

        def __init__(self, kernel):
            super().__init__(kernel)
            self.active = 0
            self.overlap = False
            self.poll_during_op = False

        async def ioctl(self, desc, cmd, arg, mem):
            self.active += 1
            self.overlap = self.overlap or self.active > 1
            await self.kernel.sleep(50)
            self.active -= 1
            return 0

        async def poll(self, desc, events, wait, mem):
            self.poll_during_op = self.poll_during_op or self.active > 0
            return POLLIN

    dev = SlowDevice(world.kernel)
    world.server.devices["slow"] = dev

    async def main():
        handle = await world.session.open("slow")
        a = world.kernel.spawn(handle.ioctl(io(ord("Z"), 1), 0))
        b = world.kernel.spawn(handle.ioctl(io(ord("Z"), 1), 0))
        await world.kernel.sleep(30)
        got = await handle.poll(POLLIN)  # runs while an ioctl is mid-flight
        await a
        await b
        return got

    assert world.run(main()) & POLLIN
    assert not dev.overlap          # ioctls never overlapped on one descriptor
    assert dev.poll_during_op       # but the poll ran alongside one


def test_device_handler_bug_yields_error_not_hang():
    world = SimWorld(link="lan")

    class BuggyDevice(Device):
        class_name = "buggy"

        async def ioctl(self, desc, cmd, arg, mem):
            raise RuntimeError("driver bug")

    world.server.devices["buggy"] = BuggyDevice(world.kernel)

    async def main():
        handle = await world.session.open("buggy")
        start = world.now()
        result = await handle.ioctl(io(ord("Z"), 2), 0)
        return result, world.now() - start

    result, elapsed = world.run(main())
    assert result == -5  # EIO, not a hang until the disconnect horizon
    assert elapsed < 100
