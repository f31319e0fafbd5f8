"""Reference devices driven directly (no stubs): contracts and timing."""

import os
import struct
import subprocess
import sys

import pytest

import rio

from rio.devices import (
    AUDIO_HEADER,
    AUDIO_XFER_IN,
    AUDIO_XFER_OUT,
    AudioConfig,
    AudioDevice,
    EAGAIN,
    ECHO_XFORM,
    EINVAL,
    EchoDevice,
    FrameFormat,
    FrameSourceDevice,
    IOC_READ,
    IOC_WRITE,
    MODEM_CALL,
    MODEM_SMS,
    MemoryContext,
    ModemDevice,
    OP_LOG_MAX,
    POLLIN,
    SensorDevice,
    frame_pattern,
    ioc,
    ioc_dir,
    ioc_nr,
    ioc_size,
    ioc_type,
    iowr,
    mic_frames,
)
from rio.kernel import SimKernel
from rio.memory import ByteArena


class DirectMem(MemoryContext):
    def __init__(self):
        self.arena = ByteArena()

    async def copy_from_user(self, addr, length):
        return self.arena.read(addr, length)

    async def copy_to_user(self, addr, data):
        self.arena.write(addr, bytes(data))


# ---------------------------------------------------------------------------
# ioctl command packing
# ---------------------------------------------------------------------------


def test_ioctl_field_packing_round_trip():
    cmd = ioc(IOC_READ | IOC_WRITE, ord("E"), 1, 24)
    assert ioc_dir(cmd) == IOC_READ | IOC_WRITE
    assert ioc_size(cmd) == 24
    assert ioc_type(cmd) == ord("E")
    assert ioc_nr(cmd) == 1
    assert cmd == ECHO_XFORM
    assert cmd < 1 << 32


def test_ioctl_size_field_limit():
    with pytest.raises(ValueError):
        iowr(ord("X"), 1, 1 << 14)


# ---------------------------------------------------------------------------
# Sensor
# ---------------------------------------------------------------------------


def test_sensor_read_before_sample_would_block():
    k = SimKernel()
    dev = SensorDevice(k)
    mem = DirectMem()

    async def main():
        desc = await dev.open()
        dev.response_delivered(desc, k.now())
        first = await dev.read(desc, 0, 12, mem)
        await k.sleep(65)
        second = await dev.read(desc, 0, 12, mem)
        dev.response_delivered(desc, k.now())
        third = await dev.read(desc, 0, 12, mem)  # sample consumed, next not due
        return first, second, third

    first, second, third = k.run(main())
    assert first == -EAGAIN
    assert second == 12
    assert third == -EAGAIN


def test_sensor_sample_cadence_after_delivery():
    k = SimKernel()
    dev = SensorDevice(k, cadence_ms=65.0)
    mem = DirectMem()

    async def main():
        desc = await dev.open()
        dev.response_delivered(desc, k.now())
        ready = await dev.poll(desc, POLLIN, True, mem)
        t_ready = k.now()
        n = await dev.read(desc, 0, 12, mem)
        return ready, t_ready, n, mem.arena.read(0, 12)

    ready, t_ready, n, sample = k.run(main())
    assert ready & POLLIN
    assert t_ready == pytest.approx(65.0)
    assert n == 12
    assert struct.unpack("<III", sample) == (1, 1001, 2001)


# ---------------------------------------------------------------------------
# Audio
# ---------------------------------------------------------------------------


def _audio_setup(out_bytes=4, in_bytes=4):
    k = SimKernel()
    dev = AudioDevice(k, AudioConfig(out_frame_bytes=out_bytes, in_frame_bytes=in_bytes))
    mem = DirectMem()
    return k, dev, mem


def test_audio_out_consumes_144_frames_for_3ms_segment():
    k, dev, mem = _audio_setup()
    frames = round(3 * 48)  # 3 ms at 48 kHz
    assert frames == 144
    payload = bytes(frames * 4)
    assert len(payload) == 576
    mem.arena.write(0x100, AUDIO_HEADER.pack(0xDEAD, 0x9000, frames))
    mem.arena.write(0x9000, payload)

    async def main():
        desc = await dev.open()
        return await dev.ioctl(desc, AUDIO_XFER_OUT, 0x100, mem)

    assert k.run(main()) == 144


def test_audio_zero_frames_copies_nothing():
    k, dev, mem = _audio_setup()
    mem.arena.write(0x100, AUDIO_HEADER.pack(0, 0x9000, 0))

    async def main():
        desc = await dev.open()
        return await dev.ioctl(desc, AUDIO_XFER_OUT, 0x100, mem)

    assert k.run(main()) == 0


def test_audio_clears_result_field_before_rereading_header():
    k, dev, mem = _audio_setup()
    mem.arena.write(0x100, AUDIO_HEADER.pack(0xDEADBEEF, 0x9000, 4))
    mem.arena.write(0x9000, bytes(16))

    async def main():
        desc = await dev.open()
        await dev.ioctl(desc, AUDIO_XFER_OUT, 0x100, mem)
        return desc.last_header

    result, data_addr, frames = k.run(main())
    assert result == 0  # the put_user landed before the header was re-read
    assert (data_addr, frames) == (0x9000, 4)


def test_audio_playback_never_outruns_device_clock():
    k, dev, mem = _audio_setup()
    frames = 336  # 7 ms segments
    mem.arena.write(0x9000, bytes(frames * 4))
    consumed_log = []

    async def main():
        desc = await dev.open()
        for _ in range(40):
            mem.arena.write(0x100, AUDIO_HEADER.pack(0, 0x9000, frames))
            await dev.ioctl(desc, AUDIO_XFER_OUT, 0x100, mem)
            elapsed = k.now() - desc.out_start
            consumed_log.append((desc.out_produced, elapsed))

    k.run(main())
    for produced, elapsed in consumed_log:
        ring = dev.config.out_ring_frames
        assert produced <= 48.0 * elapsed + ring  # queued ahead by at most one ring


def test_mic_capture_waits_for_frames():
    k, dev, mem = _audio_setup(in_bytes=1)
    mem.arena.write(0x100, AUDIO_HEADER.pack(0, 0x9000, 480))

    async def main():
        desc = await dev.open()
        got = await dev.ioctl(desc, AUDIO_XFER_IN, 0x100, mem)
        return got, k.now()

    got, when = k.run(main())
    assert got == 480
    assert when == pytest.approx(10.0)  # 480 frames at 48 kHz
    assert mem.arena.read(0x9000, 480) == mic_frames(0, 480, 1)


# ---------------------------------------------------------------------------
# Frame source
# ---------------------------------------------------------------------------


def test_vga_buffer_is_614400_bytes_and_150_pages():
    fmt = FrameFormat(640, 480)
    assert fmt.frame_bytes == 640 * 480 * 2 == 614_400
    assert fmt.buffer_bytes == 614_400  # already page-aligned
    assert fmt.buffer_bytes // 4096 == 150


def test_frame_pattern_is_deterministic_function_of_seq_and_offset():
    a = frame_pattern(3, 1000)
    b = frame_pattern(3, 1000)
    c = frame_pattern(4, 1000)
    assert a == b != c
    assert a[17] == (3 * 131 + 17 * 7 + 23) % 256


PATTERN_LENGTHS = (0, 1, 255, 256, 257, 4097, 614_400)


@pytest.mark.parametrize("nbytes", PATTERN_LENGTHS)
@pytest.mark.parametrize("seq", (0, 1, 2, 255, 256, 1_000_003, 2**63 + 5))
def test_frame_pattern_matches_per_byte_definition(seq, nbytes):
    want = bytes((seq * 131 + i * 7 + 23) % 256 for i in range(nbytes))
    assert frame_pattern(seq, nbytes) == want


@pytest.mark.parametrize("seq", (0, 1, 2, 255, 256, 1_000_003, 2**63 + 5))
def test_in_place_fill_equals_frame_pattern(seq):
    period = bytes((seq * 131 + i * 7 + 23) % 256 for i in range(256))
    for nbytes in (*range(301), 614_400, 1_000_003):
        buf = bytearray(b"\xaa" * (nbytes + 5))
        assert frame_pattern(seq, nbytes, buf) is None
        assert buf[:nbytes] == frame_pattern(seq, nbytes)
        assert buf[:nbytes] == (period * (nbytes // 256 + 1))[:nbytes]
        assert buf[nbytes:] == b"\xaa" * 5  # nothing past the frame is written


@pytest.mark.parametrize("frame_bytes", range(1, 9))
@pytest.mark.parametrize("first", (0, 1, 37, 2**40 + 11))
def test_mic_frames_match_per_byte_definition(first, frame_bytes):
    for count in sorted({n // frame_bytes for n in PATTERN_LENGTHS} | {1, 2}):
        want = bytes(((first * frame_bytes + j) * 7 + 3) % 256
                     for j in range(count * frame_bytes))
        assert mic_frames(first, count, frame_bytes) == want


def test_import_rio_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(rio.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, rio, rio.bench, rio.cli, rio.devices; "
            "sys.exit('numpy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_dequeue_without_mapping_is_einval():
    k = SimKernel()
    dev = FrameSourceDevice(k)
    mem = DirectMem()

    async def main():
        desc = await dev.open()
        from rio.devices import FRAME_DQ
        return await dev.ioctl(desc, FRAME_DQ, 0, mem)

    assert k.run(main()) == -EINVAL


# ---------------------------------------------------------------------------
# Modem
# ---------------------------------------------------------------------------


def test_modem_completion_after_carrier_delay():
    k = SimKernel()
    dev = ModemDevice(k, call_delay_ms=7800.0, sms_delay_ms=6200.0)
    mem = DirectMem()
    mem.arena.write(0, struct.pack("<I", MODEM_CALL) + b"5551212")

    async def main():
        desc = await dev.open()
        n = await dev.write(desc, 0, 11, mem)
        assert n == 11
        await dev.poll(desc, POLLIN, True, mem)
        t = k.now()
        got = await dev.read(desc, 0x50, 8, mem)
        return t, got, mem.arena.read(0x50, 8)

    t, got, record = k.run(main())
    assert t == pytest.approx(7800.0)
    assert got == 8
    assert struct.unpack("<II", record) == (MODEM_CALL, 0)


def test_modem_unknown_tag_rejected():
    k = SimKernel()
    dev = ModemDevice(k)
    mem = DirectMem()
    mem.arena.write(0, struct.pack("<I", 77))

    async def main():
        desc = await dev.open()
        return await dev.write(desc, 0, 4, mem)

    assert k.run(main()) == -EINVAL


def test_modem_sms_delay_configurable_to_zero():
    k = SimKernel()
    dev = ModemDevice(k, sms_delay_ms=0.0)
    mem = DirectMem()
    mem.arena.write(0, struct.pack("<I", MODEM_SMS))

    async def main():
        desc = await dev.open()
        await dev.write(desc, 0, 4, mem)
        await dev.poll(desc, POLLIN, True, mem)
        return k.now()

    assert k.run(main()) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Echo device
# ---------------------------------------------------------------------------


def test_echo_transform_and_counter():
    k = SimKernel()
    dev = EchoDevice(k)
    mem = DirectMem()
    mem.arena.write(4, bytes(range(8)))

    async def main():
        desc = await dev.open()
        r1 = await dev.ioctl(desc, ECHO_XFORM, 0, mem)
        first = mem.arena.read(0, 24)
        r2 = await dev.ioctl(desc, ECHO_XFORM, 0, mem)
        second = mem.arena.read(0, 24)
        return r1, first, r2, second

    r1, first, r2, second = k.run(main())
    assert r1 == r2 == 0
    assert struct.unpack_from("<I", first, 0)[0] == 1
    assert struct.unpack_from("<I", second, 0)[0] == 2
    expected = bytes((~i & 0xFF) for i in range(8))
    assert first[12:20] == expected
    assert first[20:24] == expected[:4]  # transform cycles over the 8 inputs


def test_release_then_reopen_is_always_legal():
    k = SimKernel()
    for dev in (SensorDevice(k), AudioDevice(k), FrameSourceDevice(k),
                ModemDevice(k), EchoDevice(k)):
        async def cycle(dev=dev):
            d1 = await dev.open()
            await dev.release(d1)
            d2 = await dev.open()
            await dev.release(d2)
            return d1.desc_id != d2.desc_id

        assert k.run(cycle())
        ops = [op for op, _ in dev.op_log]
        assert ops.count("open") == 2 and ops.count("release") == 2


def test_op_log_keeps_only_the_most_recent_entries():
    k = SimKernel()
    dev = EchoDevice(k)
    mem = DirectMem()
    calls = OP_LOG_MAX + 100

    async def main():
        desc = await dev.open()
        for _ in range(calls):
            assert await dev.ioctl(desc, ECHO_XFORM, 0x1000, mem) == 0
        return desc

    desc = k.run(main())
    assert desc.counter == calls
    assert len(dev.op_log) == OP_LOG_MAX
    assert list(dev.op_log) == [("xform", desc.desc_id)] * OP_LOG_MAX  # "open" fell off
