"""Virtual device contract and the reference device set.

Every device implements the device-file style interface (open / release /
read / write / ioctl / mmap / close_map / poll) as coroutines, and may
only touch process memory through the ``MemoryContext`` it is handed:
``copy_from_user``, ``copy_to_user``, ``put_user``, ``map_page`` and the
``dma_complete`` notification.  Scalars in process memory are
little-endian; command numbers use the conventional dir/size/type/nr
packing.

Reference devices:

* ``sensor`` -- one 12-byte sample (three 32-bit readings) per cadence
  interval; poll blocks until a fresh sample is ready.
* ``audio`` -- 48 kHz segment transfers in both directions, paced by the
  device clock.
* ``framesource`` -- mmap-backed frame buffers filled by DMA with a
  deterministic test pattern, plus global shared buffers for captures.
* ``modem`` -- CALL/SMS submissions that complete after a carrier delay.
* ``echodev`` -- a single ioctl exercising put_user + copy_from_user +
  copy_to_user in one handler.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .kernel import Future, Kernel

# errno-style results (negative of these is returned by handlers)
EIO = 5
EAGAIN = 11
EBADF = 9
EINVAL = 22
ENODEV = 19
ENOTTY = 25
ECONNRESET = 104

POLLIN = 0x001
POLLOUT = 0x004
POLLERR = 0x008

OP_LOG_MAX = 1024  # most recent (op, desc id) entries each device keeps

# ---------------------------------------------------------------------------
# ioctl command numbers: | dir:2 | size:14 | type:8 | nr:8 |
# ---------------------------------------------------------------------------

IOC_NONE = 0
IOC_WRITE = 1  # process -> driver (driver copies from user)
IOC_READ = 2   # driver -> process (driver copies to user)

_IOC_NRBITS = 8
_IOC_TYPEBITS = 8
_IOC_SIZEBITS = 14
_IOC_NRSHIFT = 0
_IOC_TYPESHIFT = _IOC_NRSHIFT + _IOC_NRBITS
_IOC_SIZESHIFT = _IOC_TYPESHIFT + _IOC_TYPEBITS
_IOC_DIRSHIFT = _IOC_SIZESHIFT + _IOC_SIZEBITS


def ioc(direction: int, ioc_type: int, nr: int, size: int) -> int:
    if size >= 1 << _IOC_SIZEBITS:
        raise ValueError("ioctl size field overflow")
    return (direction << _IOC_DIRSHIFT | size << _IOC_SIZESHIFT
            | (ioc_type & 0xFF) << _IOC_TYPESHIFT | (nr & 0xFF) << _IOC_NRSHIFT)


def io(ioc_type: int, nr: int) -> int:
    return ioc(IOC_NONE, ioc_type, nr, 0)


def ior(ioc_type: int, nr: int, size: int) -> int:
    return ioc(IOC_READ, ioc_type, nr, size)


def iow(ioc_type: int, nr: int, size: int) -> int:
    return ioc(IOC_WRITE, ioc_type, nr, size)


def iowr(ioc_type: int, nr: int, size: int) -> int:
    return ioc(IOC_READ | IOC_WRITE, ioc_type, nr, size)


def ioc_dir(cmd: int) -> int:
    return (cmd >> _IOC_DIRSHIFT) & 0x3


def ioc_size(cmd: int) -> int:
    return (cmd >> _IOC_SIZESHIFT) & ((1 << _IOC_SIZEBITS) - 1)


def ioc_type(cmd: int) -> int:
    return (cmd >> _IOC_TYPESHIFT) & 0xFF


def ioc_nr(cmd: int) -> int:
    return (cmd >> _IOC_NRSHIFT) & 0xFF


# ---------------------------------------------------------------------------
# Memory context
# ---------------------------------------------------------------------------


class MemoryContext:
    """Gateway for all driver access to the client process's memory."""

    async def copy_from_user(self, addr: int, length: int) -> bytes:
        raise NotImplementedError

    async def copy_to_user(self, addr: int, data: bytes) -> None:
        raise NotImplementedError

    async def put_user(self, addr: int, value: int, width: int) -> None:
        if width not in (1, 2, 4, 8):
            raise ValueError("put_user width must be 1/2/4/8")
        await self.copy_to_user(addr, value.to_bytes(width, "little"))

    def map_page(self, buf: bytearray, buf_offset: int, target_offset: int) -> None:
        """Map one page of a kernel buffer at an offset within the new mapping."""
        raise NotImplementedError("device does not support mmap here")

    def alloc_global_buffer(self, size: int, buffer_id: int, client_base: int):
        raise NotImplementedError("global buffers not supported here")

    def dma_complete(self, region_ref, offset: int, length: int) -> None:
        if region_ref is not None:
            region_ref.dma_complete(offset, length)


class RegionRef:
    """Device-side handle on a coherent buffer region.

    ``buf`` is the backing bytearray for contiguous regions (global
    buffers); regions assembled from individual map_page calls are backed
    by the pages the device mapped and expose ``buf=None``.
    """

    def __init__(self, region_id: int, length: int, buf: Optional[bytearray], owner) -> None:
        self.region_id = region_id
        self.length = length
        self.buf = buf
        self._owner = owner  # object with _dma_complete(region_id, offset, length)

    def dma_complete(self, offset: int = 0, length: Optional[int] = None) -> None:
        if length is None:
            length = self.length - offset
        self._owner._dma_complete(self.region_id, offset, length)


# ---------------------------------------------------------------------------
# Device base
# ---------------------------------------------------------------------------


class Descriptor:
    """Per-open state; devices subclass or attach attributes freely."""

    def __init__(self, desc_id: int) -> None:
        self.desc_id = desc_id
        self.pollers: list[tuple[Future, int]] = []
        self.closed = False


class Device:
    class_name = "device"

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        # Recent (op name, desc id) history for audits; the oldest drop off.
        self.op_log: deque[tuple] = deque(maxlen=OP_LOG_MAX)

    def log(self, op: str, desc: Optional[Descriptor]) -> None:
        self.op_log.append((op, desc.desc_id if desc else None))

    async def open(self, flags: int = 0) -> Descriptor:
        desc = Descriptor(next(self.kernel.descriptor_ids))
        self.log("open", desc)
        return desc

    async def release(self, desc: Descriptor) -> None:
        self.log("release", desc)
        desc.closed = True
        self._wake_pollers(desc, POLLERR, force=True)

    async def read(self, desc, addr: int, length: int, mem: MemoryContext) -> int:
        return -EINVAL

    async def write(self, desc, addr: int, length: int, mem: MemoryContext) -> int:
        return -EINVAL

    async def ioctl(self, desc, cmd: int, arg: int, mem: MemoryContext) -> int:
        return -ENOTTY

    async def mmap(self, desc, length: int, offset: int, mem: MemoryContext) -> int:
        return -ENODEV

    async def close_map(self, desc, region_ref) -> None:
        self.log("close_map", desc)

    def response_delivered(self, desc, when_ms: float) -> None:
        """Hook: the response for this descriptor's last op reached the caller."""

    # -- poll machinery ----------------------------------------------------

    def ready_mask(self, desc) -> int:
        return 0

    async def poll(self, desc, events: int, wait: bool, mem: MemoryContext) -> int:
        ready = self.ready_mask(desc) & events
        if ready or not wait:
            return ready
        while True:
            fut = Future("poll")
            desc.pollers.append((fut, events))
            try:
                await fut
            finally:
                desc.pollers = [p for p in desc.pollers if p[0] is not fut]
            if desc.closed:
                return POLLERR
            ready = self.ready_mask(desc) & events
            if ready:
                return ready

    def _wake_pollers(self, desc, mask: int, force: bool = False) -> None:
        for fut, wanted in list(desc.pollers):
            if force or (mask & wanted):
                fut.set_result(None)


# ---------------------------------------------------------------------------
# Sensor
# ---------------------------------------------------------------------------


class SensorDevice(Device):
    """Periodic three-axis sampler.

    The converter is one-shot: a fresh sample appears one cadence interval
    after the previous reading landed in the consumer's hands (for remote
    callers, that is when the read response was delivered).  Reads before
    a sample is ready would block.
    """

    class_name = "sensor"
    SAMPLE_BYTES = 12

    def __init__(self, kernel: Kernel, cadence_ms: float = 65.0) -> None:
        super().__init__(kernel)
        self.cadence_ms = cadence_ms

    async def open(self, flags: int = 0) -> Descriptor:
        desc = await super().open(flags)
        desc.sample = None
        desc.seq = 0
        desc.arm_pending = True  # armed once the open response lands
        return desc

    def response_delivered(self, desc, when_ms: float) -> None:
        if when_ms == float("inf"):  # response dropped by a dead link
            return
        if getattr(desc, "arm_pending", False) and not desc.closed:
            desc.arm_pending = False
            self.kernel.call_at(when_ms + self.cadence_ms, self._sample_ready, desc)

    def _sample_ready(self, desc) -> None:
        if desc.closed:
            return
        desc.seq += 1
        desc.sample = struct.pack("<III", desc.seq, 1000 + desc.seq, 2000 + desc.seq)
        self._wake_pollers(desc, POLLIN)

    def ready_mask(self, desc) -> int:
        return POLLIN if desc.sample is not None else 0

    async def read(self, desc, addr, length, mem) -> int:
        self.log("read", desc)
        if desc.sample is None:
            return -EAGAIN
        n = min(length, self.SAMPLE_BYTES)
        await mem.copy_to_user(addr, desc.sample[:n])
        desc.sample = None
        desc.arm_pending = True
        return n


# ---------------------------------------------------------------------------
# Audio
# ---------------------------------------------------------------------------


@dataclass
class AudioConfig:
    rate_hz: int = 48000
    out_frame_bytes: int = 4    # 16-bit stereo playback
    in_frame_bytes: int = 4     # capture sample width is configurable
    out_ring_frames: int = 768  # 16 ms of playback buffering

    @property
    def frames_per_ms(self) -> float:
        return self.rate_hz / 1000.0


AUDIO_HEADER = struct.Struct("<IQI")  # result, data_addr, frame_count
AUDIO_XFER_OUT = iowr(ord("A"), 0x10, AUDIO_HEADER.size)
AUDIO_XFER_IN = iowr(ord("A"), 0x11, AUDIO_HEADER.size)
MAX_AUDIO_FRAMES = 1 << 20


class AudioDevice(Device):
    """Segment-at-a-time PCM playback and capture.

    Playback consumes queued frames at the configured rate and blocks a
    writer that gets more than one ring ahead; capture produces frames
    continuously once the first transfer arrives.  Each transfer starts by
    clearing the result field in the caller's header before re-reading the
    whole header, so stale prefetched copies of that header are observable
    if the copy plumbing mishandles overlap.
    """

    class_name = "audio"

    def __init__(self, kernel: Kernel, config: Optional[AudioConfig] = None) -> None:
        super().__init__(kernel)
        self.config = config or AudioConfig()

    async def open(self, flags: int = 0) -> Descriptor:
        desc = await super().open(flags)
        desc.out_start = None
        desc.out_produced = 0
        desc.in_start = None
        desc.in_consumed = 0
        desc.last_header = None
        return desc

    def _consumed(self, desc, now: float) -> int:
        if desc.out_start is None:
            return 0
        return min(desc.out_produced, int((now - desc.out_start) * self.config.frames_per_ms))

    def _captured(self, desc, now: float) -> int:
        if desc.in_start is None:
            return 0
        return int((now - desc.in_start) * self.config.frames_per_ms)

    async def _read_header(self, arg: int, mem: MemoryContext):
        await mem.put_user(arg, 0, 4)  # clear result before re-reading
        raw = await mem.copy_from_user(arg, AUDIO_HEADER.size)
        result, data_addr, frames = AUDIO_HEADER.unpack(raw)
        return raw, result, data_addr, frames

    async def ioctl(self, desc, cmd, arg, mem) -> int:
        if cmd == AUDIO_XFER_OUT:
            return await self._xfer_out(desc, arg, mem)
        if cmd == AUDIO_XFER_IN:
            return await self._xfer_in(desc, arg, mem)
        return -ENOTTY

    async def _xfer_out(self, desc, arg, mem) -> int:
        self.log("xfer_out", desc)
        raw, result, data_addr, frames = await self._read_header(arg, mem)
        desc.last_header = (result, data_addr, frames)
        if frames > MAX_AUDIO_FRAMES:
            return -EINVAL
        if frames == 0:
            return 0
        await mem.copy_from_user(data_addr, frames * self.config.out_frame_bytes)
        now = self.kernel.now()
        if desc.out_start is None:
            desc.out_start = now
        # Wait for ring space: never consume faster than the device clock.
        over = desc.out_produced + frames - self.config.out_ring_frames
        if over > self._consumed(desc, now):
            free_at = desc.out_start + over / self.config.frames_per_ms
            await self.kernel.sleep_until(free_at)
        desc.out_produced += frames
        return frames

    async def _xfer_in(self, desc, arg, mem) -> int:
        self.log("xfer_in", desc)
        raw, result, data_addr, frames = await self._read_header(arg, mem)
        desc.last_header = (result, data_addr, frames)
        if frames > MAX_AUDIO_FRAMES:
            return -EINVAL
        now = self.kernel.now()
        if desc.in_start is None:
            desc.in_start = now
        if frames == 0:
            return 0
        target = desc.in_consumed + frames
        if self._captured(desc, now) < target:
            await self.kernel.sleep_until(desc.in_start + target / self.config.frames_per_ms)
        data = mic_frames(desc.in_consumed, frames, self.config.in_frame_bytes)
        await mem.copy_to_user(data_addr, data)
        desc.in_consumed = target
        return frames

    def ready_mask(self, desc) -> int:
        mask = POLLOUT
        if self._captured(desc, self.kernel.now()) > desc.in_consumed:
            mask |= POLLIN
        return mask


def _ramp(first: int, nbytes: int) -> bytes:
    """``nbytes`` bytes where byte i is (first + 7*i) % 256.

    The sequence repeats every 256 bytes, so one 256-byte period is built
    and tiled.
    """
    if nbytes <= 0:
        return b""
    period = bytes((first + 7 * i) & 0xFF for i in range(256))
    reps, rest = divmod(nbytes, 256)
    return period * reps + period[:rest]


def mic_frames(first_frame: int, count: int, frame_bytes: int) -> bytes:
    """Deterministic capture data: byte j of the stream is (j * 7 + 3) % 256.

    The stream has a 256-byte period.
    """
    return _ramp(first_frame * frame_bytes * 7 + 3, count * frame_bytes)


# ---------------------------------------------------------------------------
# Frame source (camera-style streaming + capture)
# ---------------------------------------------------------------------------


@dataclass
class FrameFormat:
    width: int = 640
    height: int = 480
    bytes_per_pixel: int = 2

    @property
    def frame_bytes(self) -> int:
        return self.width * self.height * self.bytes_per_pixel

    @property
    def buffer_bytes(self) -> int:
        # Each buffer occupies whole pages.
        return (self.frame_bytes + 4095) // 4096 * 4096


FRAME_SETUP = iow(ord("V"), 1, 12)   # {width u32, height u32, buffer count u32}
FRAME_DQ = io(ord("V"), 2)
GBUF_ALLOC = iow(ord("V"), 3, 24)    # {size u64, buffer_id u64, client_base u64}
FRAME_CAPTURE = io(ord("V"), 4)      # arg = global buffer id


def frame_pattern(frame_seq: int, nbytes: int) -> bytes:
    """Test-pattern byte at offset i of frame k: (k*131 + i*7 + 23) % 256.

    Every frame has a 256-byte period.
    """
    return _ramp(frame_seq * 131 + 23, nbytes)


class FrameSourceDevice(Device):
    """Frame producer with DMA-filled mapped buffers.

    Each dequeue fills the next buffer (round-robin) with the test
    pattern, signals DMA completion on that range, and returns the buffer
    index; a blocking poll parked on frame-ready wakes on the fill.
    Captures fill a whole global buffer in one DMA.
    """

    class_name = "framesource"

    async def open(self, flags: int = 0) -> Descriptor:
        desc = await super().open(flags)
        desc.fmt = None
        desc.count = 0
        desc.buffers = []
        desc.region_ref = None
        desc.frame_seq = 0
        desc.frame_ready = False
        desc.capture_seq = 0
        desc.gbufs = {}
        return desc

    async def ioctl(self, desc, cmd, arg, mem) -> int:
        if cmd == FRAME_SETUP:
            raw = await mem.copy_from_user(arg, 12)
            w, h, count = struct.unpack("<III", raw)
            if not (0 < w <= 4096 and 0 < h <= 4096 and 0 < count <= 32):
                return -EINVAL
            desc.fmt = FrameFormat(w, h)
            desc.count = count
            return 0
        if cmd == FRAME_DQ:
            self.log("dequeue", desc)
            if desc.region_ref is None:
                return -EINVAL
            idx = desc.frame_seq % desc.count
            fill = frame_pattern(desc.frame_seq, desc.fmt.frame_bytes)
            memoryview(desc.buffers[idx])[: len(fill)] = fill  # no temporary copy
            mem.dma_complete(desc.region_ref, idx * desc.fmt.buffer_bytes,
                             desc.fmt.frame_bytes)
            desc.frame_seq += 1
            desc.frame_ready = True
            self._wake_pollers(desc, POLLIN)
            return idx
        if cmd == GBUF_ALLOC:
            raw = await mem.copy_from_user(arg, 24)
            size, buffer_id, client_base = struct.unpack("<QQQ", raw)
            if size == 0 or buffer_id in desc.gbufs:
                return -EINVAL
            try:
                ref = mem.alloc_global_buffer(size, buffer_id, client_base)
            except Exception:
                return -EINVAL
            desc.gbufs[buffer_id] = ref
            return 0
        if cmd == FRAME_CAPTURE:
            ref = desc.gbufs.get(arg)
            if ref is None:
                return -EINVAL
            desc.capture_seq += 1
            memoryview(ref.buf)[: ref.length] = frame_pattern(desc.capture_seq, ref.length)
            mem.dma_complete(ref, 0, ref.length)
            return 0
        return -ENOTTY

    async def mmap(self, desc, length, offset, mem) -> int:
        if desc.fmt is None:
            return -EINVAL
        per_buf = desc.fmt.buffer_bytes
        if length != desc.count * per_buf:
            return -EINVAL
        desc.buffers = [bytearray(per_buf) for _ in range(desc.count)]
        for i, buf in enumerate(desc.buffers):
            for page_off in range(0, per_buf, 4096):
                mem.map_page(buf, page_off, i * per_buf + page_off)
        return 0

    def region_attached(self, desc, region_ref: RegionRef) -> None:
        desc.region_ref = region_ref

    async def close_map(self, desc, region_ref) -> None:
        await super().close_map(desc, region_ref)
        desc.region_ref = None
        desc.buffers = []

    def ready_mask(self, desc) -> int:
        return POLLIN if desc.frame_ready else 0


# ---------------------------------------------------------------------------
# Modem
# ---------------------------------------------------------------------------

MODEM_CALL = 1
MODEM_SMS = 2


class ModemDevice(Device):
    """Call/SMS submission; completion is signalled after a carrier delay."""

    class_name = "modem"

    def __init__(self, kernel: Kernel, call_delay_ms: float = 7800.0,
                 sms_delay_ms: float = 6200.0) -> None:
        super().__init__(kernel)
        self.delays = {MODEM_CALL: call_delay_ms, MODEM_SMS: sms_delay_ms}

    async def open(self, flags: int = 0) -> Descriptor:
        desc = await super().open(flags)
        desc.completions = []
        return desc

    async def write(self, desc, addr, length, mem) -> int:
        self.log("submit", desc)
        if length < 4:
            return -EINVAL
        record = await mem.copy_from_user(addr, length)
        (tag,) = struct.unpack_from("<I", record, 0)
        if tag not in self.delays:
            return -EINVAL
        self.kernel.call_later(self.delays[tag], self._complete, desc, tag)
        return length

    def _complete(self, desc, tag: int) -> None:
        if desc.closed:
            return
        desc.completions.append(tag)
        self._wake_pollers(desc, POLLIN)

    async def read(self, desc, addr, length, mem) -> int:
        if not desc.completions:
            return -EAGAIN
        tag = desc.completions.pop(0)
        out = struct.pack("<II", tag, 0)[:length]
        await mem.copy_to_user(addr, out)
        return len(out)

    def ready_mask(self, desc) -> int:
        return POLLIN if desc.completions else 0


# ---------------------------------------------------------------------------
# Echo device
# ---------------------------------------------------------------------------

ECHO_XFORM = iowr(ord("E"), 1, 24)


class EchoDevice(Device):
    """One ioctl, three memory operations.

    The handler writes a per-descriptor call counter into arg[0:4], reads
    arg[4:12], and writes the cycled bytewise complement of those 8 bytes
    into arg[12:24]: out[i] = ~in[i % 8].
    """

    class_name = "echodev"

    async def open(self, flags: int = 0) -> Descriptor:
        desc = await super().open(flags)
        desc.counter = 0
        return desc

    async def ioctl(self, desc, cmd, arg, mem) -> int:
        if cmd != ECHO_XFORM:
            return -ENOTTY
        self.log("xform", desc)
        desc.counter += 1
        await mem.put_user(arg, desc.counter, 4)
        data = await mem.copy_from_user(arg + 4, 8)
        out = bytes((~data[i % 8]) & 0xFF for i in range(12))
        await mem.copy_to_user(arg + 12, out)
        return 0


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def default_devices(kernel: Kernel, *, sensor_cadence_ms: float = 65.0,
                    audio: Optional[AudioConfig] = None,
                    call_delay_ms: float = 7800.0, sms_delay_ms: float = 6200.0
                    ) -> dict[str, Device]:
    return {
        "sensor": SensorDevice(kernel, cadence_ms=sensor_cadence_ms),
        "audio": AudioDevice(kernel, audio),
        "framesource": FrameSourceDevice(kernel),
        "modem": ModemDevice(kernel, call_delay_ms, sms_delay_ms),
        "echodev": EchoDevice(kernel),
    }
