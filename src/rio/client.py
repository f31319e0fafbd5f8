"""Client stub: virtual device handles over a remote session.

A handle forwards file operations to the server, shipping the buffers the
driver is predicted to read (from the per-command prefetch registry, else
from the dir/size fields of the command number) and replaying the
server's batched writes into local process memory when the response
arrives.  A heartbeat task measures round-trip time (EWMA) and declares a
disconnect after consecutive missed acks, at which point every handle
either fails over to a registered local device of the same class or
reports errors -- nothing hangs.
"""

from __future__ import annotations

import logging
import struct
from collections import deque
from enum import Enum
from typing import Awaitable, Callable, Optional

from . import dsm as dsmmod
from .devices import (
    AUDIO_HEADER,
    AUDIO_XFER_IN,
    AUDIO_XFER_OUT,
    AudioConfig,
    Device,
    GBUF_ALLOC,
    IOC_WRITE,
    MemoryContext,
    OP_LOG_MAX,
    ioc_dir,
    ioc_nr,
    ioc_size,
)
from .errors import DisconnectedError, RioError
from .kernel import Cancelled, Future, Kernel
from .memory import PAGE_SIZE, Allocator, ByteArena
from .server import GBUF_REGION_BASE
from .wire import (
    Channel,
    CleanupNotice,
    CopyDir,
    CopyResponse,
    Endpoint,
    FileOp,
    FileOpRequest,
    Heartbeat,
    Kind,
    Message,
    OpenRequest,
    Peer,
    PollMode,
    SessionConfig,
    decode_body,
)

log = logging.getLogger("rio.client")

REMOTE_NAME_SUFFIX = "_rio"


class OpenError(RioError):
    def __init__(self, device_class: str, errno: int) -> None:
        self.errno = errno
        super().__init__(f"open {device_class!r} failed with errno {errno}")


ClientConfig = SessionConfig  # the client has no settings of its own


class RttEstimator:
    """EWMA over heartbeat round-trip samples; seeded by the first ack."""

    def __init__(self, alpha: float = 0.125) -> None:
        self.alpha = alpha
        self.estimate_ms = 0.0
        self.samples = 0

    def update(self, sample_ms: float) -> float:
        if self.samples == 0:
            self.estimate_ms = sample_ms
        else:
            self.estimate_ms += self.alpha * (sample_ms - self.estimate_ms)
        self.samples += 1
        return self.estimate_ms


class HandleState(Enum):
    CONNECTED = "connected"
    FALLING_BACK = "falling_back"
    FAILED = "failed"
    CLOSED = "closed"


# Hot paths compare against these module names, as ``dsm`` does for page
# states: reading a member off an enum class costs several times more.
CONNECTED, FALLING_BACK, FAILED, CLOSED = (
    HandleState.CONNECTED, HandleState.FALLING_BACK, HandleState.FAILED, HandleState.CLOSED)


# ---------------------------------------------------------------------------
# Prefetch registry
# ---------------------------------------------------------------------------

PrefetchFn = Callable[[int, int, ByteArena], list[tuple[int, int]]]


def default_prefetch_registry(audio: Optional[AudioConfig] = None
                              ) -> dict[tuple[str, int], PrefetchFn]:
    """Per-(device class, ioctl nr) recipes for buffers to ship.

    Entries exist where the command number alone cannot describe the
    driver's reads (indirect buffers behind a header).
    """
    audio = audio or AudioConfig()

    def _audio_header(cmd: int, arg: int, arena: ByteArena, data_bytes_per_frame: int):
        ranges = [(arg, AUDIO_HEADER.size)]
        _, data_addr, frames = AUDIO_HEADER.unpack(arena.read(arg, AUDIO_HEADER.size))
        if data_bytes_per_frame and frames:
            ranges.append((data_addr, frames * data_bytes_per_frame))
        return ranges

    return {
        ("audio", ioc_nr(AUDIO_XFER_OUT)):
            lambda cmd, arg, arena: _audio_header(cmd, arg, arena, audio.out_frame_bytes),
        ("audio", ioc_nr(AUDIO_XFER_IN)):
            lambda cmd, arg, arena: _audio_header(cmd, arg, arena, 0),
    }


def prefetch_ranges(registry, device_class: str, cmd: int, arg: int,
                    arena: ByteArena) -> list[tuple[int, int]]:
    fn = registry.get((device_class, ioc_nr(cmd)))
    if fn is not None:
        return [(a, n) for a, n in fn(cmd, arg, arena) if n > 0]
    size = ioc_size(cmd)
    if ioc_dir(cmd) & IOC_WRITE and size > 0:
        return [(arg, size)]
    return []


# ---------------------------------------------------------------------------
# Local fallback execution
# ---------------------------------------------------------------------------


class LocalMemoryContext(MemoryContext):
    """Direct arena access for devices hosted on the client itself."""

    def __init__(self, arena: ByteArena) -> None:
        self.arena = arena

    async def copy_from_user(self, addr: int, length: int) -> bytes:
        return self.arena.read(addr, length)

    async def copy_to_user(self, addr: int, data: bytes) -> None:
        self.arena.write(addr, bytes(data))


class LocalHost:
    """Runs device handlers in-process for registered fallback devices."""

    def __init__(self, kernel: Kernel, arena: ByteArena) -> None:
        self.kernel = kernel
        self.mem = LocalMemoryContext(arena)

    async def open(self, device: Device, flags: int = 0):
        desc = await device.open(flags)
        device.response_delivered(desc, self.kernel.now())
        return desc

    async def run(self, device: Device, op: str, desc, *args):
        handler = getattr(device, op)
        result = await handler(desc, *args, self.mem)
        device.response_delivered(desc, self.kernel.now())
        return result

    async def poll(self, device: Device, desc, events: int, wait: bool,
                   budget_ms: Optional[float]) -> int:
        task = self.kernel.spawn(device.poll(desc, events, wait, self.mem), "local-poll")
        finished, result = await self.kernel.race_timeout(task, budget_ms)
        return result if finished else 0


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class Client:
    def __init__(self, kernel: Kernel, config: Optional[ClientConfig] = None,
                 registry: Optional[dict] = None) -> None:
        self.kernel = kernel
        self.config = config or ClientConfig()
        self.arena = ByteArena()
        self.allocator = Allocator()
        self.registry = default_prefetch_registry() if registry is None else registry
        self.local_devices: dict[str, Device] = {}
        self.local_host = LocalHost(kernel, self.arena)
        self.sessions: list[ClientSession] = []
        self._next_session = 1

    def register_local_fallback(self, device_class: str, device: Device) -> None:
        self.local_devices[device_class] = device

    def connect(self, endpoint: Endpoint) -> "ClientSession":
        session = ClientSession(self, self._next_session, endpoint)
        self._next_session += 1
        self.sessions.append(session)
        return session

    def alloc(self, length: int, align: int = PAGE_SIZE) -> int:
        return self.allocator.alloc(length, align)

    def stats(self) -> dict:
        merged = {"rtt_estimate_ms": None, "coverage_misses": 0,
                  "round_trips": 0, "bytes_on_wire": 0}
        seen = set()
        for session in self.sessions:
            merged["coverage_misses"] += session.coverage_misses
            stats = getattr(session.endpoint, "stats", None)
            if stats is not None and id(stats) not in seen:
                seen.add(id(stats))
                merged["round_trips"] += stats.round_trips
                merged["bytes_on_wire"] += stats.bytes_on_wire
            if session.estimator.samples:
                merged["rtt_estimate_ms"] = session.estimator.estimate_ms
        return merged


class ClientSession(Peer):
    def __init__(self, client: Client, session_id: int, endpoint: Endpoint) -> None:
        super().__init__(session_id, endpoint,
                         dsmmod.DsmNode(dsmmod.DsmNode.CLIENT, self._send), {
                             Kind.HEARTBEAT_ACK: self._on_heartbeat_ack,
                             Kind.FILE_OP_RESPONSE: self._on_file_op_response,
                             Kind.COPY_REQUEST: self._serve_copy,
                             Kind.OPEN_ACK: self._on_open_ack,
                         })
        self.client = client
        self.kernel = client.kernel
        self.config = client.config
        endpoint.on_message = self.on_message
        self.estimator = RttEstimator()
        self.handles: list[VirtualHandle] = []
        self.regions: dict[int, "MappedRegion"] = {}
        self.coverage_misses = 0
        self.coverage_log: deque[tuple[int, int]] = deque(maxlen=OP_LOG_MAX)
        self._open_queue: list[Future] = []
        self._next_op = 1
        self._hb_sent: dict[int, float] = {}
        self._last_ack = self.kernel.now()
        self._beats = 0
        self._hb_task = self.kernel.spawn(self._heartbeat_loop(), "hb-client")

    # -- inbound -----------------------------------------------------------

    def _fault(self) -> None:
        self._declare_disconnect("protocol error")

    def _on_heartbeat_ack(self, msg: Message) -> None:
        sent = self._hb_sent.pop(decode_body(msg).echo_seq, None)
        if sent is not None:
            self.estimator.update(self.kernel.now() - sent)
        self._last_ack = self.kernel.now()

    def _on_file_op_response(self, msg: Message) -> None:
        body = decode_body(msg)
        for addr, data in body.batch:
            self.client.arena.write(addr, data)
        self._resolve(body.op_id, body)

    def _on_open_ack(self, msg: Message) -> None:
        body = decode_body(msg)
        if self._open_queue:
            self._open_queue.pop(0).set_result(body)

    def _serve_copy(self, msg: Message) -> None:
        body = decode_body(msg)
        if body.direction == CopyDir.FROM_USER:
            # The request's prefetch did not cover this range.
            self.coverage_misses += 1
            self.coverage_log.append((body.addr, body.length))
            data = self.client.arena.read(body.addr, body.length)
            self._send(CopyResponse(body.op_id, data))
        else:
            self.client.arena.write(body.addr, body.data)
            self._send(CopyResponse(body.op_id, b""))

    # -- heartbeats ----------------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        interval = self.config.heartbeat_interval_ms
        try:
            while self.live:
                now = self.kernel.now()
                if now - self._last_ack >= self.config.timeout_ms and self._beats >= 1:
                    self._declare_disconnect("heartbeat timeout")
                    return
                self._hb_sent[self._out_seq[Channel.HEARTBEAT]] = now
                self._send(Heartbeat())
                self._beats += 1
                await self.kernel.sleep(interval)
        except Cancelled:
            pass

    # -- disconnect and close ---------------------------------------------------

    def _declare_disconnect(self, reason: str) -> None:
        if not self.live:
            return
        log.info("session %d: disconnect declared (%s)", self.session_id, reason)
        self.live = False
        # Flip handle states first: ops woken by the failures below consult
        # them to decide between local fallback and an error.
        for handle in self.handles:
            handle._on_disconnect()
        self._drop_state(reason)

    async def close(self) -> None:
        """Graceful teardown: tell the server, then drop local state; an op
        still waiting for a reply fails with ``DisconnectedError``."""
        if not self.live:
            return
        self._send(CleanupNotice(cause=2))
        self.live = False
        for handle in self.handles:
            if handle.state is CONNECTED:
                handle.state = CLOSED
        self._drop_state("session closed")

    def _drop_state(self, detail: str) -> None:
        """Fail every pending reply and open, and drop regions and heartbeats."""
        self._fail_pending(lambda: DisconnectedError(detail=detail))
        for fut in self._open_queue:
            fut.set_exception(DisconnectedError(detail=detail))
        self._open_queue.clear()
        self._hb_sent.clear()
        self.dsm.clear()
        self.regions.clear()
        self._hb_task.cancel()

    # -- operations ----------------------------------------------------------------

    async def open(self, device_class: str, flags: int = 0) -> "VirtualHandle":
        if not self.live:
            raise DisconnectedError(device_class)
        fut = Future(f"open-{device_class}")
        self._open_queue.append(fut)
        self._send(OpenRequest(flags, device_class))
        ack = await fut
        if not ack.ok:
            raise OpenError(device_class, ack.errno)
        name = device_class + (REMOTE_NAME_SUFFIX
                               if device_class in self.client.local_devices else "")
        handle = VirtualHandle(self, ack.desc, device_class, name)
        self.handles.append(handle)
        return handle

    async def request(self, req: FileOpRequest):
        if not self.live:
            raise DisconnectedError(detail="session closed")
        fut = self._expect(req.op_id)
        self._send(req)
        return await fut

    def next_op_id(self) -> int:
        op_id = self._next_op
        self._next_op += 1
        return op_id

    # -- page access (shadow regions) -------------------------------------------------

    async def ensure_page(self, region_id: int, page: int, write: bool) -> None:
        if self.live and self.dsm.ready(region_id, page, write):
            return  # already permitted: no coherence traffic, no waiter
        await self._acquire_page(region_id, page, write)

    async def _acquire_page(self, region_id: int, page: int, write: bool) -> None:
        """Start or join the page's coherence traffic until access is granted."""
        while True:
            if not self.live:
                raise DisconnectedError(detail="session closed")
            fut = Future("page-wait")
            try:
                if self.dsm.access(region_id, page, write, waiter=fut.set_result):
                    return
            except dsmmod.DsmError as exc:
                raise DisconnectedError(detail=str(exc)) if not self.live else exc
            await fut


class MappedRegion:
    """Client-side shadow of a server buffer; access goes through coherence."""

    def __init__(self, session: ClientSession, handle: "VirtualHandle",
                 region_id: int, base: int, length: int) -> None:
        self.session = session
        self.handle = handle
        self.region_id = region_id
        self.base = base
        self.length = length
        self.npages = dsmmod.pages_for(length)

    def _check_range(self, addr: int, length: int) -> None:
        if addr < self.base or addr + length > self.base + self.npages * PAGE_SIZE:
            raise dsmmod.DsmError("access outside mapped region")

    def _page_slices(self, addr: int, length: int):
        self._check_range(addr, length)
        pos = addr
        end = addr + length
        while pos < end:
            page = (pos - self.base) // PAGE_SIZE
            page_end = self.base + (page + 1) * PAGE_SIZE
            take = min(end, page_end) - pos
            yield page, pos, take
            pos += take

    async def page_read(self, addr: int, length: int) -> bytes:
        # Every page passes its own permission check.  Each run of pages
        # readable now is one arena read; the first page that is not waits
        # for its coherence traffic and is then read on its own.
        self._check_range(addr, length)
        session, base, region_id = self.session, self.base, self.region_id
        read = session.client.arena.read
        parts = []
        pos, end = addr, addr + length
        last = (end - 1 - base) // PAGE_SIZE
        while pos < end:
            page = (pos - base) // PAGE_SIZE
            n = session.dsm.readable_run(region_id, page, last - page + 1) if session.live else 0
            if n == 0:
                await session._acquire_page(region_id, page, False)
                n = 1
            stop = min(end, base + (page + n) * PAGE_SIZE)
            parts.append(read(pos, stop - pos))
            pos = stop
        return parts[0] if len(parts) == 1 else b"".join(parts)

    async def page_write(self, addr: int, data: bytes) -> None:
        data = bytes(data)
        for page, pos, take in self._page_slices(addr, len(data)):
            await self.session.ensure_page(self.region_id, page, write=True)
            self.session.client.arena.write(pos, data[pos - addr : pos - addr + take])
            self.session.dsm.local_write_done(self.region_id, page)

    async def unmap(self) -> None:
        await self.handle._close_map(self)


class VirtualHandle:
    """A virtual device file.  One logical caller at a time, plus at most
    one outstanding blocking poll."""

    def __init__(self, session: ClientSession, desc: int, device_class: str,
                 name: str) -> None:
        self.session = session
        self.client = session.client
        self.desc = desc
        self.device_class = device_class
        self.name = name
        self.state = CONNECTED
        self.regions: list[MappedRegion] = []
        self._local_desc = None

    # -- state ---------------------------------------------------------------

    def _on_disconnect(self) -> None:
        if self.state in (CLOSED, FAILED, FALLING_BACK):
            return
        if self.device_class in self.client.local_devices:
            self.state = FALLING_BACK
            log.info("handle %s: falling back to local device", self.name)
        else:
            self.state = FAILED
        self.regions.clear()

    def _check_usable(self) -> None:
        if self.state is CLOSED:
            raise RioError(f"handle {self.name} is closed")
        if self.state is FAILED:
            raise DisconnectedError(self.device_class)

    async def _run(self, remote: Callable[[], Awaitable[int]],
                   local: Callable[[Device, object], Awaitable[int]]) -> int:
        """``remote()`` over the session; once the handle falls back,
        ``local(device, desc)`` on the registered local twin instead."""
        self._check_usable()
        if self.state is CONNECTED:
            try:
                return await remote()
            except DisconnectedError:
                if self.state is not FALLING_BACK:
                    raise
        device = self.client.local_devices[self.device_class]
        if self._local_desc is None:
            self._local_desc = await self.client.local_host.open(device)
        return await local(device, self._local_desc)

    async def _request(self, op: FileOp, **fields) -> int:
        req = FileOpRequest(self.session.next_op_id(), self.desc, op, **fields)
        return (await self.session.request(req)).result

    # -- operations -----------------------------------------------------------

    async def ioctl(self, cmd: int, arg: int = 0) -> int:
        return await self._run(
            lambda: self._remote_ioctl(cmd, arg),
            lambda device, desc: self.client.local_host.run(device, "ioctl", desc, cmd, arg))

    async def _remote_ioctl(self, cmd: int, arg: int) -> int:
        prefetch = []
        if self.session.config.optimize:
            ranges = prefetch_ranges(self.client.registry, self.device_class,
                                     cmd, arg, self.client.arena)
            prefetch = [(a, self.client.arena.read(a, n)) for a, n in ranges]
        return await self._request(FileOp.IOCTL, addr=arg, cmd=cmd, prefetch=prefetch)

    async def read(self, addr: int, length: int) -> int:
        return await self._run(
            lambda: self._request(FileOp.READ, addr=addr, length=length),
            lambda device, desc: self.client.local_host.run(device, "read", desc, addr, length))

    async def write(self, addr: int, length: int) -> int:
        return await self._run(
            lambda: self._remote_write(addr, length),
            lambda device, desc: self.client.local_host.run(device, "write", desc, addr, length))

    async def _remote_write(self, addr: int, length: int) -> int:
        data = self.client.arena.read(addr, length)
        return await self._request(FileOp.WRITE, addr=addr, length=length,
                                   prefetch=[(addr, data)] if length else [])

    async def poll(self, events: int, *, wait: bool = True,
                   timeout_ms: Optional[float] = None) -> int:
        """Poll for ready events.

        With a finite timeout the server-side wait budget is shortened by
        the heartbeat RTT estimate so the caller's observed deadline stays
        close to the requested one.
        """
        return await self._run(
            lambda: self._remote_poll(events, wait, timeout_ms),
            lambda device, desc: self.client.local_host.poll(device, desc, events, wait,
                                                             timeout_ms))

    async def _remote_poll(self, events: int, wait: bool, timeout_ms: Optional[float]) -> int:
        if not wait:
            mode, budget = PollMode.NONBLOCKING, 0.0
        elif timeout_ms is not None:
            mode = PollMode.TIMEOUT
            budget = max(0.0, timeout_ms - self.session.estimator.estimate_ms)
        else:
            mode, budget = PollMode.BLOCKING, 0.0
        return await self._request(FileOp.POLL, events=events, mode=mode, budget_ms=budget)

    async def mmap(self, length: int, offset: int = 0) -> MappedRegion:
        self._check_usable()
        if self.state is not CONNECTED:
            raise DisconnectedError(self.device_class, "mmap has no local fallback")
        npages = dsmmod.pages_for(length)
        base = self.client.alloc(npages * PAGE_SIZE, align=2 * 1024 * 1024)
        region_id = await self._request(FileOp.MMAP, addr=base, length=length, offset=offset)
        if region_id < 0:
            raise RioError(f"mmap failed: errno {-region_id}")
        region = dsmmod.make_client_region(
            region_id, base, length, dsmmod.ArenaStore(self.client.arena, base),
            dsmmod.Origin.MAP_PAGE, dsmmod.Policy.INVALIDATE)
        self.session.dsm.register_region(region)
        return self._add_region(region_id, base, length)

    async def _close_map(self, mapped: MappedRegion) -> None:
        if self.state is CONNECTED:
            await self._request(FileOp.CLOSE_MAP, region=mapped.region_id)
        self.session.dsm.drop_region(mapped.region_id)
        self.session.regions.pop(mapped.region_id, None)
        if mapped in self.regions:
            self.regions.remove(mapped)

    async def alloc_global_buffer(self, size: int, buffer_id: int) -> MappedRegion:
        """Allocate a buffer shared coherently with the server (camera-style)."""
        self._check_usable()
        if self.state is not CONNECTED:
            raise DisconnectedError(self.device_class)
        if size <= 0:
            raise ValueError("global buffer size must be positive")
        npages = dsmmod.pages_for(size)
        base = self.client.alloc(npages * PAGE_SIZE, align=2 * 1024 * 1024)
        region_id = GBUF_REGION_BASE | buffer_id
        region = dsmmod.make_client_region(
            region_id, base, size, dsmmod.ArenaStore(self.client.arena, base),
            dsmmod.Origin.GLOBAL_BUFFER, dsmmod.Policy.INVALIDATE,
            initial=dsmmod.PageState.READ_WRITE)  # allocator side owns the pages
        self.session.dsm.register_region(region)
        arg = self.client.alloc(24)
        self.client.arena.write(arg, struct.pack("<QQQ", size, buffer_id, base))
        result = await self.ioctl(GBUF_ALLOC, arg)
        if result < 0:
            self.session.dsm.drop_region(region_id)
            raise RioError(f"global buffer allocation failed: errno {-result}")
        return self._add_region(region_id, base, size)

    def _add_region(self, region_id: int, base: int, length: int) -> MappedRegion:
        mapped = MappedRegion(self.session, self, region_id, base, length)
        self.session.regions[region_id] = mapped
        self.regions.append(mapped)
        return mapped

    async def close(self) -> None:
        if self.state is CONNECTED:
            for mapped in list(self.regions):
                await mapped.unmap()
            try:
                await self._request(FileOp.RELEASE)
            except DisconnectedError:
                pass
        self.state = CLOSED
