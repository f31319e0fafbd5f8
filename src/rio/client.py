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
from collections import deque
from enum import Enum
from typing import Awaitable, Callable, Optional

from . import dsm as dsmmod
from .devices import (
    Device,
    GBUF_ALLOC,
    GBUF_ARG,
    IOC_WRITE,
    MemoryContext,
    OP_LOG_MAX,
    ioc_dir,
    ioc_nr,
    ioc_size,
)
from .errors import DisconnectedError, RioError
from .kernel import Cancelled, Future, Kernel
from .memory import PAGE_SIZE, Allocator, ByteArena, pages_for
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

    ALPHA = 0.125

    def __init__(self) -> None:
        self.estimate_ms = 0.0
        self.samples = 0

    def update(self, sample_ms: float) -> float:
        if self.samples == 0:
            self.estimate_ms = sample_ms
        else:
            self.estimate_ms += self.ALPHA * (sample_ms - self.estimate_ms)
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


def prefetch_ranges(registry, device_class: str, cmd: int, arg: int,
                    arena: ByteArena) -> list[tuple[int, int]]:
    """The ranges to ship with an ioctl: the registry's recipe for (device
    class, ioctl nr), called as ``recipe(cmd, arg, arena)``, else dir/size."""
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
        self.registry = {} if registry is None else registry
        self.local_devices: dict[str, Device] = {}
        self.local_mem = LocalMemoryContext(self.arena)  # fallback devices run here
        self._next_session = 1

    def register_local_fallback(self, device_class: str, device: Device) -> None:
        self.local_devices[device_class] = device

    def connect(self, endpoint: Endpoint) -> "ClientSession":
        session = ClientSession(self, self._next_session, endpoint)
        self._next_session += 1
        return session

    def alloc(self, length: int, align: int = PAGE_SIZE) -> int:
        return self.allocator.alloc(length, align)


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
        endpoint.on_close = lambda: self._declare_disconnect("link closed")
        self.estimator = RttEstimator()
        self.handles: dict[VirtualHandle, None] = {}  # insertion-ordered set of open handles
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
        self.handles[handle] = None
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

    async def _acquire_page(self, region_id: int, page: int, write: bool,
                            npages: int = 1) -> None:
        """Start or join the page's coherence traffic until access is granted;
        a read of ``npages`` pages fetches the invalid run it starts."""
        while True:
            if not self.live:
                raise DisconnectedError(detail="session closed")
            fut = Future("page-wait")
            try:
                if self.dsm.access(region_id, page, write, fut.set_result, npages):
                    return
            except dsmmod.DsmError as exc:
                raise DisconnectedError(detail=str(exc)) if not self.live else exc
            await fut


class MappedRegion:
    """Client-side shadow of a server buffer; access goes through coherence."""

    def __init__(self, session: ClientSession, handle: "VirtualHandle",
                 region_id: int, base: int, buf: bytearray) -> None:
        self.session = session
        self.handle = handle
        self.region_id = region_id
        self.base = base
        self.npages = len(buf) // PAGE_SIZE
        self.view = memoryview(buf)  # the region's whole pages, also mapped in the arena

    async def _walk(self, addr: int, length: int, write: bool,
                    visit: Callable[[int, int], None]) -> None:
        """Call ``visit(lo, hi)`` on each run of the region's bytes ``[lo, hi)``,
        from ``addr`` for ``length`` bytes, whose pages may be used now.  Every
        page passes its own permission check: the first page that may not be
        used starts or joins its coherence traffic (a read fetches the invalid
        run it starts), and the walk goes on from it once it is granted."""
        lo, end = addr - self.base, addr - self.base + length
        if lo < 0 or end > len(self.view):
            raise dsmmod.DsmError("access outside mapped region")
        session, region_id = self.session, self.region_id
        last = (end - 1) // PAGE_SIZE
        while lo < end:
            page = lo // PAGE_SIZE
            n = (session.dsm.usable_run(region_id, page, last - page + 1, write)
                 if session.live else 0)
            if n == 0:
                await session._acquire_page(region_id, page, write, last - page + 1)
                continue  # the page may be used now: take the run it starts
            hi = min(end, (page + n) * PAGE_SIZE)
            visit(lo, hi)
            lo = hi

    async def page_read(self, addr: int, length: int) -> bytes:
        parts = []  # a slice of the region's buffer per run; the result copies them once
        view = self.view
        await self._walk(addr, length, False, lambda lo, hi: parts.append(view[lo:hi]))
        return bytes(parts[0]) if len(parts) == 1 else b"".join(parts)

    async def page_write(self, addr: int, data: bytes) -> None:
        # Into the region's buffer, which the arena maps at ``base``.
        data, start, view = memoryview(bytes(data)), addr - self.base, self.view

        def copy(lo: int, hi: int) -> None:
            view[lo:hi] = data[lo - start : hi - start]

        await self._walk(addr, len(data), True, copy)

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
        for mapped in list(self.regions):
            self._forget_region(mapped)

    def _check_usable(self) -> None:
        if self.state is CLOSED:
            raise RioError(f"handle {self.name} is closed")
        if self.state is FAILED:
            raise DisconnectedError(self.device_class)

    async def _run(self, remote: Callable[[], Awaitable[int]], op: str, *args,
                   timeout_ms: Optional[float] = None) -> int:
        """``remote()`` over the session; once the handle falls back, the
        device method ``op`` of the registered local twin, called with
        ``args`` and the client's memory.  A local poll waits the whole
        ``timeout_ms``: no link round trip shortens it."""
        self._check_usable()
        if self.state is CONNECTED:
            try:
                return await remote()
            except DisconnectedError:
                if self.state is not FALLING_BACK:
                    raise
        device = self.client.local_devices[self.device_class]
        kernel = self.client.kernel
        desc = self._local_desc
        if desc is None:
            desc = self._local_desc = await device.open()
            device.response_delivered(desc, kernel.now())
        call = getattr(device, op)(desc, *args, self.client.local_mem)
        if op == "poll":
            finished, result = await kernel.race_timeout(kernel.spawn(call, "local-poll"),
                                                         timeout_ms)
            return result if finished else 0
        result = await call
        device.response_delivered(desc, kernel.now())
        return result

    async def _request(self, op: FileOp, **fields) -> int:
        req = FileOpRequest(self.session.next_op_id(), self.desc, op, **fields)
        return (await self.session.request(req)).result

    # -- operations -----------------------------------------------------------

    async def ioctl(self, cmd: int, arg: int = 0) -> int:
        return await self._run(lambda: self._remote_ioctl(cmd, arg), "ioctl", cmd, arg)

    async def _remote_ioctl(self, cmd: int, arg: int) -> int:
        prefetch = []
        if self.session.config.optimize:
            ranges = prefetch_ranges(self.client.registry, self.device_class,
                                     cmd, arg, self.client.arena)
            prefetch = [(a, self.client.arena.read(a, n)) for a, n in ranges]
        return await self._request(FileOp.IOCTL, addr=arg, cmd=cmd, prefetch=prefetch)

    async def read(self, addr: int, length: int) -> int:
        return await self._run(lambda: self._request(FileOp.READ, addr=addr, length=length),
                               "read", addr, length)

    async def write(self, addr: int, length: int) -> int:
        return await self._run(lambda: self._remote_write(addr, length), "write", addr, length)

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
        return await self._run(lambda: self._remote_poll(events, wait, timeout_ms),
                               "poll", events, wait, timeout_ms=timeout_ms)

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
        base = self._alloc_shadow(length)
        region_id = await self._request(FileOp.MMAP, addr=base, length=length, offset=offset)
        if region_id < 0:
            raise RioError(f"mmap failed: errno {-region_id}")
        return self._shadow_region(region_id, base, length, dsmmod.PageState.INVALID)

    async def alloc_global_buffer(self, size: int, buffer_id: int) -> MappedRegion:
        """Allocate a buffer shared coherently with the server (camera-style)."""
        self._check_usable()
        if self.state is not CONNECTED:
            raise DisconnectedError(self.device_class)
        if size <= 0:
            raise ValueError("global buffer size must be positive")
        base = self._alloc_shadow(size)
        # The allocator side owns the pages until the device writes them.
        mapped = self._shadow_region(dsmmod.GBUF_REGION_BASE | buffer_id, base, size,
                                     dsmmod.PageState.READ_WRITE)
        arg = self.client.alloc(GBUF_ARG.size)
        self.client.arena.write(arg, GBUF_ARG.pack(size, buffer_id, base))
        result = await self.ioctl(GBUF_ALLOC, arg)
        if result < 0:
            self._forget_region(mapped)
            raise RioError(f"global buffer allocation failed: errno {-result}")
        return mapped

    def _alloc_shadow(self, length: int) -> int:
        return self.client.alloc(pages_for(length) * PAGE_SIZE, align=2 * 1024 * 1024)

    def _shadow_region(self, region_id: int, base: int, length: int,
                       initial: dsmmod.PageState) -> MappedRegion:
        """Register the client side of a coherent region, mapped at ``base``."""
        buf = self.client.arena.map(base, length)
        self.session.dsm.register_region(dsmmod.Region(
            region_id, length, dsmmod.ViewStore([buf]), dsmmod.Policy.INVALIDATE, initial))
        mapped = MappedRegion(self.session, self, region_id, base, buf)
        self.regions.append(mapped)
        return mapped

    def _forget_region(self, mapped: MappedRegion) -> None:
        self.session.dsm.drop_region(mapped.region_id)
        self.client.arena.unmap(mapped.base, len(mapped.view))
        if mapped in self.regions:
            self.regions.remove(mapped)

    async def _close_map(self, mapped: MappedRegion) -> None:
        if self.state is CONNECTED:
            try:
                await self._request(FileOp.CLOSE_MAP, region=mapped.region_id)
            except DisconnectedError:
                pass  # the region is forgotten either way
        self._forget_region(mapped)

    async def close(self) -> None:
        """Unmap and release the remote descriptor, or the local twin's
        descriptor once the handle fell back, and leave the session."""
        for mapped in list(self.regions):
            await mapped.unmap()  # tells the server only while connected
        if self.state is CONNECTED:
            try:
                await self._request(FileOp.RELEASE)
            except DisconnectedError:
                pass
        desc, self._local_desc = self._local_desc, None
        if desc is not None:
            await self.client.local_devices[self.device_class].release(desc)
        self.state = CLOSED
        self.session.handles.pop(self, None)
