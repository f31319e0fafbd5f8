"""Server stub: session management, dispatch, and device memory service.

One session per connected client.  A session's message pump never blocks:
file operations run on worker tasks (serialized per descriptor, except
polls), coherence traffic is applied in arrival order, and heartbeats are
acknowledged immediately even while a blocking poll is parked.

During a file operation the driver's memory operations are served from
the request's prefetched buffers; a miss costs one copy round trip back
to the client.  Driver writes to process memory are accumulated into a
copy batch that rides home on the response (with overlapping prefetched
ranges updated in place so a later copy_from_user never sees stale
bytes).  With optimization off, each copy_to_user is flushed as its own
round trip instead.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from . import dsm as dsmmod
from .devices import (
    EBADF,
    EINVAL,
    EIO,
    ENODEV,
    OP_LOG_MAX,
    Descriptor,
    Device,
    MemoryContext,
    RegionRef,
)
from .errors import OpAborted, SessionClosed
from .kernel import Cancelled, Kernel, Lock
from .memory import PAGE_SIZE, pages_for
from .wire import (
    CopyDir,
    CopyRequest,
    Endpoint,
    FileOp,
    FileOpRequest,
    FileOpResponse,
    HEARTBEAT_INTERVAL_MS,
    HEARTBEAT_TIMEOUT_MS,
    HeartbeatAck,
    Kind,
    Message,
    OpenAck,
    OpenRequest,
    Peer,
    PollMode,
    SessionConfig,
    decode_body,
)

log = logging.getLogger("rio.server")

_POLL = FileOp.POLL  # a module name: an enum class attribute costs more to read

CAUSE_HEARTBEAT_TIMEOUT = "HeartbeatTimeout"
CAUSE_LINK_DOWN = "LinkDown"
CAUSE_CLIENT_CLOSE = "ClientClose"
_CAUSE_BY_CODE = {0: CAUSE_LINK_DOWN, 1: CAUSE_HEARTBEAT_TIMEOUT, 2: CAUSE_CLIENT_CLOSE}

COPY_ROUND_LIMIT = 16  # per-op guard against pathological devices


@dataclass
class ServerConfig(SessionConfig):
    dma_policy: dsmmod.Policy = dsmmod.Policy.UPDATE_PUSH  # every region the server builds


@dataclass
class ServerStats:
    cache_hits: int = 0
    cache_misses: int = 0
    batch_bytes: int = 0
    ops: int = 0
    cleanups: deque = field(default_factory=lambda: deque(maxlen=OP_LOG_MAX))


class Server:
    """Hosts devices and serves any number of client sessions."""

    def __init__(self, kernel: Kernel, devices: dict[str, Device],
                 config: Optional[ServerConfig] = None) -> None:
        self.kernel = kernel
        self.devices = devices
        self.config = config or ServerConfig()
        # Keyed by (endpoint, session id): clients number their sessions
        # independently, so the id alone is unique only per endpoint.
        self.sessions: dict[tuple[Endpoint, int], ServerSession] = {}
        # Each endpoint's highest torn-down session id: clients number sessions
        # upward, so one at or below it stays down, even on a fresh channel.
        self.torn_down: dict[Endpoint, int] = {}
        self.stats = ServerStats()

    def attach(self, endpoint: Endpoint) -> None:
        """Serve the sessions on ``endpoint``; once it closes they are torn
        down at once, before any ``on_close`` set earlier runs."""
        endpoint.on_message = lambda msg, ep=endpoint: self._route(ep, msg)
        then = endpoint.on_close

        def on_close() -> None:
            for (ep, _), session in list(self.sessions.items()):
                if ep is endpoint:
                    session.cleanup(CAUSE_LINK_DOWN)
            self.torn_down.pop(endpoint, None)
            if then is not None:
                then()

        endpoint.on_close = on_close

    def _route(self, endpoint: Endpoint, msg: Message) -> None:
        key = (endpoint, msg.session_id)
        session = self.sessions.get(key)
        if session is None:
            # A session's first frame on each channel has seq 0; a later
            # frame, or any frame of a session torn down, opens nothing.
            if msg.seq or msg.session_id <= self.torn_down.get(endpoint, -1):
                log.debug("session %d: frame after teardown dropped", msg.session_id)
                return
            session = self.sessions[key] = ServerSession(self, msg.session_id, endpoint)
        session.on_message(msg)

    def census(self) -> dict[str, int]:
        """Residual bookkeeping, for leak audits."""
        counts = {"sessions": len(self.sessions), "descriptors": 0, "regions": 0,
                  "cache_entries": 0, "batch_entries": 0, "pending_copies": 0,
                  "workers": 0}
        for session in self.sessions.values():
            counts["descriptors"] += len(session.descs)
            counts["regions"] += len(session.regions)
            counts["pending_copies"] += len(session.pending)
            counts["workers"] += len(session.workers)
            for mem in session.live_ops.values():
                counts["cache_entries"] += len(mem.cache)
                counts["batch_entries"] += len(mem.batch)
        return counts


@dataclass
class _DescEntry:
    device: Device
    desc: Descriptor
    lock: Lock


class ServerSession(Peer):
    def __init__(self, server: Server, session_id: int, endpoint: Endpoint) -> None:
        super().__init__(session_id, endpoint,
                         dsmmod.DsmNode(dsmmod.DsmNode.SERVER, self._send), {
                             Kind.HEARTBEAT: self._on_heartbeat,
                             Kind.OPEN: self._on_open,
                             Kind.CLEANUP: self._on_cleanup,
                             Kind.FILE_OP_REQUEST: self._on_file_op_request,
                             Kind.COPY_RESPONSE: self._on_copy_response,
                         })
        self.server = server
        self.kernel = server.kernel
        self.config = server.config
        self.descs: dict[int, _DescEntry] = {}
        self.regions: dict[int, RegionRef] = {}
        self.live_ops: dict[int, ServerMemoryContext] = {}
        self.workers: dict = {}  # insertion-ordered set of live worker tasks
        self.last_heartbeat = self.kernel.now()
        self._copy_id = 1 << 62
        self._region_id = 1
        # Every op but a poll runs under its descriptor's lock.
        self._locked_ops = {
            FileOp.READ: self._run_read,
            FileOp.WRITE: self._run_write,
            FileOp.IOCTL: self._run_ioctl,
            FileOp.MMAP: self._run_mmap,
            FileOp.CLOSE_MAP: self._run_close_map,
            FileOp.RELEASE: self._release_descriptor,
        }
        self._watchdog = self.kernel.spawn(self._watch_liveness(), "hb-watchdog")

    # -- inbound -----------------------------------------------------------

    def _fault(self) -> None:
        self.cleanup(CAUSE_LINK_DOWN)

    def _on_heartbeat(self, msg: Message) -> None:
        self.last_heartbeat = self.kernel.now()
        self._send(HeartbeatAck(msg.seq))

    def _on_open(self, msg: Message) -> None:
        self._spawn_worker(self._handle_open(decode_body(msg)), "open")

    def _on_cleanup(self, msg: Message) -> None:
        self.cleanup(_CAUSE_BY_CODE.get(decode_body(msg).cause, CAUSE_CLIENT_CLOSE))

    def _on_file_op_request(self, msg: Message) -> None:
        body = decode_body(msg)
        self._spawn_worker(self._run_op(body), f"op-{body.op_id}")

    def _on_copy_response(self, msg: Message) -> None:
        body = decode_body(msg)
        self._resolve(body.op_id, body.data)

    def _spawn_worker(self, coro, name: str) -> None:
        task = self.kernel.spawn(coro, name)
        self.workers[task] = None
        task.add_done_callback(lambda t: self.workers.pop(t, None))

    # -- open / dispatch ------------------------------------------------------

    async def _handle_open(self, body: OpenRequest) -> None:
        device = self.server.devices.get(body.device_class)
        if device is None:
            self._send(OpenAck(False, 0, ENODEV))
            return
        try:
            desc = await device.open(body.flags)
        except Cancelled:
            raise
        except Exception:
            log.exception("open of %s failed", body.device_class)
            self._send(OpenAck(False, 0, EIO))
            return
        self.descs[desc.desc_id] = _DescEntry(device, desc, Lock(self.kernel))
        delivered = self._send(OpenAck(True, desc.desc_id, 0))
        device.response_delivered(desc, delivered)

    async def _run_op(self, req: FileOpRequest) -> None:
        self.server.stats.ops += 1
        entry = self.descs.get(req.desc)
        if entry is None:
            self._send(FileOpResponse(req.op_id, -EBADF))
            return
        mem = self.live_ops[req.op_id] = ServerMemoryContext(self, req.op_id, req.desc,
                                                             req.prefetch)
        try:
            if req.op is _POLL:
                result = await self._run_poll(entry, req, mem)
            else:
                async with entry.lock:
                    result = await self._locked_ops[req.op](entry, req, mem)
        except (Cancelled, SessionClosed):
            self.live_ops.pop(req.op_id, None)
            return
        except OpAborted:
            result = -EINVAL
        except Exception:
            # A handler bug must not strand the caller until the
            # disconnect horizon; answer with an I/O error instead.
            log.exception("op %d (%s) raised", req.op_id, req.op.name)
            result = -EIO
        self.live_ops.pop(req.op_id, None)
        if not self.live:
            return
        self.server.stats.batch_bytes += sum(len(d) for _, d in mem.batch)
        delivered = self._send(FileOpResponse(req.op_id, result, mem.batch))
        entry.device.response_delivered(entry.desc, delivered)

    # The locked ops share one signature.  The device ops return the
    # device's coroutine, which ``_run_op`` awaits itself.

    def _run_read(self, entry: _DescEntry, req: FileOpRequest, mem: ServerMemoryContext):
        return entry.device.read(entry.desc, req.addr, req.length, mem)

    def _run_write(self, entry: _DescEntry, req: FileOpRequest, mem: ServerMemoryContext):
        return entry.device.write(entry.desc, req.addr, req.length, mem)

    def _run_ioctl(self, entry: _DescEntry, req: FileOpRequest, mem: ServerMemoryContext):
        return entry.device.ioctl(entry.desc, req.cmd, req.addr, mem)

    async def _run_poll(self, entry: _DescEntry, req: FileOpRequest,
                        mem: ServerMemoryContext) -> int:
        wait = req.mode != PollMode.NONBLOCKING
        poll_task = self.kernel.spawn(
            entry.device.poll(entry.desc, req.events, wait, mem), "poll")
        budget = req.budget_ms if req.mode == PollMode.TIMEOUT else None
        finished, result = await self.kernel.race_timeout(poll_task, budget)
        return result if finished else 0

    async def _run_mmap(self, entry: _DescEntry, req: FileOpRequest,
                        mem: ServerMemoryContext) -> int:
        result = await entry.device.mmap(entry.desc, req.length, req.offset, mem)
        if result < 0:
            return result
        if len(mem.mapped) != pages_for(req.length):
            return -EINVAL
        pieces: list[list] = []  # [buffer, start, end]: a buffer's consecutive pages
        for i, (buf, off, target_off) in enumerate(sorted(mem.mapped, key=lambda m: m[2])):
            if target_off != i * PAGE_SIZE:
                return -EINVAL
            if pieces and pieces[-1][0] is buf and pieces[-1][2] == off:
                pieces[-1][2] += PAGE_SIZE
            else:
                pieces.append([buf, off, off + PAGE_SIZE])
        store = dsmmod.ViewStore(memoryview(buf)[start:end] for buf, start, end in pieces)
        region_id = self._region_id
        self._region_id += 1
        self.dsm.register_region(dsmmod.Region(region_id, req.length, store,
                                               self.config.dma_policy, dsmmod.READ_WRITE))
        ref = self.regions[region_id] = RegionRef(region_id, entry.desc.desc_id, req.length,
                                                  None, self)
        entry.device.region_attached(entry.desc, ref)
        return region_id

    async def _run_close_map(self, entry: _DescEntry, req: FileOpRequest,
                             mem: ServerMemoryContext) -> int:
        ref = self.regions.get(req.region)
        if ref is None:
            return -EINVAL
        await self._drop_region(ref)
        return 0

    async def _drop_region(self, ref: RegionRef) -> None:
        entry = self.descs.get(ref.desc_id)
        if entry is not None:
            await entry.device.close_map(entry.desc, ref)
        self.dsm.drop_region(ref.region_id)
        self.regions.pop(ref.region_id, None)

    async def _release_descriptor(self, entry: _DescEntry, req: FileOpRequest,
                                  mem: ServerMemoryContext) -> int:
        for ref in [r for r in self.regions.values() if r.desc_id == entry.desc.desc_id]:
            await self._drop_region(ref)
        await entry.device.release(entry.desc)
        self.descs.pop(entry.desc.desc_id, None)
        return 0

    # -- copy service ----------------------------------------------------------

    async def fetch_from_client(self, mem: ServerMemoryContext, addr: int, length: int) -> bytes:
        """A cache miss: read the range from client memory."""
        return await self._copy_round(mem, CopyDir.FROM_USER, addr, length)

    async def push_to_client(self, mem: ServerMemoryContext, addr: int, data: bytes) -> None:
        """Unoptimized mode: flush one driver write as its own round trip."""
        await self._copy_round(mem, CopyDir.TO_USER, addr, len(data), data)

    async def _copy_round(self, mem: ServerMemoryContext, direction: CopyDir, addr: int,
                          length: int, data: bytes = b"") -> bytes:
        """One copy round trip to the client, at most ``COPY_ROUND_LIMIT`` per op."""
        if mem.rounds >= COPY_ROUND_LIMIT:
            raise OpAborted(f"op {mem.op_id} exceeded {COPY_ROUND_LIMIT} copy rounds")
        mem.rounds += 1
        copy_id = self._copy_id
        self._copy_id += 1
        fut = self._expect(copy_id)
        self._send(CopyRequest(copy_id, direction, addr, length, data))
        return await fut

    # -- global buffers ----------------------------------------------------------

    def create_global_buffer(self, size: int, buffer_id: int, desc_id: int) -> RegionRef:
        if size <= 0:
            raise dsmmod.DsmError("global buffer size must be positive")
        region_id = dsmmod.GBUF_REGION_BASE | buffer_id
        if region_id in self.dsm.regions:
            raise dsmmod.DsmError(f"global buffer {buffer_id} already exists")
        buf = bytearray(pages_for(size) * PAGE_SIZE)
        self.dsm.register_region(dsmmod.Region(region_id, size, dsmmod.ViewStore([buf]),
                                               self.config.dma_policy,
                                               dsmmod.INVALID))  # the client allocated it
        ref = self.regions[region_id] = RegionRef(region_id, desc_id, size, buf, self)
        return ref

    def _dma_complete(self, region_id: int, offset: int, length: int) -> None:
        if self.live:
            self.dsm.dma_complete(region_id, offset, length)

    # -- liveness and cleanup ------------------------------------------------------

    async def _watch_liveness(self) -> None:
        while self.live:
            await self.kernel.sleep(HEARTBEAT_INTERVAL_MS)
            silent = self.kernel.now() - self.last_heartbeat
            if silent > HEARTBEAT_TIMEOUT_MS:
                log.info("session %d: silent for %.0f ms, cleaning up",
                         self.session_id, silent)
                self.cleanup(CAUSE_HEARTBEAT_TIMEOUT)
                return

    def cleanup(self, cause: str) -> None:
        """Tear down every residual of this session.  Idempotent."""
        if not self.live:
            return
        self.live = False
        self.server.stats.cleanups.append((self.session_id, cause))
        torn_down = self.server.torn_down
        torn_down[self.endpoint] = max(torn_down.get(self.endpoint, 0), self.session_id)
        for task in list(self.workers):
            task.cancel()
        self._watchdog.cancel()
        self._fail_pending(lambda: SessionClosed(f"cleanup: {cause}"))
        self.kernel.spawn(self._cleanup_devices(), "cleanup")

    async def _cleanup_devices(self) -> None:
        # Mapped areas first, then descriptors, mirroring process teardown.
        for ref in list(self.regions.values()):
            try:
                await self._drop_region(ref)
            except Exception:
                log.exception("dropping region %d during cleanup failed", ref.region_id)
        self.regions.clear()
        for entry in list(self.descs.values()):
            try:
                await entry.device.release(entry.desc)
            except Exception:
                log.exception("release during cleanup failed")
        self.descs.clear()
        self.live_ops.clear()
        self.server.sessions.pop((self.endpoint, self.session_id), None)
        log.info("session %d: cleanup complete", self.session_id)


class ServerMemoryContext(MemoryContext):
    """One file op's view of client memory: device memory operations go
    through the op's prefetch cache and copy batch, and the pages the
    device maps are collected for the region ``_run_mmap`` builds."""

    def __init__(self, session: ServerSession, op_id: int, desc_id: int,
                 prefetch: list[tuple[int, bytes]]) -> None:
        self.session = session
        self.op_id = op_id
        self.desc_id = desc_id
        self.cache: list[list] = [[addr, bytearray(data)] for addr, data in prefetch]
        self.batch: list[tuple[int, bytes]] = []
        self.rounds = 0
        self.mapped: list[tuple[bytearray, int, int]] = []  # (buf, buf_off, client_addr)

    # -- reads ------------------------------------------------------------

    async def copy_from_user(self, addr: int, length: int) -> bytes:
        if length == 0:
            return b""
        gaps = self._uncovered(addr, length)
        if gaps:
            self.session.server.stats.cache_misses += 1
            for gap_addr, gap_len in gaps:
                data = await self.session.fetch_from_client(self, gap_addr, gap_len)
                patched = self._overlay_batch(gap_addr, bytearray(data))
                self.cache.append([gap_addr, patched])
        else:
            self.session.server.stats.cache_hits += 1
        return self._read_cache(addr, length)

    def _uncovered(self, addr: int, length: int) -> list[tuple[int, int]]:
        spans = sorted((max(e_addr, addr), min(e_addr + len(e_data), addr + length))
                       for e_addr, e_data in self.cache
                       if e_addr < addr + length and e_addr + len(e_data) > addr)
        gaps = []
        cursor = addr
        for lo, hi in spans:
            if lo > cursor:
                gaps.append((cursor, lo - cursor))
            cursor = max(cursor, hi)
        if cursor < addr + length:
            gaps.append((cursor, addr + length - cursor))
        return gaps

    def _overlay_batch(self, addr: int, data: bytearray) -> bytearray:
        # Pending batched writes are newer than the client's memory.
        for b_addr, b_data in self.batch:
            lo = max(addr, b_addr)
            hi = min(addr + len(data), b_addr + len(b_data))
            if lo < hi:
                data[lo - addr : hi - addr] = b_data[lo - b_addr : hi - b_addr]
        return data

    def _read_cache(self, addr: int, length: int) -> bytes:
        out = bytearray(length)
        for e_addr, e_data in self.cache:
            lo = max(addr, e_addr)
            hi = min(addr + length, e_addr + len(e_data))
            if lo < hi:
                out[lo - addr : hi - addr] = e_data[lo - e_addr : hi - e_addr]
        return bytes(out)

    # -- writes ------------------------------------------------------------

    def _update_cache(self, addr: int, data: bytes) -> None:
        for entry in self.cache:
            e_addr, e_data = entry
            lo = max(addr, e_addr)
            hi = min(addr + len(data), e_addr + len(e_data))
            if lo < hi:
                e_data[lo - e_addr : hi - e_addr] = data[lo - addr : hi - addr]

    async def copy_to_user(self, addr: int, data: bytes) -> None:
        data = bytes(data)
        self._update_cache(addr, data)
        if self.session.config.optimize:
            self.batch.append((addr, data))
        else:
            await self.session.push_to_client(self, addr, data)

    async def put_user(self, addr: int, value: int, width: int) -> None:
        if width not in (1, 2, 4, 8):
            raise ValueError("put_user width must be 1/2/4/8")
        data = value.to_bytes(width, "little")
        # Small scalar stores always ride the response batch.
        self._update_cache(addr, data)
        self.batch.append((addr, data))

    # -- mapping and DMA ---------------------------------------------------

    def map_page(self, buf: bytearray, buf_offset: int, target_offset: int) -> None:
        if buf_offset % PAGE_SIZE or target_offset % PAGE_SIZE:
            raise ValueError("map_page requires page-aligned source and target")
        self.mapped.append((buf, buf_offset, target_offset))

    def alloc_global_buffer(self, size: int, buffer_id: int, client_base: int) -> RegionRef:
        # ``client_base`` names the client's shadow pages, which the server does not track.
        return self.session.create_global_buffer(size, buffer_id, self.desc_id)
