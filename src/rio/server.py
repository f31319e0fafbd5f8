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
from .memory import PAGE_SIZE
from .wire import (
    CopyDir,
    CopyRequest,
    Endpoint,
    FileOp,
    FileOpRequest,
    FileOpResponse,
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

GBUF_REGION_BASE = 1 << 32  # global buffers use client-chosen ids in this namespace

_POLL = FileOp.POLL  # a module name: an enum class attribute costs more to read

CAUSE_HEARTBEAT_TIMEOUT = "HeartbeatTimeout"
CAUSE_LINK_DOWN = "LinkDown"
CAUSE_CLIENT_CLOSE = "ClientClose"
_CAUSE_BY_CODE = {0: CAUSE_LINK_DOWN, 1: CAUSE_HEARTBEAT_TIMEOUT, 2: CAUSE_CLIENT_CLOSE}

COPY_ROUND_LIMIT = 16  # per-op guard against pathological devices


@dataclass
class ServerConfig(SessionConfig):
    dma_policy: dsmmod.Policy = dsmmod.Policy.UPDATE_PUSH  # framesource maps + global buffers


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
        self.stats = ServerStats()

    def attach(self, endpoint: Endpoint) -> None:
        endpoint.on_message = lambda msg, ep=endpoint: self._route(ep, msg)

    def _route(self, endpoint: Endpoint, msg: Message) -> None:
        key = (endpoint, msg.session_id)
        session = self.sessions.get(key)
        if session is None:
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
            for ctx in session.live_ops.values():
                counts["cache_entries"] += len(ctx.cache)
                counts["batch_entries"] += len(ctx.batch)
        return counts


@dataclass
class _DescEntry:
    device: Device
    desc: Descriptor
    lock: Lock


@dataclass
class _RegionRec:
    region_id: int
    desc_id: int
    ref: RegionRef


class _OpContext:
    __slots__ = ("op_id", "desc_id", "cache", "batch", "rounds", "mapped")

    def __init__(self, op_id: int, desc_id: int,
                 prefetch: list[tuple[int, bytes]]) -> None:
        self.op_id = op_id
        self.desc_id = desc_id
        self.cache: list[list] = [[addr, bytearray(data)] for addr, data in prefetch]
        self.batch: list[tuple[int, bytes]] = []
        self.rounds = 0
        self.mapped: list[tuple[bytearray, int, int]] = []  # (buf, buf_off, client_addr)


class _MappedPagesStore(dsmmod.PageStore):
    """Region pages backed by the buffers a device handed to map_page.

    Each page is kept as a view of its buffer, and ``read_page`` returns
    that view, not a copy; a mapped buffer cannot be resized while its
    region exists.  What the node sends is still a snapshot at DMA (or
    fetch) time: the session's ``send`` encodes the frame, copying each
    page into it, before it returns, so a later fill of the buffer does
    not reach a frame already sent.
    """

    def __init__(self, sources: list[tuple[bytearray, int]]) -> None:
        self.pages = [memoryview(buf)[off : off + PAGE_SIZE] for buf, off in sources]

    def read_page(self, index: int) -> memoryview:
        return self.pages[index]

    def write_page(self, index: int, data: bytes) -> None:
        self.pages[index][:] = data


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
        self.regions: dict[int, _RegionRec] = {}
        self.live_ops: dict[int, _OpContext] = {}
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
        ctx = _OpContext(req.op_id, req.desc, req.prefetch)
        self.live_ops[req.op_id] = ctx
        mem = ServerMemoryContext(self, ctx)
        try:
            if req.op is _POLL:
                result = await self._run_poll(entry, req, mem)
            else:
                async with entry.lock:
                    result = await self._locked_ops[req.op](entry, req, ctx, mem)
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
        batch = ctx.batch
        self.live_ops.pop(req.op_id, None)
        if not self.live:
            return
        self.server.stats.batch_bytes += sum(len(d) for _, d in batch)
        delivered = self._send(FileOpResponse(req.op_id, result, batch))
        entry.device.response_delivered(entry.desc, delivered)

    # The locked ops share one signature.  The device ops return the
    # device's coroutine, which ``_run_op`` awaits itself.

    def _run_read(self, entry: _DescEntry, req: FileOpRequest, ctx: _OpContext,
                  mem: MemoryContext):
        return entry.device.read(entry.desc, req.addr, req.length, mem)

    def _run_write(self, entry: _DescEntry, req: FileOpRequest, ctx: _OpContext,
                   mem: MemoryContext):
        return entry.device.write(entry.desc, req.addr, req.length, mem)

    def _run_ioctl(self, entry: _DescEntry, req: FileOpRequest, ctx: _OpContext,
                   mem: MemoryContext):
        return entry.device.ioctl(entry.desc, req.cmd, req.addr, mem)

    async def _run_poll(self, entry: _DescEntry, req: FileOpRequest,
                        mem: MemoryContext) -> int:
        wait = req.mode != PollMode.NONBLOCKING
        poll_task = self.kernel.spawn(
            entry.device.poll(entry.desc, req.events, wait, mem), "poll")
        budget = req.budget_ms if req.mode == PollMode.TIMEOUT else None
        finished, result = await self.kernel.race_timeout(poll_task, budget)
        return result if finished else 0

    async def _run_mmap(self, entry: _DescEntry, req: FileOpRequest,
                        ctx: _OpContext, mem: MemoryContext) -> int:
        result = await entry.device.mmap(entry.desc, req.length, req.offset, mem)
        if result < 0:
            return result
        npages = dsmmod.pages_for(req.length)
        if len(ctx.mapped) != npages:
            return -EINVAL
        by_addr = sorted(ctx.mapped, key=lambda m: m[2])
        base = req.addr
        for i, (_, _, target_off) in enumerate(by_addr):
            if target_off != i * PAGE_SIZE:
                return -EINVAL
        store = _MappedPagesStore([(buf, off) for buf, off, _ in by_addr])
        policy = (self.config.dma_policy if entry.device.class_name == "framesource"
                  else dsmmod.Policy.INVALIDATE)
        region_id = self._region_id
        self._region_id += 1
        region = dsmmod.make_server_region(region_id, base, req.length, store,
                                           dsmmod.Origin.MAP_PAGE, policy)
        # The client maps the whole range: split the kernel-side sections
        # down to page tracking and account the mappings.
        region.tracker.split(0, npages)
        for i in range(npages):
            region.tracker.map_count[i] += 1
        self.dsm.register_region(region)
        ref = RegionRef(region_id, req.length, None, self)
        self.regions[region_id] = _RegionRec(region_id, entry.desc.desc_id, ref)
        attach = getattr(entry.device, "region_attached", None)
        if attach is not None:
            attach(entry.desc, ref)
        return region_id

    async def _run_close_map(self, entry: _DescEntry, req: FileOpRequest,
                             ctx: _OpContext, mem: MemoryContext) -> int:
        rec = self.regions.get(req.region)
        if rec is None:
            return -EINVAL
        await self._drop_region(rec)
        return 0

    async def _drop_region(self, rec: _RegionRec) -> None:
        entry = self.descs.get(rec.desc_id)
        if entry is not None:
            await entry.device.close_map(entry.desc, rec.ref)
        region = self.dsm.regions.get(rec.region_id)
        if region is not None:
            for i in range(region.npages):
                region.tracker.map_count[i] = 0
            if region.origin == dsmmod.Origin.MAP_PAGE:
                # Unmapped: stitch split units back into sections.
                region.tracker.coalesce(0, region.npages)
        self.dsm.drop_region(rec.region_id)
        self.regions.pop(rec.region_id, None)

    async def _release_descriptor(self, entry: _DescEntry, req: FileOpRequest,
                                  ctx: _OpContext, mem: MemoryContext) -> int:
        for rec in [r for r in self.regions.values() if r.desc_id == entry.desc.desc_id]:
            await self._drop_region(rec)
        await entry.device.release(entry.desc)
        self.descs.pop(entry.desc.desc_id, None)
        return 0

    # -- copy service ----------------------------------------------------------

    async def fetch_from_client(self, ctx: _OpContext, addr: int, length: int) -> bytes:
        """A cache miss: read the range from client memory."""
        return await self._copy_round(ctx, CopyDir.FROM_USER, addr, length)

    async def push_to_client(self, ctx: _OpContext, addr: int, data: bytes) -> None:
        """Unoptimized mode: flush one driver write as its own round trip."""
        await self._copy_round(ctx, CopyDir.TO_USER, addr, len(data), data)

    async def _copy_round(self, ctx: _OpContext, direction: CopyDir, addr: int, length: int,
                          data: bytes = b"") -> bytes:
        """One copy round trip to the client, at most ``COPY_ROUND_LIMIT`` per op."""
        if ctx.rounds >= COPY_ROUND_LIMIT:
            raise OpAborted(f"op {ctx.op_id} exceeded {COPY_ROUND_LIMIT} copy rounds")
        ctx.rounds += 1
        copy_id = self._copy_id
        self._copy_id += 1
        fut = self._expect(copy_id)
        self._send(CopyRequest(copy_id, direction, addr, length, data))
        return await fut

    # -- global buffers ----------------------------------------------------------

    def create_global_buffer(self, size: int, buffer_id: int, client_base: int,
                             desc_id: int) -> RegionRef:
        if size <= 0:
            raise dsmmod.DsmError("global buffer size must be positive")
        region_id = GBUF_REGION_BASE | buffer_id
        if region_id in self.dsm.regions:
            raise dsmmod.DsmError(f"global buffer {buffer_id} already exists")
        buf = bytearray(dsmmod.pages_for(size) * PAGE_SIZE)
        region = dsmmod.make_server_region(
            region_id, client_base, size, dsmmod.BufferStore(buf),
            dsmmod.Origin.GLOBAL_BUFFER, self.config.dma_policy,
            initial=dsmmod.PageState.INVALID)  # the client allocated it
        self.dsm.register_region(region)
        ref = RegionRef(region_id, size, buf, self)
        self.regions[region_id] = _RegionRec(region_id, desc_id, ref)
        return ref

    def _dma_complete(self, region_id: int, offset: int, length: int) -> None:
        if self.live:
            self.dsm.dma_complete(region_id, offset, length)

    # -- liveness and cleanup ------------------------------------------------------

    async def _watch_liveness(self) -> None:
        interval = self.config.heartbeat_interval_ms
        while self.live:
            await self.kernel.sleep(interval)
            silent = self.kernel.now() - self.last_heartbeat
            if silent > self.config.timeout_ms:
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
        for task in list(self.workers):
            task.cancel()
        self._watchdog.cancel()
        self._fail_pending(lambda: SessionClosed(f"cleanup: {cause}"))
        self.kernel.spawn(self._cleanup_devices(), "cleanup")

    async def _cleanup_devices(self) -> None:
        # Mapped areas first, then descriptors, mirroring process teardown.
        for rec in list(self.regions.values()):
            try:
                await self._drop_region(rec)
            except Exception:
                log.exception("dropping region %d during cleanup failed", rec.region_id)
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
    """Routes device memory operations through the prefetch cache and batch."""

    def __init__(self, session: ServerSession, ctx: _OpContext) -> None:
        self.session = session
        self.ctx = ctx

    # -- reads ------------------------------------------------------------

    async def copy_from_user(self, addr: int, length: int) -> bytes:
        if length == 0:
            return b""
        gaps = self._uncovered(addr, length)
        if gaps:
            self.session.server.stats.cache_misses += 1
            for gap_addr, gap_len in gaps:
                data = await self.session.fetch_from_client(self.ctx, gap_addr, gap_len)
                patched = self._overlay_batch(gap_addr, bytearray(data))
                self.ctx.cache.append([gap_addr, patched])
        else:
            self.session.server.stats.cache_hits += 1
        return self._read_cache(addr, length)

    def _uncovered(self, addr: int, length: int) -> list[tuple[int, int]]:
        spans = sorted((max(e_addr, addr), min(e_addr + len(e_data), addr + length))
                       for e_addr, e_data in self.ctx.cache
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
        for b_addr, b_data in self.ctx.batch:
            lo = max(addr, b_addr)
            hi = min(addr + len(data), b_addr + len(b_data))
            if lo < hi:
                data[lo - addr : hi - addr] = b_data[lo - b_addr : hi - b_addr]
        return data

    def _read_cache(self, addr: int, length: int) -> bytes:
        out = bytearray(length)
        for e_addr, e_data in self.ctx.cache:
            lo = max(addr, e_addr)
            hi = min(addr + length, e_addr + len(e_data))
            if lo < hi:
                out[lo - addr : hi - addr] = e_data[lo - e_addr : hi - e_addr]
        return bytes(out)

    # -- writes ------------------------------------------------------------

    def _update_cache(self, addr: int, data: bytes) -> None:
        for entry in self.ctx.cache:
            e_addr, e_data = entry
            lo = max(addr, e_addr)
            hi = min(addr + len(data), e_addr + len(e_data))
            if lo < hi:
                e_data[lo - e_addr : hi - e_addr] = data[lo - addr : hi - addr]

    async def copy_to_user(self, addr: int, data: bytes) -> None:
        data = bytes(data)
        self._update_cache(addr, data)
        if self.session.config.optimize:
            self.ctx.batch.append((addr, data))
        else:
            await self.session.push_to_client(self.ctx, addr, data)

    async def put_user(self, addr: int, value: int, width: int) -> None:
        if width not in (1, 2, 4, 8):
            raise ValueError("put_user width must be 1/2/4/8")
        data = value.to_bytes(width, "little")
        # Small scalar stores always ride the response batch.
        self._update_cache(addr, data)
        self.ctx.batch.append((addr, data))

    # -- mapping and DMA ---------------------------------------------------

    def map_page(self, buf: bytearray, buf_offset: int, target_offset: int) -> None:
        if buf_offset % PAGE_SIZE or target_offset % PAGE_SIZE:
            raise ValueError("map_page requires page-aligned source and target")
        self.ctx.mapped.append((buf, buf_offset, target_offset))

    def alloc_global_buffer(self, size: int, buffer_id: int, client_base: int) -> RegionRef:
        return self.session.create_global_buffer(size, buffer_id, client_base,
                                                 self.ctx.desc_id)

    def dma_complete(self, region_ref, offset: int, length: int) -> None:
        if region_ref is not None:
            region_ref.dma_complete(offset, length)
