"""Wire protocol: message vocabulary, framing, and transports.

Frame layout (all integers big-endian):

    ┌────────────┬──────────┬─────────────┬────────────────┬──────────┬─────────┐
    │ length (4) │ kind (1) │ channel (1) │ session_id (8) │ seq (8)  │ payload │
    └────────────┴──────────┴─────────────┴────────────────┴──────────┴─────────┘

``length`` is the total frame size including the 22-byte header.  ``seq``
is gap-free and strictly increasing per (session, channel) for each
sender.  Each message kind is only valid on one channel; anything else is
a protocol error and the session must be torn down.

Where kind and channel are checked: once per received frame, in
``decode_frame``, by one lookup of the kind byte in a 256-entry table of
valid (kind, channel) pairs, which also turns the bytes into enum members.
Senders never choose a channel: they derive it from the kind through
``KIND_CHANNEL``.  The ``Message`` constructor checks the pair as well, by
one ``KIND_CHANNEL`` lookup, so no ``Message`` holds a mismatched pair.

Copies: a frame's bytes are copied once into the frame, by the one join
or concatenation in ``encode_frame``, and once out of it, when
``decode_frame`` takes the payload.  A body may be sent as a tuple of its
parts (``PageUpdateBatch.parts``), which ``encode_frame`` joins with the
header, so a pushed page goes from the device buffer into the frame in
that one copy.  Page bytes decoded from a payload stay views of it until
the receiver installs them.

Sessions: ``Peer`` is the session core of both stubs.  It numbers the
frames it sends per channel, and tears the session down (``_fault``) on a
sequence gap or on any ``ProtocolError`` while handling a frame: a bad
payload, a coherence fault, or a kind missing from the side's handler
table.  It also holds the session's DSM engine and its pending replies.
The client stub adds heartbeats, requests and local failover; the server
stub adds device dispatch, the copy service and residual cleanup.

Transports:

* ``SimulatedLink`` -- a deterministic full-duplex link with configured
  one-way latency and throughput.  Frames on one direction are delivered
  FIFO, serialized behind earlier in-flight frames; there is no loss or
  reordering, only delay and (injected) disconnection.
* ``TcpEndpoint`` -- the same framing over a real TCP socket.

Throughput unit convention: configuration values in "Mbps" are binary
megabits (2**20 bits) per second; 1 MB of payload means 10**6 bytes.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Optional

from .kernel import Future, Kernel
from .memory import PAGE_SIZE

HEADER = struct.Struct(">IBBQQ")
HEADER_SIZE = HEADER.size  # 22 bytes
MAX_PAYLOAD = (1 << 32) - HEADER_SIZE - 1

MEGABIT = float(1 << 20)  # bits per "Mbps" unit

log = logging.getLogger("rio.wire")


class Channel(IntEnum):
    FILE_OP = 1
    COHERENCE = 2
    HEARTBEAT = 3
    CONTROL = 4


class Kind(IntEnum):
    FILE_OP_REQUEST = 1
    FILE_OP_RESPONSE = 2
    COPY_REQUEST = 3
    COPY_RESPONSE = 4
    PAGE_FETCH = 5
    PAGE_DATA = 6
    PAGE_INVALIDATE = 7
    PAGE_UPDATE_BATCH = 8
    HEARTBEAT = 9
    HEARTBEAT_ACK = 10
    CLEANUP = 11
    OPEN = 12
    OPEN_ACK = 13


KIND_CHANNEL = {
    Kind.FILE_OP_REQUEST: Channel.FILE_OP,
    Kind.FILE_OP_RESPONSE: Channel.FILE_OP,
    Kind.COPY_REQUEST: Channel.FILE_OP,
    Kind.COPY_RESPONSE: Channel.FILE_OP,
    Kind.PAGE_FETCH: Channel.COHERENCE,
    Kind.PAGE_DATA: Channel.COHERENCE,
    Kind.PAGE_INVALIDATE: Channel.COHERENCE,
    Kind.PAGE_UPDATE_BATCH: Channel.COHERENCE,
    Kind.HEARTBEAT: Channel.HEARTBEAT,
    Kind.HEARTBEAT_ACK: Channel.HEARTBEAT,
    Kind.CLEANUP: Channel.CONTROL,
    Kind.OPEN: Channel.CONTROL,
    Kind.OPEN_ACK: Channel.CONTROL,
}

# The receive-side check: kind byte -> (Kind, Channel), or None if unknown.
_FRAME_PAIRS = tuple((Kind(b), KIND_CHANNEL[b]) if b in KIND_CHANNEL else None
                     for b in range(256))

COHERENCE = Channel.COHERENCE
COHERENCE_KINDS = frozenset(k for k, c in KIND_CHANNEL.items() if c == Channel.COHERENCE)

# Kinds that open a request/response pair on the file-operation channel.
REQUEST_KINDS = (Kind.FILE_OP_REQUEST, Kind.COPY_REQUEST)
RESPONSE_KINDS = (Kind.FILE_OP_RESPONSE, Kind.COPY_RESPONSE)


class ProtocolError(Exception):
    """Malformed or out-of-contract frame; the session must be torn down."""


class NeedMoreBytes(Exception):
    """The buffer does not yet hold one complete frame."""


class EncodingError(Exception):
    """The message cannot be represented on the wire."""


@dataclass(slots=True)
class Message:
    session_id: int
    seq: int
    channel: Channel
    kind: Kind
    payload: bytes = b""  # or, on the send side, a tuple of buffers in order

    def __post_init__(self) -> None:
        if KIND_CHANNEL.get(self.kind) != self.channel:
            raise ProtocolError(f"kind {self.kind!r} not valid on channel {self.channel!r}")


def encode_frame(msg: Message) -> bytes:
    payload = msg.payload
    parts = payload.__class__ is tuple  # a body's parts: one join with the header
    size = sum(map(len, payload)) if parts else len(payload)
    if size > MAX_PAYLOAD:
        raise EncodingError(f"payload of {size} bytes exceeds frame limit")
    header = HEADER.pack(HEADER_SIZE + size, msg.kind, msg.channel, msg.session_id, msg.seq)
    return b"".join((header, *payload)) if parts else header + payload


def decode_frame(buf: bytes, offset: int = 0) -> tuple[Message, int]:
    """Decode the first complete frame at ``offset``.

    Returns ``(message, bytes_consumed)``.  Raises ``NeedMoreBytes`` on a
    truncated frame and ``ProtocolError`` on invalid kind/channel bytes.
    """
    avail = len(buf) - offset
    if avail < HEADER_SIZE:
        raise NeedMoreBytes(f"{avail} bytes, need header of {HEADER_SIZE}")
    total, kind_b, chan_b, session_id, seq = HEADER.unpack_from(buf, offset)
    if total < HEADER_SIZE:
        raise ProtocolError(f"frame length {total} below header size")
    if avail < total:
        raise NeedMoreBytes(f"{avail} bytes of a {total}-byte frame")
    pair = _FRAME_PAIRS[kind_b]
    if pair is None or pair[1] != chan_b:
        raise ProtocolError(f"kind byte {kind_b} not valid on channel byte {chan_b}")
    with memoryview(buf) as view:  # one copy, from bytes or a bytearray alike
        payload = bytes(view[offset + HEADER_SIZE : offset + total])
    return Message(session_id, seq, pair[1], pair[0], payload), total


class Framer:
    """Incremental decoder for a reliable byte stream."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[Message]:
        self._buf.extend(data)
        out = []
        pos = 0
        while True:
            try:
                msg, used = decode_frame(self._buf, pos)
            except NeedMoreBytes:
                break
            out.append(msg)
            pos += used
        if pos:
            del self._buf[:pos]
        return out


# ---------------------------------------------------------------------------
# Payload codecs
# ---------------------------------------------------------------------------


class FileOp(IntEnum):
    READ = 1
    WRITE = 2
    IOCTL = 3
    MMAP = 4
    POLL = 5
    RELEASE = 6
    CLOSE_MAP = 7


class PollMode(IntEnum):
    BLOCKING = 0
    NONBLOCKING = 1
    TIMEOUT = 2


_FILE_OP_FIXED = struct.Struct(">QQBQIIQQBdQ")
_ENTRY_HEAD = struct.Struct(">QI")


def _pack_entries(entries: list[tuple[int, bytes]]) -> bytes:
    parts = [struct.pack(">H", len(entries))]
    for addr, data in entries:
        parts.append(_ENTRY_HEAD.pack(addr, len(data)))
        parts.append(data)
    return b"".join(parts)


def _unpack_entries(payload: bytes, off: int) -> list[tuple[int, bytes]]:
    """The entry list that starts at ``off`` and ends the payload."""
    (count,) = struct.unpack_from(">H", payload, off)
    off += 2
    size = len(payload)
    entries = []
    for _ in range(count):
        addr, n = _ENTRY_HEAD.unpack_from(payload, off)
        off += _ENTRY_HEAD.size
        if off + n > size:
            raise ProtocolError(f"entry of {n} bytes runs past a {size}-byte payload")
        entries.append((addr, bytes(payload[off : off + n])))
        off += n
    if off != size:
        raise ProtocolError(f"{size - off} bytes after the last entry")
    return entries


def _check_end(payload: bytes, off: int) -> None:
    if off != len(payload):
        raise ProtocolError(f"{len(payload) - off} bytes after the last field")


@dataclass
class FileOpRequest:
    op_id: int
    desc: int
    op: FileOp
    addr: int = 0           # buffer addr (read/write), ioctl arg, mmap client base
    length: int = 0         # read/write/mmap length
    cmd: int = 0            # ioctl command number
    offset: int = 0         # mmap offset
    events: int = 0         # poll event mask
    mode: int = 0           # PollMode
    budget_ms: float = 0.0  # poll server-side wait budget
    region: int = 0         # close_map target
    prefetch: list[tuple[int, bytes]] = field(default_factory=list)

    kind = Kind.FILE_OP_REQUEST

    def pack(self) -> bytes:
        head = _FILE_OP_FIXED.pack(
            self.op_id, self.desc, self.op, self.addr, self.length, self.cmd,
            self.offset, self.events, self.mode, self.budget_ms, self.region,
        )
        return head + _pack_entries(self.prefetch)

    @classmethod
    def unpack(cls, payload: bytes) -> "FileOpRequest":
        vals = _FILE_OP_FIXED.unpack_from(payload, 0)
        entries = _unpack_entries(payload, _FILE_OP_FIXED.size)
        return cls(vals[0], vals[1], FileOp(vals[2]), vals[3], vals[4], vals[5],
                   vals[6], vals[7], vals[8], vals[9], vals[10], entries)


@dataclass
class FileOpResponse:
    op_id: int
    result: int
    batch: list[tuple[int, bytes]] = field(default_factory=list)

    kind = Kind.FILE_OP_RESPONSE

    def pack(self) -> bytes:
        return struct.pack(">Qq", self.op_id, self.result) + _pack_entries(self.batch)

    @classmethod
    def unpack(cls, payload: bytes) -> "FileOpResponse":
        op_id, result = struct.unpack_from(">Qq", payload, 0)
        batch = _unpack_entries(payload, 16)
        return cls(op_id, result, batch)


class CopyDir(IntEnum):
    FROM_USER = 1  # client memory -> server
    TO_USER = 2    # server data -> client memory


@dataclass
class CopyRequest:
    op_id: int
    direction: CopyDir
    addr: int
    length: int
    data: bytes = b""  # TO_USER carries the bytes being written

    kind = Kind.COPY_REQUEST

    def pack(self) -> bytes:
        return struct.pack(">QBQI", self.op_id, self.direction, self.addr, self.length) + self.data

    @classmethod
    def unpack(cls, payload: bytes) -> "CopyRequest":
        op_id, direction, addr, length = struct.unpack_from(">QBQI", payload, 0)
        direction = CopyDir(direction)
        data = bytes(payload[21:])
        # Only a write to the user carries bytes, exactly ``length`` of them.
        if len(data) != (length if direction == CopyDir.TO_USER else 0):
            raise ProtocolError(f"{direction.name} copy of {length} bytes "
                                f"carries {len(data)} bytes")
        return cls(op_id, direction, addr, length, data)


@dataclass
class CopyResponse:
    op_id: int
    data: bytes = b""

    kind = Kind.COPY_RESPONSE

    def pack(self) -> bytes:
        return struct.pack(">Q", self.op_id) + self.data

    @classmethod
    def unpack(cls, payload: bytes) -> "CopyResponse":
        (op_id,) = struct.unpack_from(">Q", payload, 0)
        return cls(op_id, bytes(payload[8:]))


@dataclass
class PageFetch:
    region: int
    page: int
    want_ownership: bool = False

    kind = Kind.PAGE_FETCH

    def pack(self) -> bytes:
        return struct.pack(">QIB", self.region, self.page, int(self.want_ownership))

    @classmethod
    def unpack(cls, payload: bytes) -> "PageFetch":
        region, page, own = struct.unpack(">QIB", payload)
        if own > 1:
            raise ProtocolError(f"ownership flag {own} is neither 0 nor 1")
        return cls(region, page, bool(own))


_PAGE_DATA_HEAD = struct.Struct(">QI")


@dataclass
class PageData:
    region: int
    page: int
    data: bytes

    kind = Kind.PAGE_DATA

    def pack(self) -> bytes:
        return _PAGE_DATA_HEAD.pack(self.region, self.page) + self.data

    @classmethod
    def unpack(cls, payload: bytes) -> "PageData":
        # The page stays a view of the payload; installing it is its copy.
        if len(payload) != _PAGE_DATA_HEAD.size + PAGE_SIZE:
            raise ProtocolError(f"page data of {len(payload) - _PAGE_DATA_HEAD.size} "
                                f"bytes, not one {PAGE_SIZE}-byte page")
        region, page = _PAGE_DATA_HEAD.unpack_from(payload, 0)
        return cls(region, page, memoryview(payload)[_PAGE_DATA_HEAD.size :])


@dataclass
class PageInvalidate:
    region: int
    pages: list[int]

    kind = Kind.PAGE_INVALIDATE

    def pack(self) -> bytes:
        return struct.pack(">QH", self.region, len(self.pages)) + struct.pack(
            f">{len(self.pages)}I", *self.pages
        )

    @classmethod
    def unpack(cls, payload: bytes) -> "PageInvalidate":
        region, count = struct.unpack_from(">QH", payload, 0)
        _check_end(payload, 10 + 4 * count)
        pages = list(struct.unpack_from(f">{count}I", payload, 10))
        return cls(region, pages)


_BATCH_HEAD = struct.Struct(">QH")
_PAGE_INDEX = struct.Struct(">I")


@dataclass
class PageUpdateBatch:
    region: int
    entries: list[tuple[int, bytes]]  # (page index, page bytes or a view of them)

    kind = Kind.PAGE_UPDATE_BATCH

    def parts(self) -> tuple:
        """The payload as buffers in order: the head, then each page's index
        and bytes.  The page buffers are the entries' own, not copies."""
        parts = [_BATCH_HEAD.pack(self.region, len(self.entries))]
        append, index = parts.append, _PAGE_INDEX.pack
        for page, data in self.entries:
            append(index(page))
            append(data)
        return tuple(parts)

    def pack(self) -> bytes:
        return b"".join(self.parts())

    @classmethod
    def unpack(cls, payload: bytes) -> "PageUpdateBatch":
        # Page bytes stay views of the payload; installing them is their copy.
        region, count = _BATCH_HEAD.unpack_from(payload, 0)
        if len(payload) != _BATCH_HEAD.size + count * (4 + PAGE_SIZE):
            raise ProtocolError(f"update batch of {len(payload)} bytes does not hold "
                                f"exactly {count} {PAGE_SIZE}-byte pages")
        view = memoryview(payload)
        off = _BATCH_HEAD.size
        entries = []
        for _ in range(count):
            (page,) = _PAGE_INDEX.unpack_from(payload, off)
            off += 4
            entries.append((page, view[off : off + PAGE_SIZE]))
            off += PAGE_SIZE
        return cls(region, entries)


@dataclass
class OpenRequest:
    device_class: str
    flags: int = 0

    kind = Kind.OPEN

    def pack(self) -> bytes:
        name = self.device_class.encode()
        return struct.pack(">IH", self.flags, len(name)) + name

    @classmethod
    def unpack(cls, payload: bytes) -> "OpenRequest":
        flags, n = struct.unpack_from(">IH", payload, 0)
        _check_end(payload, 6 + n)
        return cls(payload[6:].decode(), flags)


@dataclass
class OpenAck:
    ok: bool
    desc: int = 0
    errno: int = 0

    kind = Kind.OPEN_ACK

    def pack(self) -> bytes:
        return struct.pack(">BQi", int(self.ok), self.desc, self.errno)

    @classmethod
    def unpack(cls, payload: bytes) -> "OpenAck":
        ok, desc, errno = struct.unpack(">BQi", payload)
        if ok > 1:
            raise ProtocolError(f"ok flag {ok} is neither 0 nor 1")
        return cls(bool(ok), desc, errno)


@dataclass
class HeartbeatAck:
    echo_seq: int

    kind = Kind.HEARTBEAT_ACK

    def pack(self) -> bytes:
        return struct.pack(">Q", self.echo_seq)

    @classmethod
    def unpack(cls, payload: bytes) -> "HeartbeatAck":
        return cls(struct.unpack(">Q", payload)[0])


@dataclass
class CleanupNotice:
    cause: int = 0

    kind = Kind.CLEANUP

    def pack(self) -> bytes:
        return struct.pack(">B", self.cause)

    @classmethod
    def unpack(cls, payload: bytes) -> "CleanupNotice":
        return cls(struct.unpack(">B", payload)[0])


_BODY_TYPES = {
    Kind.FILE_OP_REQUEST: FileOpRequest,
    Kind.FILE_OP_RESPONSE: FileOpResponse,
    Kind.COPY_REQUEST: CopyRequest,
    Kind.COPY_RESPONSE: CopyResponse,
    Kind.PAGE_FETCH: PageFetch,
    Kind.PAGE_DATA: PageData,
    Kind.PAGE_INVALIDATE: PageInvalidate,
    Kind.PAGE_UPDATE_BATCH: PageUpdateBatch,
    Kind.OPEN: OpenRequest,
    Kind.OPEN_ACK: OpenAck,
    Kind.HEARTBEAT_ACK: HeartbeatAck,
    Kind.CLEANUP: CleanupNotice,
}


def decode_body(msg: Message):
    """Decode a message payload into its typed body (None for heartbeats)."""
    cls = _BODY_TYPES.get(msg.kind)
    if cls is None:
        return None
    try:
        return cls.unpack(msg.payload)
    except (struct.error, ValueError, IndexError) as exc:
        raise ProtocolError(f"bad {msg.kind.name} payload: {exc}") from None


# ---------------------------------------------------------------------------
# Session core
# ---------------------------------------------------------------------------


@dataclass
class SessionConfig:
    """Settings both stubs share: heartbeat cadence and copy optimization."""

    heartbeat_interval_ms: float = 500.0
    heartbeat_miss_limit: int = 3
    optimize: bool = True

    @property
    def timeout_ms(self) -> float:
        return self.heartbeat_interval_ms * self.heartbeat_miss_limit


class Peer:
    """One side of a session.  ``dsm`` is a ``DsmNode`` that sends through
    ``_send_coherence``; ``handlers`` maps each non-coherence kind this side
    receives to a method taking the message.  Subclasses define ``_fault``.
    """

    def __init__(self, session_id: int, endpoint: "Endpoint", dsm,
                 handlers: dict[Kind, Callable[[Message], None]]) -> None:
        self.session_id = session_id
        self.endpoint = endpoint
        self.dsm = dsm
        self.live = True
        self.pending: dict[int, Future] = {}
        self._handlers = handlers
        self._out_seq = {ch: 0 for ch in Channel}
        self._in_seq = {ch: 0 for ch in Channel}

    def _fault(self) -> None:
        raise NotImplementedError

    def _send(self, kind: Kind, body) -> float:
        """Send ``body`` on its kind's channel; returns the delivery time."""
        channel = KIND_CHANNEL[kind]
        seq = self._out_seq[channel]
        self._out_seq[channel] = seq + 1
        return self.endpoint.send(Message(self.session_id, seq, channel, kind,
                                          body.pack() if body is not None else b""))

    def _send_coherence(self, body) -> None:
        """Send a DSM body.  An update batch goes out as its parts, so its
        pages are copied once, into the frame; the endpoint encodes the frame
        before ``send`` returns, so the pages are read as they are now."""
        seq = self._out_seq[COHERENCE]
        self._out_seq[COHERENCE] = seq + 1
        payload = body.parts() if body.__class__ is PageUpdateBatch else body.pack()
        self.endpoint.send(Message(self.session_id, seq, COHERENCE, body.kind, payload))

    def on_message(self, msg: Message) -> None:
        if not self.live:
            return
        expected = self._in_seq[msg.channel]
        if msg.seq != expected:
            log.error("%s session %d: seq gap on %s (%d != %d)", self.dsm.side,
                      self.session_id, msg.channel.name, msg.seq, expected)
            self._fault()
            return
        self._in_seq[msg.channel] = expected + 1
        try:
            self._dispatch_message(msg)
        except ProtocolError as exc:
            log.error("%s session %d: %s", self.dsm.side, self.session_id, exc)
            self._fault()

    def _dispatch_message(self, msg: Message) -> None:
        if msg.kind in COHERENCE_KINDS:
            self.dsm.handle(decode_body(msg))
            return
        handler = self._handlers.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"{msg.kind.name} is not sent to the {self.dsm.side}")
        handler(msg)

    def _expect(self, key: int) -> Future:
        """Register a pending reply; ``_resolve`` or ``_fail_pending`` ends it."""
        fut = self.pending[key] = Future(f"reply-{key}")
        return fut

    def _resolve(self, key: int, value) -> None:
        fut = self.pending.pop(key, None)
        if fut is not None:
            fut.set_result(value)

    def _fail_pending(self, error: Callable[[], BaseException]) -> None:
        for fut in list(self.pending.values()):
            fut.set_exception(error())
        self.pending.clear()


# ---------------------------------------------------------------------------
# Link configuration and statistics
# ---------------------------------------------------------------------------


@dataclass
class LinkConfig:
    """Point-to-point link parameters.

    ``one_way_latency_ms`` is half the round-trip time.  ``throughput_bps``
    of None means an infinitely fast pipe (loopback).
    """

    one_way_latency_ms: float = 0.0
    throughput_bps: Optional[float] = None
    jitter_ms: float = 0.0
    disconnect_at_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.one_way_latency_ms < 0:
            raise ValueError("latency must be >= 0")
        if self.throughput_bps is not None and self.throughput_bps <= 0:
            raise ValueError("throughput must be > 0")

    @classmethod
    def mbps(cls, one_way_latency_ms: float, throughput_mbps: Optional[float],
             jitter_ms: float = 0.0, disconnect_at_ms: Optional[float] = None) -> "LinkConfig":
        bps = None if throughput_mbps is None else throughput_mbps * MEGABIT
        return cls(one_way_latency_ms, bps, jitter_ms, disconnect_at_ms)

    @classmethod
    def from_file(cls, path: str) -> "LinkConfig":
        """Load from a ``key = value`` file.

        Keys: ``latency_ms`` (one-way), ``throughput_mbps``, ``jitter_ms``,
        ``disconnect_at_ms``.
        """
        values: dict[str, float] = {}
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {raw.rstrip()}")
                key, val = (part.strip() for part in line.split("=", 1))
                values[key] = float(val)
        unknown = set(values) - {"latency_ms", "throughput_mbps", "jitter_ms", "disconnect_at_ms"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls.mbps(
            values.get("latency_ms", 0.0),
            values.get("throughput_mbps"),
            values.get("jitter_ms", 0.0),
            values.get("disconnect_at_ms"),
        )

    def transfer_ms(self, nbytes: int) -> float:
        if self.throughput_bps is None:
            return 0.0
        return nbytes * 8 * 1000.0 / self.throughput_bps


@dataclass
class WireStats:
    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped: int = 0
    bytes_on_wire: int = 0
    round_trips: int = 0  # file-op channel request/response pairs completed

    def note_delivered(self, msg: Message) -> None:
        self.frames_delivered += 1
        if msg.kind in RESPONSE_KINDS:
            self.round_trips += 1


# ---------------------------------------------------------------------------
# Simulated link
# ---------------------------------------------------------------------------


class Endpoint:
    """One side of a transport.  Assign ``on_message`` before traffic flows."""

    def __init__(self) -> None:
        self.on_message: Optional[Callable[[Message], None]] = None

    def send(self, msg: Message) -> float:
        raise NotImplementedError


class _SimEndpoint(Endpoint):
    def __init__(self, link: "SimulatedLink", direction: int) -> None:
        super().__init__()
        self._link = link
        self._direction = direction
        self.stats = link.stats

    def send(self, msg: Message) -> float:
        return self._link._send(self._direction, msg)


class SimulatedLink:
    """Deterministic duplex link between two in-process endpoints.

    Delivery time for a frame sent at ``t`` is
    ``t + one_way_latency + frame_bytes*8/throughput`` pushed back behind
    any earlier frame still occupying the same direction (FIFO).
    """

    def __init__(self, kernel: Kernel, config: LinkConfig, rng=None) -> None:
        self.kernel = kernel
        self.config = config
        self.stats = WireStats()
        self._rng = rng
        self._busy_until = [0.0, 0.0]  # per direction: line free time
        self._cut_at: Optional[float] = config.disconnect_at_ms
        self.a = _SimEndpoint(self, 0)  # a.send() delivers to b
        self.b = _SimEndpoint(self, 1)

    def cut(self, at_ms: Optional[float] = None) -> None:
        """Disconnect the link at ``at_ms`` (default: now)."""
        when = self.kernel.now() if at_ms is None else at_ms
        if self._cut_at is None or when < self._cut_at:
            self._cut_at = when

    @property
    def disconnected(self) -> bool:
        return self._cut_at is not None and self.kernel.now() >= self._cut_at

    def _send(self, direction: int, msg: Message) -> float:
        now = self.kernel.now()
        frame = encode_frame(msg)
        self.stats.frames_sent += 1
        if self._cut_at is not None and now >= self._cut_at:
            self.stats.frames_dropped += 1
            return float("inf")
        nbytes = len(frame)
        self.stats.bytes_on_wire += nbytes
        config = self.config
        depart = max(now, self._busy_until[direction])
        arrival = depart + config.transfer_ms(nbytes) + config.one_way_latency_ms
        if config.jitter_ms and self._rng is not None:
            arrival += self._rng.uniform(0.0, config.jitter_ms)
            arrival = max(arrival, self._busy_until[direction])
        self._busy_until[direction] = arrival - config.one_way_latency_ms
        receiver = self.b if direction == 0 else self.a
        self.kernel.call_at(arrival, self._deliver, receiver, frame)
        return arrival

    def _deliver(self, receiver: _SimEndpoint, frame: bytes) -> None:
        msg, used = decode_frame(frame)
        if used != len(frame):
            raise ProtocolError("partial frame delivery")
        self.stats.note_delivered(msg)
        if receiver.on_message is not None:
            receiver.on_message(msg)


class TcpEndpoint(Endpoint):
    """Framed messages over a connected TCP socket (RealKernel only)."""

    def __init__(self, kernel, sock) -> None:
        super().__init__()
        self.kernel = kernel
        self.sock = sock
        self.stats = WireStats()
        self._framer = Framer()
        self.on_close: Optional[Callable[[], None]] = None
        sock.setblocking(True)
        kernel.add_reader(sock, self._readable)

    def send(self, msg: Message) -> float:
        frame = encode_frame(msg)
        self.stats.frames_sent += 1
        self.stats.bytes_on_wire += len(frame)
        try:
            self.sock.sendall(frame)
        except OSError:
            self.stats.frames_dropped += 1
        return self.kernel.now()

    def _readable(self) -> None:
        try:
            data = self.sock.recv(65536)
        except OSError:
            data = b""
        if not data:
            self.close()
            return
        try:
            msgs = self._framer.feed(data)
        except ProtocolError:
            # Undecodable stream: this peer is broken, drop the connection.
            self.close()
            return
        for msg in msgs:
            self.stats.note_delivered(msg)
            if self.on_message is not None:
                self.on_message(msg)

    def close(self) -> None:
        self.kernel.remove_reader(self.sock)
        try:
            self.sock.close()
        except OSError:
            pass
        if self.on_close is not None:
            self.on_close()
            self.on_close = None
