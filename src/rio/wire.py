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
Senders never choose a channel: ``Peer._send`` takes it from the body's row
of ``_LAYOUTS``.  The ``Message`` constructor checks the pair as well, by
one ``KIND_CHANNEL`` lookup, so no ``Message`` holds a mismatched pair.

Bodies: one table, ``_LAYOUTS``, gives each kind its channel, its body
type, a fixed ``struct`` layout, one tail encoding and the enum and flag
fields to check.  ``encode_body`` and ``decode_body`` serve every row; a
payload decodes exactly, every byte accounted for, or raises
``ProtocolError``.

Copies: a frame's bytes are copied once into the frame, by the one join
or concatenation in ``encode_frame``, and once out of it, when
``decode_frame`` takes the payload.  An update batch is sent as a tuple of
its parts (the head, then each page's index and buffer), which
``encode_frame`` joins with the header, so a pushed page goes from the
device buffer into the frame in that one copy.  Page bytes decoded from a
payload stay views of it until the receiver installs them.

Sessions: ``Peer`` is the session core of both stubs.  It numbers the
frames it sends per channel, derives the kind and channel of each body it
sends from the table, and tears the session down (``_fault``) on a
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
from dataclasses import dataclass, field, fields
from enum import IntEnum
from operator import attrgetter
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
# Bodies: one table row per kind
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


class CopyDir(IntEnum):
    FROM_USER = 1  # client memory -> server
    TO_USER = 2    # server data -> client memory


# A body declares its fields in wire order; a body whose kind has a tail
# (see ``_LAYOUTS``) holds it in its last field.


@dataclass(slots=True)
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


@dataclass(slots=True)
class FileOpResponse:
    op_id: int
    result: int
    batch: list[tuple[int, bytes]] = field(default_factory=list)


@dataclass(slots=True)
class CopyRequest:
    op_id: int
    direction: CopyDir
    addr: int
    length: int
    data: bytes = b""  # TO_USER carries the bytes being written


@dataclass(slots=True)
class CopyResponse:
    op_id: int
    data: bytes = b""


@dataclass(slots=True)
class PageFetch:
    region: int
    page: int
    want_ownership: bool = False


@dataclass(slots=True)
class PageData:
    region: int
    page: int
    data: bytes


@dataclass(slots=True)
class PageInvalidate:
    region: int
    pages: list[int]


@dataclass(slots=True)
class PageUpdateBatch:
    region: int
    entries: list[tuple[int, bytes]]  # (page index, page bytes or a view of them)


@dataclass(slots=True)
class Heartbeat:
    """No fields: the ack echoes the heartbeat frame's seq."""


@dataclass(slots=True)
class HeartbeatAck:
    echo_seq: int


@dataclass(slots=True)
class CleanupNotice:
    cause: int = 0


@dataclass(slots=True)
class OpenRequest:
    flags: int
    device_class: str


@dataclass(slots=True)
class OpenAck:
    ok: bool
    desc: int = 0
    errno: int = 0


# Tails: what follows a body's fixed fields, up to the end of the payload.
# A counted tail's count is the last field of its kind's head layout.
NO_TAIL = 0
RAW = 1       # the rest of the payload
PAGE = 2      # exactly one page
ENTRIES = 3   # count x (u64 address, u32 length, that many bytes)
U32S = 4      # count x u32
NAME = 5      # count bytes of UTF-8
PAGES = 6     # count x (u32 page index, one page)

_FLAG = {0: False, 1: True}


def _values(enum) -> dict:
    return {member.value: member for member in enum}


def _copy_data_fits(body: CopyRequest) -> bool:
    """Only a write to the user carries bytes, exactly ``length`` of them."""
    return len(body.data) == (body.length if body.direction == CopyDir.TO_USER else 0)


_LAYOUTS = (
    # kind, its channel, body type, head layout, tail, {head field index: allowed values},
    # and a rule the whole body must keep
    (Kind.FILE_OP_REQUEST, Channel.FILE_OP, FileOpRequest, ">QQBQIIQQBdQH", ENTRIES,
     {2: _values(FileOp)}, None),
    (Kind.FILE_OP_RESPONSE, Channel.FILE_OP, FileOpResponse, ">QqH", ENTRIES, {}, None),
    (Kind.COPY_REQUEST, Channel.FILE_OP, CopyRequest, ">QBQI", RAW,
     {1: _values(CopyDir)}, _copy_data_fits),
    (Kind.COPY_RESPONSE, Channel.FILE_OP, CopyResponse, ">Q", RAW, {}, None),
    (Kind.PAGE_FETCH, Channel.COHERENCE, PageFetch, ">QIB", NO_TAIL, {2: _FLAG}, None),
    (Kind.PAGE_DATA, Channel.COHERENCE, PageData, ">QI", PAGE, {}, None),
    (Kind.PAGE_INVALIDATE, Channel.COHERENCE, PageInvalidate, ">QH", U32S, {}, None),
    (Kind.PAGE_UPDATE_BATCH, Channel.COHERENCE, PageUpdateBatch, ">QH", PAGES, {}, None),
    (Kind.HEARTBEAT, Channel.HEARTBEAT, Heartbeat, ">", NO_TAIL, {}, None),
    (Kind.HEARTBEAT_ACK, Channel.HEARTBEAT, HeartbeatAck, ">Q", NO_TAIL, {}, None),
    (Kind.CLEANUP, Channel.CONTROL, CleanupNotice, ">B", NO_TAIL, {}, None),
    (Kind.OPEN, Channel.CONTROL, OpenRequest, ">IH", NAME, {}, None),
    (Kind.OPEN_ACK, Channel.CONTROL, OpenAck, ">BQi", NO_TAIL, {0: _FLAG}, None),
)


class _Row:
    __slots__ = ("kind", "channel", "type", "fields", "head", "tail", "checks", "rule")

    def __init__(self, kind, channel, body_type, layout, tail, checks, rule) -> None:
        self.kind = kind
        self.channel = channel
        self.type = body_type
        names = tuple(f.name for f in fields(body_type))
        # body -> the tuple of its field values
        self.fields = (attrgetter(*names) if len(names) > 1
                       else lambda body: tuple(getattr(body, name) for name in names))
        self.head = struct.Struct(layout)
        self.tail = tail
        self.checks = tuple(checks.items())
        self.rule = rule
        body_type.kind = kind


_ROWS = {kind: _Row(kind, *rest) for kind, *rest in _LAYOUTS}
_ROW_OF_TYPE = {row.type: row for row in _ROWS.values()}
KIND_CHANNEL = {kind: row.channel for kind, row in _ROWS.items()}
# The receive-side check: kind byte -> (Kind, Channel), or None if unknown.
_FRAME_PAIRS = tuple((Kind(b), KIND_CHANNEL[b]) if b in KIND_CHANNEL else None
                     for b in range(256))
COHERENCE_KINDS = frozenset(k for k, c in KIND_CHANNEL.items() if c == Channel.COHERENCE)
# Kinds that close a request/response pair on the file-operation channel.
RESPONSE_KINDS = (Kind.FILE_OP_RESPONSE, Kind.COPY_RESPONSE)
_ENTRY_HEAD = struct.Struct(">QI")
_PAGE_INDEX = struct.Struct(">I")
_PAGE_ENTRY = _PAGE_INDEX.size + PAGE_SIZE


def _payload(row: _Row, body):
    """The payload of ``body``: bytes, or for a page batch a tuple of its
    parts (the head, then each page's index and its buffer, not a copy),
    which ``encode_frame`` joins with the frame header."""
    vals = row.fields(body)
    tail = row.tail
    if tail == NO_TAIL:
        return row.head.pack(*vals)
    data = vals[-1]
    if tail == RAW or tail == PAGE:
        return row.head.pack(*vals[:-1]) + data
    if tail == NAME:
        data = data.encode()
    head = row.head.pack(*vals[:-1], len(data))
    if tail == NAME:
        return head + data
    if tail == U32S:
        return head + struct.pack(f">{len(data)}I", *data)
    if tail == ENTRIES:
        parts = [head]
        for addr, chunk in data:
            parts += (_ENTRY_HEAD.pack(addr, len(chunk)), chunk)
        return b"".join(parts)
    parts = [head]
    append, index = parts.append, _PAGE_INDEX.pack
    for page, buf in data:
        append(index(page))
        append(buf)
    return tuple(parts)


def encode_body(body) -> bytes:
    """The payload bytes of a body."""
    payload = _payload(_ROW_OF_TYPE[body.__class__], body)
    return payload if payload.__class__ is bytes else b"".join(payload)


def decode_body(msg: Message):
    """The typed body of a message.  Every payload byte is accounted for, or
    this raises ``ProtocolError``, so a body re-encodes to its payload.  Page
    bytes stay views of the payload; installing them is their copy."""
    row = _ROWS[msg.kind]
    payload = msg.payload
    head = row.head
    size = len(payload)
    try:
        vals = head.unpack_from(payload)
        if row.checks:
            vals = list(vals)
            for i, allowed in row.checks:
                vals[i] = allowed[vals[i]]
        off = end = head.size
        tail = row.tail
        if tail == NO_TAIL:
            data = None
        elif tail == RAW:
            end = size
            data = bytes(payload[off:])
        elif tail == PAGE:
            end += PAGE_SIZE
            data = memoryview(payload)[off:end]
        else:
            *vals, count = vals
            if tail == ENTRIES:
                data = []
                for _ in range(count):
                    addr, n = _ENTRY_HEAD.unpack_from(payload, end)
                    end += _ENTRY_HEAD.size + n
                    data.append((addr, bytes(payload[end - n : end])))
            elif tail == U32S:
                end += 4 * count
                data = list(struct.unpack_from(f">{count}I", payload, off))
            elif tail == NAME:
                end += count
                data = bytes(payload[off:end]).decode()
            else:
                end += count * _PAGE_ENTRY
                view = memoryview(payload)
                data = [(_PAGE_INDEX.unpack_from(payload, pos)[0], view[pos + 4 : pos + _PAGE_ENTRY])
                        for pos in range(off, end, _PAGE_ENTRY)]
    except (struct.error, KeyError, ValueError) as exc:
        raise ProtocolError(f"bad {msg.kind.name} payload: {exc!r}") from None
    if end != size:
        raise ProtocolError(f"{msg.kind.name} payload of {size} bytes, {end} accounted for")
    body = row.type(*vals) if tail == NO_TAIL else row.type(*vals, data)
    if row.rule is not None and not row.rule(body):
        raise ProtocolError(f"{msg.kind.name} body fails {row.rule.__name__}")
    return body


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
    ``_send``; ``handlers`` maps each non-coherence kind this side
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

    def _send(self, body) -> float:
        """Send ``body`` on its kind's channel; returns the delivery time.
        The endpoint encodes the frame before ``send`` returns, so the pages
        of an update batch are read as they are now."""
        row = _ROW_OF_TYPE[body.__class__]
        channel = row.channel
        seq = self._out_seq[channel]
        self._out_seq[channel] = seq + 1
        return self.endpoint.send(Message(self.session_id, seq, channel, row.kind,
                                          _payload(row, body)))

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
