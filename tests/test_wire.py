"""Framing, payload codecs, and the simulated link timing model."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rio.kernel import SimKernel
from rio.wire import (
    Channel,
    CleanupNotice,
    CopyDir,
    CopyRequest,
    CopyResponse,
    FileOp,
    FileOpRequest,
    FileOpResponse,
    Framer,
    HEADER,
    HEADER_SIZE,
    Heartbeat,
    HeartbeatAck,
    Kind,
    KIND_CHANNEL,
    LinkConfig,
    MEGABIT,
    Message,
    NeedMoreBytes,
    OpenAck,
    OpenRequest,
    PageData,
    PageFetch,
    PageInvalidate,
    PageUpdateBatch,
    ProtocolError,
    SimulatedLink,
    decode_body,
    _LAYOUTS,
    decode_frame,
    encode_body,
    encode_frame,
)


def heartbeat(session=1, seq=0):
    return Message(session, seq, Channel.HEARTBEAT, Kind.HEARTBEAT, b"")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def test_minimal_frame_is_22_bytes_with_matching_length_field():
    frame = encode_frame(heartbeat())
    assert len(frame) == 22
    assert int.from_bytes(frame[:4], "big") == 22


def test_payload_frame_length_adds_up():
    # Independent byte count: 4 + 1 + 1 + 8 + 8 header fields + payload.
    payload = bytes(576)
    expected = 4 + 1 + 1 + 8 + 8 + len(payload)
    msg = Message(9, 3, Channel.FILE_OP, Kind.FILE_OP_REQUEST, payload)
    frame = encode_frame(msg)
    assert expected == 598
    assert len(frame) == expected
    assert int.from_bytes(frame[:4], "big") == expected


def _random_message(rng):
    kind = rng.choice(list(Kind))
    return Message(
        session_id=rng.getrandbits(64),
        seq=rng.getrandbits(64),
        channel=KIND_CHANNEL[kind],
        kind=kind,
        payload=rng.randbytes(rng.randrange(0, 300)),
    )


def test_round_trip_identity_over_1000_random_messages():
    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        msg = _random_message(rng)
        decoded, used = decode_frame(encode_frame(msg))
        assert used == HEADER_SIZE + len(msg.payload)
        assert decoded == msg


def test_truncated_frame_needs_more_bytes():
    frame = encode_frame(heartbeat())
    with pytest.raises(NeedMoreBytes):
        decode_frame(frame[:21])
    with pytest.raises(NeedMoreBytes):
        decode_frame(frame[:5])


def test_unknown_kind_byte_is_protocol_error():
    frame = bytearray(encode_frame(heartbeat()))
    frame[4] = 0xFF
    with pytest.raises(ProtocolError):
        decode_frame(bytes(frame))


def test_kind_channel_mismatch_rejected():
    with pytest.raises(ProtocolError):
        Message(1, 0, Channel.HEARTBEAT, Kind.PAGE_FETCH, b"")
    frame = bytearray(encode_frame(heartbeat()))
    frame[5] = Channel.COHERENCE
    with pytest.raises(ProtocolError):
        decode_frame(bytes(frame))


def test_every_kind_channel_byte_pair_decodes_exactly_or_is_rejected():
    payload = b"\x01\x02\x03"
    accepted = 0
    for kind_b in range(256):
        for chan_b in range(256):
            frame = HEADER.pack(HEADER_SIZE + len(payload), kind_b, chan_b, 77, 5) + payload
            if KIND_CHANNEL.get(kind_b) == chan_b:
                msg, used = decode_frame(frame)
                assert used == len(frame)
                assert msg == Message(77, 5, Channel(chan_b), Kind(kind_b), payload)
                assert msg.kind is Kind(kind_b) and msg.channel is Channel(chan_b)
                accepted += 1
            else:
                with pytest.raises(ProtocolError):
                    decode_frame(frame)
    assert accepted == len(KIND_CHANNEL) == len(Kind)


def test_message_constructor_checks_every_pair():
    for kind in Kind:
        for channel in Channel:
            if KIND_CHANNEL[kind] == channel:
                assert Message(1, 0, channel, kind).kind is kind
            else:
                with pytest.raises(ProtocolError):
                    Message(1, 0, channel, kind)
    with pytest.raises(ProtocolError):
        Message(1, 0, Channel.FILE_OP, 0)


def test_two_concatenated_frames_decode_in_order():
    m1 = Message(1, 0, Channel.FILE_OP, Kind.FILE_OP_REQUEST, b"abc")
    m2 = heartbeat(seq=7)
    stream = encode_frame(m1) + encode_frame(m2)
    first, used = decode_frame(stream)
    assert first == m1
    assert used == len(encode_frame(m1))
    second, used2 = decode_frame(stream, used)
    assert second == m2
    assert used + used2 == len(stream)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 12), min_size=0, max_size=6), st.integers(0, 2**32 - 1))
def test_framer_reassembles_any_chunking(kinds, seed):
    rng = random.Random(seed)
    msgs = []
    for i in kinds:
        kind = list(Kind)[i]
        msgs.append(Message(5, len(msgs), KIND_CHANNEL[kind], kind,
                            rng.randbytes(rng.randrange(0, 64))))
    stream = b"".join(encode_frame(m) for m in msgs)
    framer = Framer()
    out = []
    pos = 0
    while pos < len(stream):
        take = rng.randrange(1, 40)
        out.extend(framer.feed(stream[pos : pos + take]))
        pos += take
    assert out == msgs


# ---------------------------------------------------------------------------
# Payload codecs
# ---------------------------------------------------------------------------


def test_file_op_request_codec():
    req = FileOpRequest(7, 3, FileOp.IOCTL, addr=0x1000, cmd=0xC018_4501,
                        prefetch=[(0x1000, b"hdr"), (0x9000, b"\x00" * 9)])
    assert _decode(Kind.FILE_OP_REQUEST, encode_body(req)) == req


def test_file_op_response_codec_preserves_batch_order():
    resp = FileOpResponse(9, -11, batch=[(4, b"zz"), (2, b"a"), (4, b"q")])
    assert _decode(Kind.FILE_OP_RESPONSE, encode_body(resp)) == resp


def test_copy_and_page_codecs():
    for body in (
        CopyRequest(1, CopyDir.FROM_USER, 0x20, 16),
        CopyRequest(2, CopyDir.TO_USER, 0x40, 3, b"abc"),
        PageFetch(5, 17, True),
        PageData(5, 17, bytes(4096)),
        PageInvalidate(5, [1, 2, 9]),
        PageUpdateBatch(5, [(0, bytes(4096)), (3, bytes(4096))]),
        OpenRequest(2, "sensor"),
        OpenAck(False, 0, 19),
    ):
        assert _decode(body.kind, encode_body(body)) == body


def test_update_batch_decoded_from_a_reused_buffer_owns_its_pages():
    pages = [(p, bytes([p]) * 4096) for p in (4, 5, 6)]
    body = PageUpdateBatch(2, pages)
    buf = bytearray(encode_frame(Message(1, 0, Channel.COHERENCE, body.kind, encode_body(body))))
    msg, used = decode_frame(buf)
    assert used == len(buf)
    buf[:] = bytes(len(buf))  # the framer reuses its buffer after a decode
    decoded = decode_body(msg)
    assert decoded == body
    assert [bytes(data) for _, data in decoded.entries] == [data for _, data in pages]


def _page_body_cuts(entry_starts: list[int], end: int) -> list[int]:
    """Lengths short of ``end``: every entry boundary, and cuts inside the
    header and inside each page."""
    cuts = set()
    for start in entry_starts:
        cuts.update({start, start + 1, start + 4, start + 100, start + 2048})
    cuts.update({0, 1, 9, end - 100, end - 1})
    return sorted(c for c in cuts if c < end)


def _decode(kind: Kind, payload: bytes):
    return decode_body(Message(1, 0, KIND_CHANNEL[kind], kind, payload))


def _assert_rejected(kind: Kind, payload: bytes) -> None:
    with pytest.raises(ProtocolError):
        _decode(kind, payload)


def test_truncated_or_padded_page_data_is_a_protocol_error():
    payload = encode_body(PageData(5, 17, bytes(range(256)) * 16))
    assert decode_body(Message(1, 0, Channel.COHERENCE, Kind.PAGE_DATA, payload)).page == 17
    for cut in _page_body_cuts([12], len(payload)):
        _assert_rejected(Kind.PAGE_DATA, payload[:cut])
    for extra in (b"\x00", bytes(4), bytes(4096)):
        _assert_rejected(Kind.PAGE_DATA, payload + extra)


def test_truncated_or_padded_update_batch_is_a_protocol_error():
    pages = [(p, bytes([p]) * 4096) for p in (3, 4, 9)]
    payload = encode_body(PageUpdateBatch(2, pages))
    starts = [10 + i * (4 + 4096) for i in range(len(pages))]
    assert len(payload) == 10 + 3 * 4100
    assert decode_body(Message(1, 0, Channel.COHERENCE, Kind.PAGE_UPDATE_BATCH,
                               payload)) == PageUpdateBatch(2, pages)
    for cut in _page_body_cuts(starts, len(payload)):
        _assert_rejected(Kind.PAGE_UPDATE_BATCH, payload[:cut])
    for extra in (b"\x00", bytes(4), bytes(4100)):
        _assert_rejected(Kind.PAGE_UPDATE_BATCH, payload + extra)


_EXAMPLE_BODIES = [
    FileOpRequest(7, 3, FileOp.IOCTL, addr=0x1000, cmd=0xC018_4501,
                  prefetch=[(0x1000, b"hdr"), (0x9000, bytes(9))]),
    FileOpResponse(9, -11, batch=[(4, b"zz"), (2, b"a")]),
    CopyRequest(1, CopyDir.FROM_USER, 0x20, 16),
    CopyRequest(2, CopyDir.TO_USER, 0x40, 3, b"abc"),
    CopyResponse(3, b"xyz"),
    PageFetch(5, 17, True),
    PageData(5, 17, bytes(range(256)) * 16),
    PageInvalidate(5, [1, 2, 9]),
    PageUpdateBatch(5, [(0, bytes(4096)), (3, b"\x01" * 4096)]),
    OpenRequest(2, "sensor"),
    OpenAck(True, 4, 0),
    HeartbeatAck(12),
    CleanupNotice(2),
    Heartbeat(),
]


@pytest.mark.parametrize("body", _EXAMPLE_BODIES, ids=lambda b: type(b).__name__)
def test_every_cut_or_padded_payload_decodes_exactly_or_is_a_protocol_error(body):
    payload = encode_body(body)
    for candidate in [payload[:cut] for cut in range(len(payload))] + [payload + b"\x00"]:
        msg = Message(1, 0, KIND_CHANNEL[body.kind], body.kind, candidate)
        try:
            got = decode_body(msg)
        except ProtocolError:
            continue
        assert encode_body(got) == candidate, (len(candidate), got)


# Each example's payload as the codec before the layout table packed it,
# one "KIND hex" line per example, in ``_EXAMPLE_BODIES`` order.
GOLDEN_BODIES = Path(__file__).parent / "golden" / "bodies.hex"


def test_every_example_packs_to_its_pinned_bytes():
    lines = GOLDEN_BODIES.read_text().splitlines()
    assert len(lines) == len(_EXAMPLE_BODIES)
    for body, line in zip(_EXAMPLE_BODIES, lines):
        kind, _, hexed = line.partition(" ")
        assert (body.kind.name, encode_body(body).hex()) == (kind, hexed)


@pytest.mark.parametrize("kind", [row[0] for row in _LAYOUTS], ids=lambda k: k.name)
def test_every_byte_substitution_decodes_exactly_or_is_a_protocol_error(kind):
    examples = [body for body in _EXAMPLE_BODIES if body.kind == kind]
    assert examples, f"no example body for {kind.name}"
    for body in examples:
        payload = encode_body(body)
        for pos in range(len(payload)):
            for value in (0x00, 0x01, 0x02, 0x7F, 0x80, 0xFF):
                candidate = payload[:pos] + bytes([value]) + payload[pos + 1 :]
                try:
                    got = _decode(kind, candidate)
                except ProtocolError:
                    continue
                assert encode_body(got) == candidate, (pos, value, got)


def test_copy_request_data_must_fit_its_direction_and_length():
    for body in (CopyRequest(1, CopyDir.TO_USER, 0x40, 3, b"ab"),
                 CopyRequest(2, CopyDir.TO_USER, 0x40, 3, b"abcd"),
                 CopyRequest(3, CopyDir.FROM_USER, 0x20, 16, b"x")):
        _assert_rejected(Kind.COPY_REQUEST, encode_body(body))


def test_flag_bytes_other_than_0_or_1_are_rejected():
    _assert_rejected(Kind.PAGE_FETCH, encode_body(PageFetch(5, 17, True))[:-1] + b"\x02")
    _assert_rejected(Kind.OPEN_ACK, b"\xff" + encode_body(OpenAck(True, 4, 0))[1:])


def test_truncated_update_batch_installs_nothing_and_drops_the_session():
    from rio.testbed import SimWorld

    world = SimWorld("loopback")
    session = world.session
    payload = encode_body(PageUpdateBatch(1, [(0, b"\xab" * 4096)]))[:-100]
    session.on_message(Message(1, 0, Channel.COHERENCE, Kind.PAGE_UPDATE_BATCH, payload))
    world.advance(1.0)  # let the cancelled heartbeat task finish
    assert not session.live
    assert session.dsm.stats["installs"] == 0


# ---------------------------------------------------------------------------
# Link configuration
# ---------------------------------------------------------------------------


def test_link_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(-1.0, None)
    with pytest.raises(ValueError):
        LinkConfig(0.0, 0.0)


def test_link_config_from_file(tmp_path):
    path = tmp_path / "link.conf"
    path.write_text(
        "latency_ms = 2.2\nthroughput_mbps = 14.3\n# comment\njitter_ms=0\n"
        "disconnect_at_ms = 9000\n")
    cfg = LinkConfig.from_file(str(path))
    assert cfg.one_way_latency_ms == 2.2
    assert cfg.throughput_bps == pytest.approx(14.3 * MEGABIT)
    assert cfg.disconnect_at_ms == 9000
    (tmp_path / "bad.conf").write_text("nonsense = 1\n")
    with pytest.raises(ValueError):
        LinkConfig.from_file(str(tmp_path / "bad.conf"))


# ---------------------------------------------------------------------------
# Simulated link timing
# ---------------------------------------------------------------------------


def _delivery_time(kernel, link, payload_len, channel=Channel.FILE_OP,
                   kind=Kind.FILE_OP_REQUEST):
    msg = Message(1, link.stats.frames_sent, channel, kind, bytes(payload_len))
    return link.a.send(msg)


def test_eight_megabyte_transfer_time():
    # Oracle: frame bits / link bits-per-second, plus latency.
    kernel = SimKernel()
    cfg = LinkConfig.mbps(0.0, 14.3)
    link = SimulatedLink(kernel, cfg)
    payload = 8 * 10**6
    expected_ms = (payload + HEADER_SIZE) * 8 * 1000.0 / (14.3 * MEGABIT)
    got = _delivery_time(kernel, link, payload)
    assert got == pytest.approx(expected_ms)
    # Within 10% of the nominal 4.5 s photo-buffer figure.
    assert 4050.0 <= got <= 4950.0


def test_latency_dominated_delivery():
    kernel = SimKernel()
    link = SimulatedLink(kernel, LinkConfig.mbps(2.2, None))
    assert _delivery_time(kernel, link, 0) == pytest.approx(2.2)


def test_vga_frame_cadence_at_73_7_mbps():
    kernel = SimKernel()
    link = SimulatedLink(kernel, LinkConfig.mbps(0.0, 73.7))
    frame_bytes = 640 * 480 * 2
    expected = (frame_bytes + HEADER_SIZE) * 8 * 1000.0 / (73.7 * MEGABIT)
    got = _delivery_time(kernel, link, frame_bytes)
    assert got == pytest.approx(expected)
    assert 14.0 <= 1000.0 / got <= 16.0  # sustainable frames per second


def test_fifo_per_direction_and_serialization():
    kernel = SimKernel()
    link = SimulatedLink(kernel, LinkConfig.mbps(1.0, 1.0))
    deliveries = []
    link.b.on_message = lambda m: deliveries.append((kernel.now(), m.seq))
    t1 = _delivery_time(kernel, link, 10_000)
    t2 = _delivery_time(kernel, link, 10)   # queued behind the big frame
    assert t2 > t1
    kernel.run_until_idle()
    assert [seq for _, seq in deliveries] == [0, 1]
    assert deliveries[0][0] <= deliveries[1][0]


def test_fifo_random_burst_property():
    rng = random.Random(3)
    kernel = SimKernel()
    link = SimulatedLink(kernel, LinkConfig.mbps(2.0, 5.0))
    arrivals = []
    link.b.on_message = lambda m: arrivals.append((kernel.now(), m.seq))

    async def sender():
        for i in range(50):
            msg = Message(1, i, Channel.COHERENCE, Kind.PAGE_INVALIDATE,
                          encode_body(PageInvalidate(1, [0])))
            link.a.send(msg)
            await kernel.sleep(rng.random() * 2)

    kernel.run(sender())
    kernel.run_until_idle()
    assert [seq for _, seq in arrivals] == list(range(50))
    assert all(a[0] <= b[0] for a, b in zip(arrivals, arrivals[1:]))


def test_round_trip_counter_counts_response_frames():
    kernel = SimKernel()
    link = SimulatedLink(kernel, LinkConfig.mbps(0.5, None))
    link.a.on_message = lambda m: None
    link.b.on_message = lambda m: None
    link.a.send(Message(1, 0, Channel.FILE_OP, Kind.FILE_OP_REQUEST, b""))
    link.b.send(Message(1, 0, Channel.FILE_OP, Kind.FILE_OP_RESPONSE,
                        encode_body(FileOpResponse(1, 0))))
    link.b.send(Message(1, 1, Channel.FILE_OP, Kind.COPY_REQUEST,
                        encode_body(CopyRequest(9, CopyDir.FROM_USER, 0, 4))))
    link.a.send(Message(1, 1, Channel.FILE_OP, Kind.COPY_RESPONSE,
                        b"\x00" * 8 + b"abcd"))
    kernel.run_until_idle()
    assert link.stats.round_trips == 2
    assert link.stats.frames_delivered == 4


def test_disconnect_drops_frames():
    kernel = SimKernel()
    link = SimulatedLink(kernel, LinkConfig.mbps(1.0, None))
    seen = []
    link.b.on_message = lambda m: seen.append(m.seq)
    link.a.send(heartbeat(seq=0))
    kernel.run_until(5)
    link.cut()
    link.a.send(heartbeat(seq=1))
    kernel.run_until_idle()
    assert seen == [0]
    assert link.stats.frames_dropped == 1


def test_jitter_is_seeded_and_deterministic():
    def arrivals(seed):
        kernel = SimKernel()
        link = SimulatedLink(kernel, LinkConfig(1.0, None, jitter_ms=3.0),
                             rng=random.Random(seed))
        out = []
        link.b.on_message = lambda m: out.append(kernel.now())
        for i in range(10):
            link.a.send(heartbeat(seq=i))
        kernel.run_until_idle()
        return out

    assert arrivals(7) == arrivals(7)
    assert arrivals(7) != arrivals(8)
    assert all(a <= b for a, b in zip(arrivals(7), arrivals(7)[1:]))


def test_oversize_payload_rejected_without_allocation():
    class FakeLen(bytes):
        def __len__(self):
            return 1 << 33

    msg = Message(1, 0, Channel.HEARTBEAT, Kind.HEARTBEAT, FakeLen())
    with pytest.raises(Exception) as info:
        encode_frame(msg)
    from rio.wire import EncodingError
    assert isinstance(info.value, EncodingError)
