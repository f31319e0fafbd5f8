"""Framing, payload codecs, and the simulated link timing model."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rio.kernel import SimKernel
from rio.testbed import link_preset
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
    PIECE_BYTES,
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
        PageFetch(5, 17, False, 150),
        PageData(5, 17, [bytes(4096)]),
        PageData(5, 17, [bytes(4096), b"\x01" * 4096]),
        PageInvalidate(5, 1),
        PageInvalidate(5, 1, 9),
        PageUpdateBatch(5, 3, [bytes(4096)]),
        PageUpdateBatch(5, 3, [bytes(4096), b"\x01" * 4096]),
        OpenRequest(2, "sensor"),
        OpenAck(False, 0, 19),
    ):
        assert _decode(body.kind, encode_body(body)) == _joined(body)


def test_update_batch_decoded_from_a_reused_buffer_owns_its_pages():
    pages = [bytes([p]) * 4096 for p in (4, 5, 6)]
    body = PageUpdateBatch(2, 4, pages)
    buf = bytearray(encode_frame(Message(1, 0, Channel.COHERENCE, body.kind, encode_body(body))))
    msg, used = decode_frame(buf)
    assert used == len(buf)
    buf[:] = bytes(len(buf))  # the framer reuses its buffer after a decode
    decoded = decode_body(msg)
    assert decoded == _joined(body)
    assert b"".join(decoded.data) == b"".join(pages)


def _page_run_cuts(npages: int) -> list[int]:
    """Lengths of a run payload of ``npages`` pages that hold no whole run:
    inside the 12-byte head, the empty run, and cuts inside each page."""
    cuts = {0, 1, 9, 12}
    for start in range(12, 12 + npages * 4096, 4096):
        cuts.update({start + 1, start + 4, start + 100, start + 2048, start + 4095})
    return sorted(cuts)


def _decode(kind: Kind, payload: bytes):
    return decode_body(Message(1, 0, KIND_CHANNEL[kind], kind, payload))


def _joined(body):
    """``body`` with a run's buffers joined into one, as ``decode_body``
    gives a run back."""
    if isinstance(body, (PageData, PageUpdateBatch)):
        return type(body)(body.region, body.page, [b"".join(body.data)])
    return body


def _assert_rejected(kind: Kind, payload: bytes) -> None:
    with pytest.raises(ProtocolError):
        _decode(kind, payload)


def _assert_only_whole_page_runs_decode(body_type) -> None:
    """An empty, short, padded or trailing run of pages is rejected."""
    for npages in (1, 3):
        pages = [bytes([p]) * 2048 + bytes(range(256)) * 8 for p in range(npages)]
        body = body_type(5, 17, pages)
        payload = encode_body(body)
        assert len(payload) == 12 + npages * 4096
        assert _decode(body.kind, payload) == _joined(body)
        for cut in _page_run_cuts(npages):
            _assert_rejected(body.kind, payload[:cut])
        for extra in (b"\x00", bytes(4), bytes(4095), bytes(4097), bytes(8191)):
            _assert_rejected(body.kind, payload + extra)
        # A whole further page makes the run one page longer.
        assert _decode(body.kind, payload + bytes(4096)) == _joined(
            body_type(5, 17, pages + [bytes(4096)]))


def test_truncated_or_padded_page_data_is_a_protocol_error():
    _assert_only_whole_page_runs_decode(PageData)


def test_truncated_or_padded_update_batch_is_a_protocol_error():
    _assert_only_whole_page_runs_decode(PageUpdateBatch)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from([PageData, PageUpdateBatch]), st.integers(1, 8),
       st.lists(st.integers(1, 7), max_size=7))
def test_any_whole_page_split_of_a_run_encodes_alike_and_decodes_back(body_type, npages, cuts):
    run = b"".join(bytes([page]) * 2048 + bytes(range(256)) * 8
                   for page in range(npages))
    edges = [0, *sorted({cut for cut in cuts if cut < npages}), npages]
    split = [run[a * 4096 : b * 4096] for a, b in zip(edges, edges[1:])]
    payload = encode_body(body_type(5, 17, split))
    assert payload == encode_body(body_type(5, 17, [run]))
    decoded = _decode(body_type.kind, payload)
    assert (type(decoded), decoded.region, decoded.page) == (body_type, 5, 17)
    assert b"".join(decoded.data) == run
    assert encode_body(decoded) == payload


_EXAMPLE_BODIES = [
    FileOpRequest(7, 3, FileOp.IOCTL, addr=0x1000, cmd=0xC018_4501,
                  prefetch=[(0x1000, b"hdr"), (0x9000, bytes(9))]),
    FileOpResponse(9, -11, batch=[(4, b"zz"), (2, b"a")]),
    CopyRequest(1, CopyDir.FROM_USER, 0x20, 16),
    CopyRequest(2, CopyDir.TO_USER, 0x40, 3, b"abc"),
    CopyResponse(3, b"xyz"),
    PageFetch(5, 17, True),
    PageData(5, 17, [bytes(range(256)) * 16]),
    PageInvalidate(5, 1, 9),
    PageUpdateBatch(5, 3, [bytes(4096), b"\x01" * 4096]),
    OpenRequest(2, "sensor"),
    OpenAck(True, 4, 0),
    HeartbeatAck(12),
    CleanupNotice(2),
    Heartbeat(),
]


@pytest.mark.parametrize("body", _EXAMPLE_BODIES, ids=lambda b: type(b).__name__)
def test_every_cut_or_padded_payload_decodes_exactly_or_is_a_protocol_error(body):
    payload = encode_body(body)
    padded = [payload + pad for pad in (b"\x00", bytes(4095), bytes(4096))]
    for candidate in [payload[:cut] for cut in range(len(payload))] + padded:
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


def test_every_pinned_body_decodes_alike_from_a_frame_and_through_the_framer():
    # A bytes frame lends its payload as a view; the framer copies it out of
    # its reused buffer.  Either way the body is the same.
    lines = GOLDEN_BODIES.read_text().splitlines()
    frames = []
    for seq, line in enumerate(lines):
        name, _, hexed = line.partition(" ")
        kind = Kind[name]
        payload = bytes.fromhex(hexed)
        frames.append(encode_frame(Message(1, seq, KIND_CHANNEL[kind], kind, payload)))
    framer = Framer()
    fed = framer.feed(b"".join(frames))
    assert len(fed) == len(lines)
    for body, frame, copied in zip(_EXAMPLE_BODIES, frames, fed):
        viewed, used = decode_frame(frame)
        assert used == len(frame)
        assert type(viewed.payload) is memoryview and type(copied.payload) is bytes
        assert decode_body(viewed) == decode_body(copied) == _joined(body)


def test_a_message_from_the_framer_keeps_its_payload_across_later_feeds():
    payloads = [bytes([i]) * (100 + i) for i in range(1, 6)]
    stream = b"".join(encode_frame(Message(1, i, Channel.FILE_OP, Kind.COPY_RESPONSE, p))
                      for i, p in enumerate(payloads))
    framer = Framer()
    got = []
    for pos in range(0, len(stream), 37):  # frames split across feeds, buffer reused
        got.extend(framer.feed(stream[pos : pos + 37]))
    assert [bytes(msg.payload) for msg in got] == payloads


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
    fetch = encode_body(PageFetch(5, 17, True))
    _assert_rejected(Kind.PAGE_FETCH, fetch[:12] + b"\x02" + fetch[13:])  # the flag byte
    _assert_rejected(Kind.OPEN_ACK, b"\xff" + encode_body(OpenAck(True, 4, 0))[1:])


def test_truncated_update_batch_installs_nothing_and_drops_the_session():
    from rio.testbed import SimWorld

    world = SimWorld("loopback")
    session = world.session
    payload = encode_body(PageUpdateBatch(1, 0, [b"\xab" * 4096]))[:-100]
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


NAN = float("nan")
BAD_LINK_SETTINGS = {
    "negative-jitter": ((1.0, None, -5.0), "latency_ms = 1\njitter_ms = -5\n"),
    "nan-latency": ((NAN,), "latency_ms = nan\n"),
    "nan-throughput": ((0.0, NAN), "throughput_mbps = nan\n"),
    "nan-jitter": ((0.0, None, NAN), "jitter_ms = nan\n"),
    "nan-disconnect": ((0.0, None, 0.0, NAN), "disconnect_at_ms = nan\n"),
}


@pytest.mark.parametrize("args, text", BAD_LINK_SETTINGS.values(), ids=BAD_LINK_SETTINGS)
def test_a_negative_jitter_or_a_nan_setting_is_rejected(tmp_path, args, text):
    # A negative jitter would reorder frames and give negative delivery times.
    with pytest.raises(ValueError):
        LinkConfig(*args)
    path = tmp_path / "link.conf"
    path.write_text(text)
    with pytest.raises(ValueError):
        LinkConfig.from_file(str(path))


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
                          encode_body(PageInvalidate(1, 0)))
            link.a.send(msg)
            await kernel.sleep(rng.random() * 2)

    kernel.run(sender())
    kernel.run_until_idle()
    assert [seq for _, seq in arrivals] == list(range(50))
    assert all(a[0] <= b[0] for a, b in zip(arrivals, arrivals[1:]))


def _ack(seq):
    return Message(1, seq, Channel.HEARTBEAT, Kind.HEARTBEAT_ACK, encode_body(HeartbeatAck(seq)))


def _frame_behind_a_vga_reply(acks_at):
    """On wan, a 614,400-byte reply leaves at 0 ms and a file-op response
    is queued behind it at 100 ms; an ack is sent at each time in
    ``acks_at``.  Returns the times ``send`` gave the reply and the
    response, and each ack's send and delivery time."""
    kernel = SimKernel()
    link = SimulatedLink(kernel, link_preset("wan"))
    acks = []
    link.b.on_message = lambda m: m.kind == Kind.HEARTBEAT_ACK and acks.append(kernel.now())
    reply = _delivery_time(kernel, link, 640 * 480 * 2, Channel.COHERENCE, Kind.PAGE_DATA)
    response = None
    for seq, (when, what) in enumerate(sorted([(t, "ack") for t in acks_at] + [(100.0, "")])):
        kernel.run_until(when)
        if what:
            link.a.send(_ack(seq))
        else:
            response = _delivery_time(kernel, link, 80, Channel.FILE_OP, Kind.FILE_OP_RESPONSE)
    kernel.run_until_idle()
    return reply, response, list(zip(acks_at, acks))


def test_a_heartbeat_ack_passes_a_long_reply_after_one_piece_and_moves_no_other_frame():
    config = link_preset("wan")
    piece_ms = config.transfer_ms(PIECE_BYTES)
    assert piece_ms == pytest.approx(416.67, abs=0.01)
    ack_ms = config.transfer_ms(HEADER_SIZE + 8) + config.one_way_latency_ms
    reply, response, acks = _frame_behind_a_vga_reply([50.0, 1000.0, 3800.0, 4500.0])
    assert reply > 3900.0  # the reply alone holds the line for 3.9 s
    # Each ack leaves at the end of the piece then on the line, at the
    # latest when that frame ends, or at once once the line is idle.
    reply_ends = reply - config.one_way_latency_ms
    assert [got for _, got in acks] == pytest.approx(
        [piece_ms + ack_ms, 3 * piece_ms + ack_ms, reply_ends + ack_ms, 4500.0 + ack_ms])
    assert all(got - sent <= piece_ms + ack_ms for sent, got in acks)
    # The reply and the response queued behind it keep their FIFO times.
    assert (reply, response) == _frame_behind_a_vga_reply([])[:2]
    assert response == pytest.approx(reply + config.transfer_ms(HEADER_SIZE + 80))


def test_heartbeat_frames_on_one_direction_never_swap():
    kernel = SimKernel()
    link = SimulatedLink(kernel, LinkConfig.mbps(27.6, 1.2, jitter_ms=400.0),
                         rng=random.Random(5))
    seen = []
    link.b.on_message = lambda m: seen.append((m.channel, m.seq, kernel.now()))
    for _ in range(3):
        _delivery_time(kernel, link, 200_000, Channel.COHERENCE, Kind.PAGE_DATA)
    for seq in range(40):
        kernel.run_until(seq * 37.0)
        link.a.send(_ack(seq))
    kernel.run_until_idle()
    acks = [(seq, t) for channel, seq, t in seen if channel == Channel.HEARTBEAT]
    assert [seq for seq, _ in acks] == list(range(40))
    assert all(a[1] <= b[1] for a, b in zip(acks, acks[1:]))
    # They overtake the bulk frames, which stay in order among themselves.
    assert seen[0][0] == Channel.HEARTBEAT
    assert [seq for channel, seq, _ in seen if channel == Channel.COHERENCE] == [0, 1, 2]


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
