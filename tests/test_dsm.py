"""Coherence engine unit tests: access rules, DMA policies, page bounds."""

from collections import deque

import pytest

from rio import dsm as dsmmod
from rio.dsm import (
    DsmError,
    DsmNode,
    PageState,
    Policy,
    ProtocolFault,
    Region,
    ViewStore,
    pages_for,
)
from rio.memory import PAGE_SIZE
from rio.wire import encode_body

RW, RO, INV = PageState.READ_WRITE, PageState.READ_ONLY, PageState.INVALID


class Pair:
    """Two nodes joined by FIFO queues, pumped deterministically."""

    def __init__(self, npages=2, *, policy=Policy.INVALIDATE, naive=False,
                 client_init=INV, server_init=RW):
        self.to_server = deque()
        self.to_client = deque()
        self.client = DsmNode(DsmNode.CLIENT, self.to_server.append,
                              coalesce_fetch_own=not naive)
        self.server = DsmNode(DsmNode.SERVER, self.to_client.append,
                              coalesce_fetch_own=not naive)
        self.client_buf = bytearray(npages * PAGE_SIZE)
        self.server_buf = bytearray(npages * PAGE_SIZE)
        length = npages * PAGE_SIZE
        self.client.register_region(Region(
            1, length, ViewStore([self.client_buf]), policy, client_init))
        self.server.register_region(Region(
            1, length, ViewStore([self.server_buf]), policy, server_init))

    def node(self, side):
        return self.client if side == "client" else self.server

    def pump(self):
        while self.to_server or self.to_client:
            if self.to_server:
                self.server.handle(self.to_server.popleft())
            if self.to_client:
                self.client.handle(self.to_client.popleft())

    def access(self, side, page, write):
        """Drive one access to completion, pumping messages as needed."""
        node = self.node(side)
        done = []

        def attempt():
            if node.access(1, page, write, waiter=attempt):
                done.append(True)

        attempt()
        while not done:
            self.pump()
        return True

    def states(self, page):
        return (self.client.region(1).get(page),
                self.server.region(1).get(page))


# ---------------------------------------------------------------------------
# Access state machine, checked against the enumerated transition oracle
# ---------------------------------------------------------------------------

# (client state, server state, write?) -> (end client, end server,
#                                          client messages sent, server replies)
ACCESS_ORACLE = {
    (RW, INV, False): (RW, INV, 0, 0),
    (RW, INV, True): (RW, INV, 0, 0),
    (RO, RO, False): (RO, RO, 0, 0),
    (RO, RO, True): (RW, INV, 1, 0),
    (INV, RW, False): (RO, RO, 1, 1),
    (INV, RW, True): (RW, INV, 1, 1),  # fetch-and-own coalesced
}


@pytest.mark.parametrize("initial_write", sorted(ACCESS_ORACLE, key=repr))
def test_client_access_matches_oracle(initial_write):
    client_init, server_init, write = initial_write
    pair = Pair(client_init=client_init, server_init=server_init)
    pair.server_buf[0:4] = b"SRVD"
    pair.client_buf[0:4] = b"SRVD" if client_init != INV else b"\x00" * 4
    sent_before = len(pair.to_server)
    pair.access("client", 0, write)
    pair.pump()
    end_c, end_s, client_msgs, server_msgs = ACCESS_ORACLE[initial_write]
    assert pair.states(0) == (end_c, end_s)
    assert pair.client.stats["fetches"] + pair.client.stats["invalidates_sent"] == client_msgs
    if client_init == INV:
        assert pair.client_buf[0:4] == b"SRVD"  # fetched bytes installed


def test_invalid_write_naive_path_costs_two_exchanges():
    pair = Pair(naive=True)
    pair.server_buf[0:4] = b"data"
    pair.access("client", 0, True)
    pair.pump()
    assert pair.states(0) == (RW, INV)
    assert pair.client.stats["fetches"] == 1
    assert pair.client.stats["invalidates_sent"] == 1  # separate claim
    # Coalesced mode folds the claim into the fetch.
    fast = Pair(naive=False)
    fast.access("client", 0, True)
    fast.pump()
    assert fast.states(0) == (RW, INV)
    assert fast.client.stats["fetches"] == 1
    assert fast.client.stats["invalidates_sent"] == 0


def test_unmapped_page_access_faults():
    pair = Pair(npages=2)
    with pytest.raises(DsmError):
        pair.client.access(1, 99, False)
    with pytest.raises(DsmError):
        pair.client.access(42, 0, False)


# ---------------------------------------------------------------------------
# Incoming message handling
# ---------------------------------------------------------------------------


def test_invalidate_on_read_only_goes_invalid_without_reply():
    pair = Pair(client_init=RO, server_init=RO)
    pair.client.handle(dsmmod.PageInvalidate(1, 0))
    assert pair.states(0)[0] == INV
    assert not pair.to_server


def test_fetch_on_read_write_replies_and_demotes():
    pair = Pair()
    pair.server_buf[: PAGE_SIZE] = bytes([7]) * PAGE_SIZE
    pair.server.handle(dsmmod.PageFetch(1, 0, False))
    assert pair.server.region(1).get(0) == RO
    reply = pair.to_client.popleft()
    assert isinstance(reply, dsmmod.PageData)
    assert reply.data == [bytes([7]) * PAGE_SIZE]


def test_a_read_fetches_its_invalid_run_in_one_exchange():
    pair = Pair(npages=6)
    pair.server_buf[:] = bytes(range(6)) * PAGE_SIZE
    assert not pair.client.access(1, 3, True)  # a write's fetch already holds page 3
    assert not pair.client.access(1, 0, False, npages=5)  # the run stops there
    assert list(pair.to_server) == [dsmmod.PageFetch(1, 3, True),
                                    dsmmod.PageFetch(1, 0, False, 3)]
    pair.pump()
    assert [pair.states(page) for page in range(6)] == (
        [(RO, RO)] * 3 + [(RW, INV)] + [(INV, RW)] * 2)
    assert pair.client_buf[: 4 * PAGE_SIZE] == pair.server_buf[: 4 * PAGE_SIZE]
    assert pair.client.stats["fetches"] == 2
    assert pair.client.stats["installs"] == 4
    assert pair.client.quiescent()


def test_a_read_fetches_its_whole_run_in_one_exchange_and_a_run_past_the_region_is_a_fault():
    npages = pages_for(640 * 480 * 2)  # one VGA frame
    pair = Pair(npages=npages)
    pair.server_buf[:] = bytes(range(256)) * (npages * PAGE_SIZE // 256)
    assert not pair.client.access(1, 0, False, npages=npages + 5)  # the region bounds it
    assert list(pair.to_server) == [dsmmod.PageFetch(1, 0, False, npages)]
    pair.server.handle(pair.to_server.popleft())
    (reply,) = pair.to_client
    assert (reply.page, len(b"".join(reply.data))) == (0, npages * PAGE_SIZE)
    pair.pump()
    assert pair.client.access(1, 0, False, npages=npages) == npages
    assert pair.client_buf == pair.server_buf
    # A run that goes past the region's end changes nothing and sends nothing.
    before = list(pair.server.region(1).states)
    for first, count in [(0, npages + 1), (npages - 1, 2), (npages, 1)]:
        with pytest.raises(ProtocolFault):
            pair.server.handle(dsmmod.PageFetch(1, first, False, count))
    assert list(pair.server.region(1).states) == before
    assert not pair.to_client


@pytest.mark.parametrize("first, npages", [(0, 2), (0, 4), (1, 3)],
                         ids=["short", "long", "shifted"])
def test_data_that_is_not_the_run_in_flight_is_a_fault_that_installs_nothing(first, npages):
    pair = Pair(npages=5)
    assert not pair.client.access(1, 0, False, npages=3)
    before = (list(pair.client.region(1).states), bytes(pair.client_buf))
    body = dsmmod.PageData(1, first, [bytes([9]) * PAGE_SIZE] * npages)
    with pytest.raises(ProtocolFault):
        pair.client.handle(body)
    assert (list(pair.client.region(1).states), bytes(pair.client_buf)) == before
    assert pair.client.stats["installs"] == 0


@pytest.mark.parametrize("side,body", [
    ("server", dsmmod.PageUpdateBatch(1, 0, [b"X" * PAGE_SIZE])),
    ("server", dsmmod.PageInvalidate(1, 0, 2)),
    ("server", dsmmod.PageInvalidate(1, 0, 0)),
    ("client", dsmmod.PageInvalidate(1, 0, 0)),
], ids=["push-to-the-server", "two-page-claim", "claim-of-no-pages", "invalidate-of-no-pages"])
def test_a_run_no_peer_sends_this_side_is_a_fault_that_changes_nothing(side, body):
    # Only the server pushes, a client claims one page, and a run has pages.
    pair = Pair(client_init=RO, server_init=RO)
    node = pair.node(side)
    before = (list(node.region(1).states), bytes(pair.client_buf), bytes(pair.server_buf))
    with pytest.raises(ProtocolFault):
        node.handle(body)
    assert (list(node.region(1).states), bytes(pair.client_buf),
            bytes(pair.server_buf)) == before
    assert node.stats["installs"] == 0


@pytest.mark.parametrize("data", [[], [b""], [b"X" * 100], [b"X" * PAGE_SIZE, b"Y"],
                                  [b"X" * (PAGE_SIZE + 100)]],
                         ids=["no-buffers", "empty", "short", "a-byte-over", "one-long-buffer"])
@pytest.mark.parametrize("kind", [dsmmod.PageData, dsmmod.PageUpdateBatch])
def test_a_run_that_is_not_whole_pages_is_a_fault_that_writes_nothing(kind, data):
    # Bodies built without the decoder (models, tests) reach the node as they are.
    pair = Pair(npages=3)
    assert not pair.client.access(1, 0, False, npages=1)
    before = (list(pair.client.region(1).states), bytes(pair.client_buf))
    with pytest.raises(ProtocolFault):
        pair.client.handle(kind(1, 0, data))
    assert (list(pair.client.region(1).states), bytes(pair.client_buf)) == before
    assert pair.client.stats["installs"] == 0


def _pages(first, count):
    return b"".join(bytes([page]) * PAGE_SIZE for page in range(first, first + count))


@pytest.mark.parametrize("split", [(2, 2), (4,), (1, 1, 1, 1), (3, 1)],
                         ids=["as-served", "one-buffer", "per-page", "three-one"])
def test_a_run_across_store_pieces_is_served_and_installed_whole(split):
    # The server's pages 0-2 and 3-4 are two buffers, the client's 0-1 and 2-4.
    sent = []
    server = DsmNode(DsmNode.SERVER, sent.append)
    server_bufs = [bytearray(_pages(0, 3)), bytearray(_pages(3, 2))]
    server.register_region(Region(1, 5 * PAGE_SIZE, ViewStore(server_bufs),
                                  Policy.INVALIDATE, RW))
    server.handle(dsmmod.PageFetch(1, 1, False, 4))
    (reply,) = sent
    assert [len(view) for view in reply.data] == [2 * PAGE_SIZE, 2 * PAGE_SIZE]
    assert b"".join(reply.data) == _pages(1, 4)
    assert server.region(1).states == [RW] + [RO] * 4

    client = DsmNode(DsmNode.CLIENT, sent.append)
    client_bufs = [bytearray(2 * PAGE_SIZE), bytearray(3 * PAGE_SIZE)]
    client.register_region(Region(1, 5 * PAGE_SIZE, ViewStore(client_bufs),
                                  Policy.INVALIDATE, INV))
    assert not client.access(1, 1, False, npages=4)
    edges = [1, *(1 + sum(split[: i + 1]) for i in range(len(split)))]
    client.handle(dsmmod.PageData(1, 1, [_pages(a, b - a) for a, b in zip(edges, edges[1:])]))
    assert b"".join(client_bufs) == bytes(PAGE_SIZE) + _pages(1, 4)
    assert client.region(1).states == [INV] + [RO] * 4
    assert client.stats["installs"] == 4 and client.quiescent()


def test_fetch_of_invalid_page_is_protocol_fault():
    pair = Pair(client_init=INV, server_init=RW)
    with pytest.raises(ProtocolFault):
        pair.client.handle(dsmmod.PageFetch(1, 0, False))


def test_update_batch_installs_all_pages_read_only():
    npages = pages_for(640 * 480 * 2)
    assert npages == 150  # one VGA frame
    pair = Pair(npages=npages)
    pages = [bytes([i & 0xFF]) * PAGE_SIZE for i in range(npages)]
    pair.client.handle(dsmmod.PageUpdateBatch(1, 0, pages))
    assert pair.client.stats["installs"] == 150
    for i in range(npages):
        assert pair.client.region(1).get(i) == RO
    assert pair.client_buf[4096 * 3 : 4096 * 3 + 2] == bytes([3, 3])


# ---------------------------------------------------------------------------
# DMA completions
# ---------------------------------------------------------------------------


def test_dma_update_push_batches_whole_photo_buffer():
    size = 8 * 10**6
    npages = pages_for(size)
    assert npages == 1954  # ceil(8e6 / 4096), the arithmetic oracle
    pair = Pair(npages=npages, policy=Policy.UPDATE_PUSH)
    covered = pair.server.dma_complete(1, 0, size)
    assert covered == 1954
    (batch,) = list(pair.to_client)
    assert isinstance(batch, dsmmod.PageUpdateBatch)
    assert (batch.page, len(b"".join(batch.data))) == (0, 1954 * PAGE_SIZE)
    pair.pump()
    assert pair.states(0) == (RO, RO)
    assert pair.server.region(1).get(0) == RO


def test_dma_invalidate_coalesces_one_message():
    npages = pages_for(640 * 480 * 2)
    pair = Pair(npages=npages, policy=Policy.INVALIDATE)
    pair.server.dma_complete(1, 0, 640 * 480 * 2)
    assert len(pair.to_client) == 1
    (inv,) = list(pair.to_client)
    assert inv == dsmmod.PageInvalidate(1, 0, 150)
    pair.pump()
    assert pair.states(0) == (INV, RW)
    assert pair.server.region(1).get(0) == RW
    # A subsequent client read fetches the DMA bytes.
    pair.server_buf[0:2] = b"ZZ"
    pair.access("client", 0, False)
    pair.pump()
    assert pair.client_buf[0:2] == b"ZZ"


def test_dma_empty_region_sends_nothing():
    pair = Pair(policy=Policy.UPDATE_PUSH)
    assert pair.server.dma_complete(1, 0, 0) == 0
    assert not pair.to_client


# ---------------------------------------------------------------------------
# Page bounds
# ---------------------------------------------------------------------------


def _region(npages, state):
    return Region(1, npages * PAGE_SIZE, ViewStore([bytearray(npages * PAGE_SIZE)]),
                  Policy.INVALIDATE, state)


def test_tracker_rejects_pages_outside_the_region_at_either_end():
    npages = 512 + 3
    region = _region(npages, RW)
    for page in (-1, -npages, npages, npages + 512):
        for call in (lambda: region.get(page), lambda: region.set_range(page, 1, RO)):
            with pytest.raises(DsmError):
                call()
    with pytest.raises(DsmError):
        region.set_range(npages - 1, 2, RO)
    assert region.states == [RW] * npages


# (entry point, page, extra arguments): one page before the region and one
# past its end.
OUTSIDE_CALLS = [
    (entry, page, extra)
    for entry, extra in (("access", (False,)), ("access", (True,)))
    for page in (-1, 4)
]


@pytest.mark.parametrize("entry,page,extra", OUTSIDE_CALLS,
                         ids=[f"{e}-{p}-{x}" for e, p, x in OUTSIDE_CALLS])
def test_entry_points_reject_pages_outside_the_region(entry, page, extra):
    pair = Pair(npages=4)
    assert not pair.client.access(1, 1, False, npages=2)  # a run in flight
    (fetch,) = pair.to_server
    fetching = list(pair.client.region(1).fetching)
    states = list(pair.client.region(1).states)
    with pytest.raises(DsmError):
        getattr(pair.client, entry)(1, page, *extra)
    assert pair.client.region(1).states == states
    assert pair.client.region(1).fetching == fetching
    assert list(pair.to_server) == [fetch]


# ---------------------------------------------------------------------------
# Region registration
# ---------------------------------------------------------------------------


def test_duplicate_region_id_rejected():
    node = DsmNode(DsmNode.CLIENT, lambda m: None)
    region = Region(5, PAGE_SIZE, ViewStore([bytearray(PAGE_SIZE)]), Policy.INVALIDATE, INV)
    node.register_region(region)
    with pytest.raises(DsmError):
        node.register_region(region)


def test_drop_region_wakes_waiters():
    woken = []
    pair = Pair()
    assert not pair.client.access(1, 0, False, waiter=lambda: woken.append(1))
    pair.client.drop_region(1)
    assert woken == [1]
    assert pair.client.quiescent()


# ---------------------------------------------------------------------------
# Range transitions against the per-page reference
# ---------------------------------------------------------------------------

NPAGES_1080P = pages_for(1920 * 1080 * 2)


def per_page_dma_complete(node, region_id, offset, length):
    """DMA completion applied one page at a time (the reference algorithm);
    the message names the run of pages it covers."""
    region = node.region(region_id)
    if length <= 0:
        return 0
    pages = list(range(offset // PAGE_SIZE, (offset + length - 1) // PAGE_SIZE + 1))
    if region.policy == Policy.INVALIDATE:
        for page in pages:
            region.set_range(page, 1, RW)
        node.stats["invalidates_sent"] += 1
        node.send(dsmmod.PageInvalidate(region_id, pages[0], len(pages)))
    else:
        data = [region.store.run(page, 1)[0] for page in pages]
        for page in pages:
            region.set_range(page, 1, RO)
        node.stats["pushes"] += 1
        node.send(dsmmod.PageUpdateBatch(region_id, pages[0], data))
    return len(pages)


def per_page_on_batch(node, body):
    region = node.region(body.region)
    run = b"".join(body.data)
    for page, pos in enumerate(range(0, len(run), PAGE_SIZE), body.page):
        region.store.run(page, 1)[0][:] = run[pos : pos + PAGE_SIZE]
        region.set_range(page, 1, RO)
        node.stats["installs"] += 1


def _scattered_node(side, policy, npages, sent):
    """A node whose one region holds a mix of page states and page bytes."""
    node = DsmNode(side, sent.append)
    buf = bytearray(npages * PAGE_SIZE)
    if side == DsmNode.SERVER:
        for page in range(npages):
            buf[page * PAGE_SIZE : page * PAGE_SIZE + 4] = page.to_bytes(4, "little")
    region = Region(1, len(buf), ViewStore([buf]), policy, INV)
    for page in range(npages):
        region.set_range(page, 1, (RW, RO, INV)[page * 7 % 3])
    node.register_region(region)
    return node, buf


def _node_state(node):
    region = node.region(1)
    return (list(region.states), node.stats)


DMA_RANGES = [
    (0, 1920 * 1080 * 2),                                # the whole 1080p frame
    (300 * PAGE_SIZE + 100, 400 * PAGE_SIZE),            # mid-unit across the 2 MB boundary
    (512 * PAGE_SIZE - 1, 2),                            # one byte each side of it
    (900 * PAGE_SIZE + 5, 113 * PAGE_SIZE - 5 - 17),     # into the partial tail unit
    (7, 1),                                              # one byte
    (512 * PAGE_SIZE, 3 * PAGE_SIZE),                    # starts at a unit boundary
]


def _encoded(bodies):
    return [(type(body), encode_body(body)) for body in bodies]


@pytest.mark.parametrize("policy", [Policy.INVALIDATE, Policy.UPDATE_PUSH])
def test_dma_range_transitions_equal_per_page_path(policy):
    assert NPAGES_1080P == 1013  # spans a full 2 MB unit and a 501-page tail
    sent, ref_sent = [], []
    server, _ = _scattered_node(DsmNode.SERVER, policy, NPAGES_1080P, sent)
    ref_server, _ = _scattered_node(DsmNode.SERVER, policy, NPAGES_1080P, ref_sent)
    client, client_buf = _scattered_node(DsmNode.CLIENT, policy, NPAGES_1080P, [])
    ref_client, ref_client_buf = _scattered_node(DsmNode.CLIENT, policy, NPAGES_1080P, [])
    for offset, length in DMA_RANGES:
        assert (server.dma_complete(1, offset, length)
                == per_page_dma_complete(ref_server, 1, offset, length))
        assert len(sent) == 1 and _encoded(sent) == _encoded(ref_sent)
        assert _node_state(server) == _node_state(ref_server)
        body = sent.pop()
        ref_sent.clear()
        client.handle(body)
        if isinstance(body, dsmmod.PageUpdateBatch):
            per_page_on_batch(ref_client, body)
        else:
            ref_client.handle(body)
        assert _node_state(client) == _node_state(ref_client)
        assert client_buf == ref_client_buf


def test_set_range_rejects_pages_outside_region():
    region = _region(10, RW)
    with pytest.raises(DsmError):
        region.set_range(8, 3, RO)
    assert region.states == [RW] * 10


def test_pushed_batch_installs_pages_a_crossed_local_claim_took():
    pair = Pair(npages=4, policy=Policy.UPDATE_PUSH, client_init=RO, server_init=RO)
    assert pair.client.access(1, 1, True)  # local claim: RO -> RW, invalidate queued
    assert pair.states(1) == (RW, RO)
    pair.server_buf[PAGE_SIZE : 2 * PAGE_SIZE] = b"D" * PAGE_SIZE
    pair.server.dma_complete(1, 0, 3 * PAGE_SIZE)
    (batch,) = pair.to_client
    pair.client.handle(batch)  # the push crosses the claim on the wire
    region = pair.client.region(1)
    assert [region.get(p) for p in range(4)] == [RO, RO, RO, RO]
    assert pair.client_buf[PAGE_SIZE : 2 * PAGE_SIZE] == b"D" * PAGE_SIZE
    assert pair.client.stats["installs"] == 3
