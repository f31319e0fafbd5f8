"""Model-checking harnesses for the coherence engine.

Two tools:

* ``explore`` -- exhaustive interleaving exploration of a two-node,
  two-page model running the real ``DsmNode`` engine, checking the
  single-writer invariant in every reachable state, byte agreement in
  every quiescent one, and that no state is stuck short of quiescence.
  A server program may also send stray page data, which the client must
  either install as the exact run of a fetch in flight or reject with
  ``ProtocolFault`` before it changes anything.
* ``run_coordinated_trace`` / ``run_uncoordinated_trace`` -- randomized
  traces over the real wire (simulated link), checked against a serial
  last-writer oracle for coordinated traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from rio.dsm import (
    DsmNode,
    PageState,
    Policy,
    ProtocolFault,
    Region,
    ViewStore,
    _Pending,
)
from rio.kernel import Future, SimKernel
from rio.memory import PAGE_SIZE
from rio.wire import (
    Channel,
    LinkConfig,
    Message,
    PageData,
    PageFetch,
    PageInvalidate,
    PageUpdateBatch,
    SimulatedLink,
    decode_body,
    encode_body,
)

RW, RO, INV = PageState.READ_WRITE, PageState.READ_ONLY, PageState.INVALID


class TagStore(ViewStore):
    """Each page is filled with one tag byte; ``tags`` reads them."""

    def __init__(self, npages: int) -> None:
        self.buf = bytearray(npages * PAGE_SIZE)
        super().__init__([self.buf])

    @property
    def tags(self) -> bytes:
        return bytes(self.buf[::PAGE_SIZE])

    def page(self, page: int) -> bytes:
        return bytes(self.buf[page * PAGE_SIZE : (page + 1) * PAGE_SIZE])

    def put(self, page: int, tag: int) -> None:
        self.buf[page * PAGE_SIZE : (page + 1) * PAGE_SIZE] = _tag_page(tag)


def _sent(queue: list):
    """A node's send callback: queue the body with its run copied now, as
    encoding a frame does, since the views it holds change with the store."""
    def send(body) -> None:
        if isinstance(body, (PageData, PageUpdateBatch)):
            body = type(body)(body.region, body.page, [b"".join(body.data)])
        queue.append(body)
    return send


@dataclass(frozen=True)
class Op:
    kind: str  # "read" | "write" | "dma" | "stray" (server: unasked-for page data)
    page: int
    tag: int = 0
    count: int = 1  # pages a read, a DMA or stray data covers from ``page`` on


class ModelWorld:
    """Two DsmNodes joined by explicit FIFO queues, single region."""

    NPAGES = 2

    def __init__(self, client_prog: tuple, server_prog: tuple, *,
                 policy: Policy, naive: bool) -> None:
        self.policy = policy
        self.naive = naive
        self.q_cs: list = []  # client -> server
        self.q_sc: list = []
        self.programs = {"client": client_prog, "server": server_prog}
        self.pc = {"client": 0, "server": 0}
        self.busy = {"client": False, "server": False}  # op started, blocked
        self.wake = {"client": False, "server": False}
        self.fault: Optional[str] = None
        # A program that sends stray data is a hostile peer: a ProtocolFault
        # that changes nothing tears the session down instead of failing.
        self.hostile = any(op.kind == "stray" for op in server_prog)
        self.torn_down = False
        self.stores = {"client": TagStore(self.NPAGES), "server": TagStore(self.NPAGES)}
        self.nodes = {
            "client": DsmNode(DsmNode.CLIENT, _sent(self.q_cs),
                              coalesce_fetch_own=not naive),
            "server": DsmNode(DsmNode.SERVER, _sent(self.q_sc),
                              coalesce_fetch_own=not naive),
        }
        length = self.NPAGES * PAGE_SIZE
        self.nodes["client"].register_region(Region(
            1, length, self.stores["client"], policy, INV))
        self.nodes["server"].register_region(Region(
            1, length, self.stores["server"], policy, RW))

    # -- state key ---------------------------------------------------------

    @staticmethod
    def _key_body(body) -> tuple:
        if isinstance(body, PageFetch):
            return ("F", body.page, body.want_ownership, body.count)
        if isinstance(body, PageData):
            return ("D", body.page, b"".join(body.data)[::PAGE_SIZE])
        if isinstance(body, PageInvalidate):
            return ("I", body.page, body.count)
        if isinstance(body, PageUpdateBatch):
            return ("B", body.page, b"".join(body.data)[::PAGE_SIZE])
        raise AssertionError(body)

    def _node_key(self, side: str) -> tuple:
        node = self.nodes[side]
        return (tuple(node.region(1).states), tuple(self.stores[side].tags),
                tuple(sorted((k[1], v.want_ownership, v.first, v.count)
                             for k, v in node._pending.items())))

    def key(self) -> tuple:
        parts = []
        for side in ("client", "server"):
            parts.append(self._node_key(side))
            parts.append((self.pc[side], self.busy[side], self.wake[side]))
        parts.append(tuple(self._key_body(b) for b in self.q_cs))
        parts.append(tuple(self._key_body(b) for b in self.q_sc))
        parts.append(self.torn_down)
        return tuple(parts)

    def copy(self) -> "ModelWorld":
        fresh = ModelWorld(self.programs["client"], self.programs["server"],
                           policy=self.policy, naive=self.naive)
        fresh.q_cs.extend(self.q_cs)
        fresh.q_sc.extend(self.q_sc)
        fresh.pc = dict(self.pc)
        fresh.busy = dict(self.busy)
        fresh.wake = dict(self.wake)
        fresh.torn_down = self.torn_down
        for side in ("client", "server"):
            fresh.stores[side].buf[:] = self.stores[side].buf
            src = self.nodes[side].region(1)
            dst = fresh.nodes[side].region(1)
            dst.states[:] = src.states
            runs: dict[int, _Pending] = {}  # one shared record per run, as in the node
            for k, v in self.nodes[side]._pending.items():
                if id(v) not in runs:
                    runs[id(v)] = _Pending(v.want_ownership, v.first, v.count,
                                           waiters=[fresh._waker(side)])
                fresh.nodes[side]._pending[k] = runs[id(v)]
        return fresh

    def _waker(self, side: str):
        def wake() -> None:
            self.wake[side] = True
        return wake

    # -- actions -------------------------------------------------------------

    def enabled_actions(self) -> list[tuple]:
        if self.fault:
            return []
        actions = []
        if self.q_cs:
            actions.append(("deliver", "server"))
        if self.q_sc:
            actions.append(("deliver", "client"))
        for side in ("client", "server"):
            if self.busy[side] and self.wake[side]:
                actions.append(("retry", side))
            elif not self.busy[side] and self.pc[side] < len(self.programs[side]):
                actions.append(("start", side))
        return actions

    def apply(self, action: tuple) -> None:
        kind, side = action
        try:
            if kind == "deliver":
                queue = self.q_cs if side == "server" else self.q_sc
                self._deliver(side, queue.pop(0))
            elif kind == "start":
                self.busy[side] = True
                self._attempt(side)
            elif kind == "retry":
                self.wake[side] = False
                self._attempt(side)
        except Exception as exc:  # any engine fault is a model failure
            self.fault = f"{type(exc).__name__}: {exc}"

    def _deliver(self, side: str, body) -> None:
        node = self.nodes[side]
        if not self.hostile:
            node.handle(body)
            return
        pending = node._pending.get((1, body.page)) if isinstance(body, PageData) else None
        exact_run = pending is not None and (pending.first, pending.count) == (
            body.page, len(b"".join(body.data)) // PAGE_SIZE)
        before = self._node_key(side)
        try:
            node.handle(body)
        except ProtocolFault:
            if self._node_key(side) != before:
                raise AssertionError("a rejected message changed the node") from None
            self.torn_down = True
            return
        if isinstance(body, PageData) and not exact_run:
            raise AssertionError(f"installed page data {self._key_body(body)} "
                                 f"that is not the run of a fetch in flight")

    def _attempt(self, side: str) -> None:
        op = self.programs[side][self.pc[side]]
        node = self.nodes[side]
        if op.kind == "dma":
            assert side == "server"
            for page in range(op.page, op.page + op.count):
                self.stores[side].put(page, op.tag)
            node.dma_complete(1, op.page * PAGE_SIZE, op.count * PAGE_SIZE)
            self._finish(side)
            return
        if op.kind == "stray":
            self.q_sc.append(PageData(1, op.page, [_tag_page(op.tag) * op.count]))
            self._finish(side)
            return
        if op.kind == "read":
            # Like ``page_read``: each page is checked, and a fetch takes the
            # invalid run the rest of the read starts.
            end = op.page + op.count
            for page in range(op.page, end):
                if not node.access(1, page, False, self._waker(side), end - page):
                    return
            self._finish(side)
            return
        ok = node.access(1, op.page, True, waiter=self._waker(side))
        if not ok:
            return
        self.stores[side].put(op.page, op.tag)
        self._finish(side)

    def _finish(self, side: str) -> None:
        self.pc[side] += 1
        self.busy[side] = False

    # -- invariants -----------------------------------------------------------

    def states(self, page: int) -> tuple:
        return (self.nodes["client"].region(1).get(page),
                self.nodes["server"].region(1).get(page))

    def check_always(self) -> Optional[str]:
        if self.fault:
            return self.fault
        return None

    def quiescent(self) -> bool:
        return (not self.q_cs and not self.q_sc
                and self.nodes["client"].quiescent()
                and self.nodes["server"].quiescent()
                and not self.busy["client"] and not self.busy["server"])

    def check_quiescent(self) -> Optional[str]:
        for page in range(self.NPAGES):
            c, s = self.states(page)
            writers = (c == RW) + (s == RW)
            if writers > 1:
                return f"page {page}: two writers"
            if c == RW and s != INV or s == RW and c != INV:
                return f"page {page}: writer without exclusive ownership ({c},{s})"
            if c == RO and s == RO:
                if self.stores["client"].tags[page] != self.stores["server"].tags[page]:
                    return f"page {page}: shared copies disagree"
        return None


def explore(client_prog, server_prog, *, policy=Policy.INVALIDATE,
            naive=False, max_states=200_000) -> tuple[int, int]:
    """BFS every interleaving; returns (#states, #quiescent states).

    Raises AssertionError with a repro key on any invariant violation.
    """
    root = ModelWorld(tuple(client_prog), tuple(server_prog),
                      policy=policy, naive=naive)
    seen = {root.key()}
    frontier = [root]
    quiescent = 0
    while frontier:
        world = frontier.pop()
        issue = world.check_always()
        assert issue is None, f"{issue} (programs {client_prog}/{server_prog})"
        if world.torn_down:
            continue  # a hostile peer's session ends here
        actions = world.enabled_actions()
        if world.quiescent():
            issue = world.check_quiescent()
            assert issue is None, f"{issue} (programs {client_prog}/{server_prog})"
            quiescent += 1
        elif not actions:
            raise AssertionError(f"stuck short of quiescence: {world.key()} "
                                 f"(programs {client_prog}/{server_prog})")
        for action in actions:
            child = world.copy()
            child.apply(action)
            key = child.key()
            if key not in seen:
                seen.add(key)
                frontier.append(child)
                assert len(seen) <= max_states, "state-space bound exceeded"
    return len(seen), quiescent


def program_alphabet(side: str) -> list[Op]:
    ops = []
    tag = 1 if side == "client" else 100
    for page in range(ModelWorld.NPAGES):
        ops.append(Op("read", page))
        ops.append(Op("write", page, tag + page))
        if side == "server":
            ops.append(Op("dma", page, tag + 10 + page))
    return ops


def all_programs(side: str, max_len: int) -> list[tuple]:
    alphabet = program_alphabet(side)
    programs: list[tuple] = [()]
    layer: list[tuple] = [()]
    for _ in range(max_len):
        layer = [prog + (op,) for prog in layer for op in alphabet]
        programs.extend(layer)
    # Distinct tags per position so byte comparisons identify writers.
    out = []
    for prog in programs:
        fixed = []
        for i, op in enumerate(prog):
            if op.kind in ("write", "dma"):
                fixed.append(Op(op.kind, op.page, op.tag + 10 * i))
            else:
                fixed.append(op)
        out.append(tuple(fixed))
    return out


# ---------------------------------------------------------------------------
# Randomized traces over the real wire, with a serial last-writer oracle
# ---------------------------------------------------------------------------


class _WireNode:
    def __init__(self, kernel, side: str, endpoint, npages: int, policy: Policy):
        self.kernel = kernel
        self.side = side
        self.endpoint = endpoint
        self.seq = 0
        self.node = DsmNode(side, self._send)
        self.store = TagStore(npages)
        length = npages * PAGE_SIZE
        initial = INV if side == "client" else RW
        self.node.register_region(Region(1, length, self.store, policy, initial))
        endpoint.on_message = self._recv

    def _send(self, body) -> None:
        msg = Message(1, self.seq, Channel.COHERENCE, body.kind, encode_body(body))
        self.seq += 1
        self.endpoint.send(msg)

    def _recv(self, msg: Message) -> None:
        self.node.handle(decode_body(msg))

    async def ensure(self, page: int, write: bool) -> None:
        while True:
            fut = Future()
            if self.node.access(1, page, write, waiter=fut.set_result):
                return
            await fut

    async def read(self, page: int) -> bytes:
        await self.ensure(page, False)
        return self.store.page(page)

    async def write(self, page: int, tag: int) -> None:
        await self.ensure(page, True)
        self.store.put(page, tag)

    def dma(self, page: int, tag: int) -> None:
        self.store.put(page, tag)
        self.node.dma_complete(1, page * PAGE_SIZE, PAGE_SIZE)


def _tag_page(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * PAGE_SIZE


def _make_trace(rng: random.Random):
    npages = rng.randint(1, 4)
    total_ops = rng.randint(2, 12)
    ops = []
    tag = 1
    for _ in range(total_ops):
        side = rng.choice(("client", "server"))
        kind = rng.choice(("read", "write", "write", "dma"))
        if kind == "dma" and side == "client":
            kind = "write"
        page = rng.randrange(npages)
        ops.append((side, kind, page, tag))
        tag += 1
    return npages, ops


def run_coordinated_trace(seed: int) -> None:
    """Random interleaved trace with conflicting writers coordinated.

    The coordination order is a random legal interleaving of the two
    programs; writers of one page hand off through completion events
    spaced by a delay that covers in-flight delivery (the analogue of
    coordinating through file operations on the same link).
    """
    rng = random.Random(seed)
    npages, ops = _make_trace(rng)
    kernel = SimKernel()
    latency = rng.choice([0.2, 1.0, 2.2])
    link = SimulatedLink(kernel, LinkConfig(latency, None))
    sides = {
        "client": _WireNode(kernel, "client", link.a, npages, Policy.INVALIDATE),
        "server": _WireNode(kernel, "server", link.b, npages, Policy.UPDATE_PUSH
                            if rng.random() < 0.5 else Policy.INVALIDATE),
    }
    sync_ms = latency + 0.5
    done_events: list[Future] = [Future() for _ in ops]
    last_writer_of: dict[int, int] = {}
    prereq: dict[int, int] = {}
    expected: dict[int, int] = {}
    for idx, (side, kind, page, tag) in enumerate(ops):
        if kind in ("write", "dma"):
            if page in last_writer_of:
                prereq[idx] = last_writer_of[page]
            last_writer_of[page] = idx
            expected[page] = tag

    async def run_side(side_name: str) -> None:
        node = sides[side_name]
        for idx, (side, kind, page, tag) in enumerate(ops):
            if side != side_name:
                continue
            pre = prereq.get(idx)
            if pre is not None and ops[pre][0] != side_name:
                await done_events[pre]
                await kernel.sleep(sync_ms)
            if kind == "read":
                await node.read(page)
            elif kind == "write":
                await node.write(page, tag)
            else:
                node.dma(page, tag)
            done_events[idx].set_result(None)

    async def main() -> None:
        a = kernel.spawn(run_side("client"))
        b = kernel.spawn(run_side("server"))
        await a
        await b
        await kernel.sleep(sync_ms * 4)

    kernel.run(main())
    kernel.run_until_idle()

    for page in range(npages):
        c_state = sides["client"].node.region(1).get(page)
        s_state = sides["server"].node.region(1).get(page)
        assert not (c_state == RW and s_state == RW), f"two writers on {page} (seed {seed})"
        want = _tag_page(expected[page]) if page in expected else bytes(PAGE_SIZE)
        readable = []
        if c_state != INV:
            readable.append(sides["client"].store.page(page))
        if s_state != INV:
            readable.append(sides["server"].store.page(page))
        assert readable, f"page {page} invalid everywhere (seed {seed})"
        for got in readable:
            assert got == want, (
                f"page {page}: bytes {got[:1].hex()} != serial-order oracle "
                f"{want[:1].hex()} (seed {seed})")


def run_uncoordinated_trace(seed: int) -> None:
    """No coordination: assert only single-writer and copy agreement."""
    rng = random.Random(seed)
    npages, ops = _make_trace(rng)
    kernel = SimKernel()
    link = SimulatedLink(kernel, LinkConfig(rng.choice([0.2, 1.5]), None))
    sides = {
        "client": _WireNode(kernel, "client", link.a, npages, Policy.INVALIDATE),
        "server": _WireNode(kernel, "server", link.b, npages, Policy.INVALIDATE),
    }

    async def run_side(side_name: str) -> None:
        node = sides[side_name]
        for side, kind, page, tag in ops:
            if side != side_name:
                continue
            if rng.random() < 0.5:
                await kernel.sleep(rng.random() * 2)
            if kind == "read":
                await node.read(page)
            elif kind == "write":
                await node.write(page, tag)
            else:
                node.dma(page, tag)

    async def main() -> None:
        a = kernel.spawn(run_side("client"))
        b = kernel.spawn(run_side("server"))
        await a
        await b
        await kernel.sleep(20)

    kernel.run(main())
    kernel.run_until_idle()
    for page in range(npages):
        c_state = sides["client"].node.region(1).get(page)
        s_state = sides["server"].node.region(1).get(page)
        assert not (c_state == RW and s_state == RW), f"two writers (seed {seed})"
        if c_state == RO and s_state == RO:
            assert (sides["client"].store.page(page)
                    == sides["server"].store.page(page)), f"seed {seed}"
