"""Model-checking harnesses for the coherence engine.

Two tools:

* ``explore`` -- exhaustive interleaving exploration of a two-node,
  two-page model running the real ``DsmNode`` engine, checking the
  single-writer invariant in every reachable state and byte agreement in
  every quiescent one.
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
    Origin,
    PageState,
    PageStore,
    Policy,
    _Pending,
    make_client_region,
    make_server_region,
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


class TagStore(PageStore):
    """Pages hold tiny tag values instead of 4 KB payloads."""

    def __init__(self, npages: int) -> None:
        self.tags = [b"\x00"] * npages

    def read_page(self, index: int) -> bytes:
        return self.tags[index]

    def write_page(self, index: int, data: bytes) -> None:
        self.tags[index] = bytes(data)


@dataclass(frozen=True)
class Op:
    kind: str  # "read" | "write" | "dma"
    page: int
    tag: int = 0


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
        self.stores = {"client": TagStore(self.NPAGES), "server": TagStore(self.NPAGES)}
        self.nodes = {
            "client": DsmNode(DsmNode.CLIENT, self.q_cs.append,
                              coalesce_fetch_own=not naive),
            "server": DsmNode(DsmNode.SERVER, self.q_sc.append,
                              coalesce_fetch_own=not naive),
        }
        length = self.NPAGES * PAGE_SIZE
        self.nodes["client"].register_region(make_client_region(
            1, 0, length, self.stores["client"], Origin.GLOBAL_BUFFER, policy,
            initial=INV))
        self.nodes["server"].register_region(make_server_region(
            1, 0, length, self.stores["server"], Origin.GLOBAL_BUFFER, policy,
            initial=RW))

    # -- state key ---------------------------------------------------------

    @staticmethod
    def _key_body(body) -> tuple:
        if isinstance(body, PageFetch):
            return ("F", body.page, body.want_ownership)
        if isinstance(body, PageData):
            return ("D", body.page, body.data)
        if isinstance(body, PageInvalidate):
            return ("I", tuple(body.pages))
        if isinstance(body, PageUpdateBatch):
            return ("B", tuple((p, d) for p, d in body.entries))
        raise AssertionError(body)

    def key(self) -> tuple:
        parts = []
        for side in ("client", "server"):
            node = self.nodes[side]
            region = node.region(1)
            parts.append(tuple(region.tracker.get(p) for p in range(self.NPAGES)))
            parts.append(tuple(self.stores[side].tags))
            parts.append(tuple(sorted(
                (k[1], v.write, v.want_ownership) for k, v in node._pending.items())))
            parts.append((self.pc[side], self.busy[side], self.wake[side]))
        parts.append(tuple(self._key_body(b) for b in self.q_cs))
        parts.append(tuple(self._key_body(b) for b in self.q_sc))
        return tuple(parts)

    def copy(self) -> "ModelWorld":
        fresh = ModelWorld(self.programs["client"], self.programs["server"],
                           policy=self.policy, naive=self.naive)
        fresh.q_cs.extend(self.q_cs)
        fresh.q_sc.extend(self.q_sc)
        fresh.pc = dict(self.pc)
        fresh.busy = dict(self.busy)
        fresh.wake = dict(self.wake)
        for side in ("client", "server"):
            fresh.stores[side].tags = list(self.stores[side].tags)
            src = self.nodes[side].region(1)
            dst = fresh.nodes[side].region(1)
            dst.tracker.states[:] = src.tracker.states
            if src.dma_state is not None:
                dst.dma_state = list(src.dma_state)
            node = fresh.nodes[side]
            node._pending = {
                k: _Pending(write=v.write, want_ownership=v.want_ownership,
                            waiters=[fresh._waker(side)])
                for k, v in self.nodes[side]._pending.items()
            }
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
                self.nodes[side].handle(queue.pop(0))
            elif kind == "start":
                self.busy[side] = True
                self._attempt(side)
            elif kind == "retry":
                self.wake[side] = False
                self._attempt(side)
        except Exception as exc:  # any engine fault is a model failure
            self.fault = f"{type(exc).__name__}: {exc}"

    def _attempt(self, side: str) -> None:
        op = self.programs[side][self.pc[side]]
        node = self.nodes[side]
        if op.kind == "dma":
            assert side == "server"
            self.stores[side].write_page(op.page, bytes([op.tag]))
            node.dma_complete(1, op.page * PAGE_SIZE, PAGE_SIZE)
            self._finish(side)
            return
        ok = node.access(1, op.page, op.kind == "write", waiter=self._waker(side))
        if not ok:
            return
        if op.kind == "write":
            self.stores[side].write_page(op.page, bytes([op.tag]))
            node.local_write_done(1, op.page)
        self._finish(side)

    def _finish(self, side: str) -> None:
        self.pc[side] += 1
        self.busy[side] = False

    # -- invariants -----------------------------------------------------------

    def states(self, page: int) -> tuple:
        return (self.nodes["client"].region(1).tracker.get(page),
                self.nodes["server"].region(1).tracker.get(page))

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
        if world.quiescent():
            issue = world.check_quiescent()
            assert issue is None, f"{issue} (programs {client_prog}/{server_prog})"
            quiescent += 1
        for action in world.enabled_actions():
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
        self.store = TagPageStore(npages)
        length = npages * PAGE_SIZE
        make = make_client_region if side == "client" else make_server_region
        initial = INV if side == "client" else RW
        self.node.register_region(make(1, 0, length, self.store,
                                       Origin.GLOBAL_BUFFER, policy,
                                       initial=initial))
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
        return self.store.read_page(page)

    async def write(self, page: int, tag: int) -> None:
        await self.ensure(page, True)
        self.store.write_page(page, _tag_page(tag))
        self.node.local_write_done(1, page)

    def dma(self, page: int, tag: int) -> None:
        self.store.write_page(page, _tag_page(tag))
        self.node.dma_complete(1, page * PAGE_SIZE, PAGE_SIZE)


def _tag_page(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * PAGE_SIZE


class TagPageStore(PageStore):
    """Full 4096-byte pages (the wire codec requires real page payloads)."""

    def __init__(self, npages: int) -> None:
        self.pages = [bytes(PAGE_SIZE)] * npages

    def read_page(self, index: int) -> bytes:
        return self.pages[index]

    def write_page(self, index: int, data: bytes) -> None:
        self.pages[index] = bytes(data)


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
        c_state = sides["client"].node.region(1).tracker.get(page)
        s_state = sides["server"].node.region(1).tracker.get(page)
        assert not (c_state == RW and s_state == RW), f"two writers on {page} (seed {seed})"
        want = _tag_page(expected[page]) if page in expected else bytes(PAGE_SIZE)
        readable = []
        if c_state != INV:
            readable.append(sides["client"].store.read_page(page))
        if s_state != INV:
            readable.append(sides["server"].store.read_page(page))
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
        c_state = sides["client"].node.region(1).tracker.get(page)
        s_state = sides["server"].node.region(1).tracker.get(page)
        assert not (c_state == RW and s_state == RW), f"two writers (seed {seed})"
        if c_state == RO and s_state == RO:
            assert (sides["client"].store.read_page(page)
                    == sides["server"].store.read_page(page)), f"seed {seed}"
