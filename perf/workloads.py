"""The four closed-loop workloads and their correctness checks.

Each workload is one client with at most one connection.  A single caller
issues an op, waits for its reply, and only then issues the next, as a
process blocked in a device-file call does.  ``prepare`` makes the op's
input and ``check`` verifies its output against values the benchmark
computes itself; both run outside the timed sections.
"""

from __future__ import annotations

import random
import struct

from rio import Policy, SimWorld
from rio.devices import ECHO_XFORM, FRAME_DQ, FRAME_SETUP

# The "lan" preset as the paper gives it, restated here so the closed-form
# checks do not read the program's own link model.
LAN_RTT_MS = 4.4
LAN_BITS_PER_MS = 14.3 * 2**20 / 1000.0
SIM_TOLERANCE = 0.01  # relative; heartbeats share the line now and then

WIDTH, HEIGHT, BYTES_PER_PIXEL, BUFFERS = 640, 480, 2, 3
FRAME_BYTES = WIDTH * HEIGHT * BYTES_PER_PIXEL        # 614,400
PAGE = 4096
FRAME_PAGES = -(-FRAME_BYTES // PAGE)                 # 150
BUFFER_BYTES = FRAME_PAGES * PAGE


def expected_echo(inp: bytes) -> bytes:
    return bytes((~inp[i % 8]) & 0xFF for i in range(12))


def expected_frame(k: int) -> bytes:
    """Byte i of frame k is (k*131 + i*7 + 23) mod 256: a 256-byte period."""
    base = bytes((k * 131 + i * 7 + 23) % 256 for i in range(256))
    return base * (FRAME_BYTES // 256)


def closed_form_ms(exchanges: int, nbytes: int) -> float:
    """Sequential exchanges on the lan link: one RTT each, plus every byte
    serialized once at the link rate."""
    return exchanges * LAN_RTT_MS + nbytes * 8 / LAN_BITS_PER_MS


class Workload:
    name = ""
    # Runs attempt whole rounds of this many ops, and one latency sample is
    # the mean op time over a round.
    round_ops = 1

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self.root = root
        self.rng = random.Random(seed)
        self.k = 0  # ops issued on this world so far

    def build(self) -> None:
        raise NotImplementedError

    def open(self) -> None:
        raise NotImplementedError

    def prepare(self):
        raise NotImplementedError

    async def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def counters(self) -> dict:
        raise NotImplementedError

    def close(self) -> dict[str, bool]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Simulated workloads
# ---------------------------------------------------------------------------


class SimWorkload(Workload):
    dsm_policy = Policy.UPDATE_PUSH

    def build(self) -> None:
        self.world = SimWorld("lan", seed=self.seed, dsm_policy=self.dsm_policy)
        self.kernel = self.world.kernel
        self.client = self.world.client

    def _mark(self) -> None:
        self._t0 = self.kernel.now()
        self._b0 = self.world.stats.bytes_on_wire
        self._f0 = self._fetches()

    def _fetches(self) -> int:
        return self.world.session.dsm.stats["fetches"]

    def _sim_ok(self) -> bool:
        exchanges = 1 + self._fetches() - self._f0
        want = closed_form_ms(exchanges, self.world.stats.bytes_on_wire - self._b0)
        return abs(self.kernel.now() - self._t0 - want) <= SIM_TOLERANCE * want

    def counters(self) -> dict:
        stats = self.world.stats
        server_stats = self.world.server.stats
        dsm = dict(self.world.session.dsm.stats)
        for session in self.world.server.sessions.values():
            for key, val in session.dsm.stats.items():
                dsm[key] += val
        return {"bytes": stats.bytes_on_wire,
                "round_trips": stats.round_trips,
                "frames": stats.frames_sent, "frames_decoded": stats.frames_delivered,
                "installs": dsm["installs"], "fetches": dsm["fetches"],
                "pushes": dsm["pushes"], "cache_hits": server_stats.cache_hits,
                "cache_misses": server_stats.cache_misses,
                "batch_bytes": server_stats.batch_bytes,
                "coverage_misses": self.world.session.coverage_misses}

    def close(self) -> dict[str, bool]:
        async def teardown():
            await self.handle.close()
            await self.world.session.close()

        self.world.run(teardown())
        self.world.advance(100.0)  # deliver the cleanup notice and drain it
        return {"census_zero": not any(self.world.census().values())}


class EchoMixin:
    """``ECHO_XFORM`` with a seeded random 8-byte input per call."""

    round_ops = 8

    async def _open_echo(self, session, client) -> None:
        self.handle = await session.open("echodev")
        self.arg = client.alloc(24)

    def prepare(self):
        inp = self.rng.randbytes(8)
        self.client.arena.write(self.arg + 4, inp)
        self.k += 1
        return inp

    async def op(self, inp):
        return await self.handle.ioctl(ECHO_XFORM, self.arg)

    def check_echo(self, inp, result) -> list[str]:
        failed = []
        if result != 0:
            failed.append("echo_result")
        got = self.client.arena.read(self.arg, 24)
        if struct.unpack_from("<I", got, 0)[0] != self.k:
            failed.append("echo_count")
        if got[12:24] != expected_echo(inp):
            failed.append("echo_bytes")
        return failed


class EchoSim(EchoMixin, SimWorkload):
    name = "echo_sim"

    def open(self) -> None:
        self.world.run(self._open_echo(self.world.session, self.client))

    def prepare(self):
        inp = super().prepare()
        self._mark()
        return inp

    def check(self, inp, out) -> list[str]:
        failed = self.check_echo(inp, out)
        if not self._sim_ok():
            failed.append("sim_time")
        return failed


class CameraPush(SimWorkload):
    """One op is one ``FRAME_DQ`` plus a ``page_read`` of the whole frame."""

    name = "camera_push"
    dsm_policy = Policy.UPDATE_PUSH

    def open(self) -> None:
        async def setup():
            self.handle = await self.world.session.open("framesource")
            arg = self.client.alloc(12)
            self.client.arena.write(arg, struct.pack("<III", WIDTH, HEIGHT, BUFFERS))
            if await self.handle.ioctl(FRAME_SETUP, arg) != 0:
                raise RuntimeError("FRAME_SETUP refused")
            self.region = await self.handle.mmap(BUFFERS * BUFFER_BYTES)

        self.world.run(setup())

    def prepare(self):
        self._mark()
        k = self.k
        self.k += 1
        return k

    async def op(self, k):
        idx = await self.handle.ioctl(FRAME_DQ)
        if not 0 <= idx < BUFFERS:
            return idx, b""
        data = await self.region.page_read(self.region.base + idx * BUFFER_BYTES,
                                           FRAME_BYTES)
        return idx, data

    def check(self, k, out) -> list[str]:
        idx, data = out
        failed = []
        if idx != k % BUFFERS:
            failed.append("frame_index")
        if data != expected_frame(k):
            failed.append("frame_bytes")
        if not self._sim_ok():
            failed.append("sim_time")
        return failed


class CameraFetch(CameraPush):
    name = "camera_fetch"
    dsm_policy = Policy.INVALIDATE


SIM_WORKLOADS = {w.name: w for w in (EchoSim, CameraPush, CameraFetch)}


def workload_class(name: str) -> type:
    """The workload's class.  echo_tcp's lives in ``tcp.py``, whose socket and
    subprocess imports would otherwise count in the other workloads' set-up."""
    if name == "echo_tcp":
        from tcp import EchoTcp
        return EchoTcp
    return SIM_WORKLOADS[name]
