"""Golden simulated numbers: the README bench suite and the page-fetch path.

The CSV under ``tests/golden/`` holds the ten README ``rio bench``
scenarios at reduced sizes.  A change that keeps the simulation's
behaviour must reproduce it byte for byte; a change that moves a
simulated number must regenerate it on purpose and say why:

    PYTHONPATH=src python tests/test_golden.py --write

No bench scenario fetches pages on demand, so the fetch path under
write-invalidate is pinned separately, twice: five VGA frames, each read
whole (one fetch pulls the frame's 150 pages as one run) or one page per
read (150 single-page fetches), must end at the exact recorded clock,
traffic and DSM counters.  The push path is pinned the same way: the five
frames read whole under update-push, each pushed as one 150-page batch.
Like the CSV, a pin is re-recorded only on purpose, by running the test
body, and the change that moves it says why.
"""

from __future__ import annotations

import struct
import sys
from pathlib import Path

from rio.bench import Scenario, rows_to_csv
from rio.devices import FRAME_DQ, FRAME_SETUP
from rio.dsm import Policy
from rio.testbed import SimWorld
from rio.wire import LinkConfig

GOLDEN_CSV = Path(__file__).parent / "golden" / "bench.csv"

# README order; sizes cut so the whole suite runs in a few seconds.
GOLDEN_SCENARIOS = (
    Scenario("copy", "lan", 0, {"mode": "optimized"}),
    Scenario("copy", "lan", 0, {"mode": "unoptimized"}),
    Scenario("sensor", "loopback", 0, {"n_samples": 100}),
    Scenario("audio", "lan", 0, {"buffer_ms": 7.0, "direction": "out", "n_segments": 40}),
    Scenario("audio", "wan", 0, {"buffer_ms": 85.0, "direction": "in", "n_segments": 20}),
    Scenario("camera", "lan", 0, {"mode": "stream", "resolution": "vga",
                                  "n_frames": 60, "warmup": 10}),
    Scenario("camera", "lan", 0, {"mode": "capture"}),
    Scenario("camera", LinkConfig.mbps(2.2, 73.7), 0, {"mode": "stream", "n_frames": 60,
                                                       "warmup": 10}),
    Scenario("modem", "lan", 0, {"kind": "call"}),
    Scenario("disconnect", "lan", 0, {"trials": 10}),
)


def golden_csv() -> str:
    return rows_to_csv([row for scenario in GOLDEN_SCENARIOS for row in scenario.run()])


def test_bench_suite_matches_golden_csv():
    assert golden_csv() == GOLDEN_CSV.read_text()


# -- the page-fetch path -------------------------------------------------------

WIDTH, HEIGHT, BUFFERS = 640, 480, 3
FRAME_BYTES = WIDTH * HEIGHT * 2
BUFFER_BYTES = -(-FRAME_BYTES // 4096) * 4096


def expected_frame(k: int) -> bytes:
    """Byte i of frame k is (k*131 + i*7 + 23) mod 256."""
    return bytes((k * 131 + i * 7 + 23) % 256 for i in range(256)) * (FRAME_BYTES // 256)


def _fetch_five_frames(read_bytes: int, policy: Policy = Policy.INVALIDATE):
    """Five VGA frames under ``policy``, each read ``read_bytes`` at a time;
    returns the world and the frames read."""
    world = SimWorld("lan", seed=0, dsm_policy=policy)

    async def drive():
        handle = await world.session.open("framesource")
        arg = world.client.alloc(12)
        world.client.arena.write(arg, struct.pack("<III", WIDTH, HEIGHT, BUFFERS))
        assert await handle.ioctl(FRAME_SETUP, arg) == 0
        region = await handle.mmap(BUFFERS * BUFFER_BYTES)
        frames = []
        for _ in range(5):
            idx = await handle.ioctl(FRAME_DQ)
            base = region.base + idx * BUFFER_BYTES
            frames.append(b"".join([
                await region.page_read(base + off, min(read_bytes, FRAME_BYTES - off))
                for off in range(0, FRAME_BYTES, read_bytes)]))
        return frames

    return world, world.run(drive())


def _assert_pinned(world, frames, now, bytes_on_wire, frames_sent, client_dsm,
                   server_dsm=None) -> None:
    assert frames == [expected_frame(k) for k in range(5)]
    (server_session,) = world.server.sessions.values()
    assert world.now() == now
    assert world.stats.bytes_on_wire == bytes_on_wire
    assert world.stats.frames_sent == frames_sent
    assert world.session.dsm.stats == client_dsm
    assert server_session.dsm.stats == (server_dsm or PINNED_SERVER_DSM)


def test_fetch_path_simulated_numbers_pinned():
    _assert_pinned(*_fetch_five_frames(FRAME_BYTES), PINNED_NOW, PINNED_BYTES_ON_WIRE,
                   PINNED_FRAMES_SENT, PINNED_CLIENT_DSM)


def test_per_page_fetch_path_simulated_numbers_pinned():
    _assert_pinned(*_fetch_five_frames(4096), PER_PAGE_NOW, PER_PAGE_BYTES_ON_WIRE,
                   PER_PAGE_FRAMES_SENT, PER_PAGE_CLIENT_DSM)


def test_push_path_simulated_numbers_pinned():
    _assert_pinned(*_fetch_five_frames(FRAME_BYTES, Policy.UPDATE_PUSH), PUSH_NOW,
                   PUSH_BYTES_ON_WIRE, PUSH_FRAMES_SENT, PUSH_CLIENT_DSM, PUSH_SERVER_DSM)


# Recorded by running the test bodies above; the clock is compared exactly.
# Whole-frame reads: one fetch and one reply per frame (a run of 150 pages).
PINNED_NOW = 1697.0145769025903
PINNED_BYTES_ON_WIRE = 3073761
PINNED_FRAMES_SENT = 39
PINNED_CLIENT_DSM = {"fetches": 5, "invalidates_sent": 0, "pushes": 0, "installs": 750}
# One page per read: 150 fetches and replies per frame.
PER_PAGE_NOW = 5004.030284705289
PER_PAGE_BYTES_ON_WIRE = 3128510
PER_PAGE_FRAMES_SENT = 1543
PER_PAGE_CLIENT_DSM = {"fetches": 750, "invalidates_sent": 0, "pushes": 0, "installs": 750}
PINNED_SERVER_DSM = {"fetches": 0, "invalidates_sent": 5, "pushes": 0, "installs": 0}
# Update-push, whole-frame reads: the server pushes each frame as one batch.
PUSH_NOW = 1674.8145053676797
PUSH_BYTES_ON_WIRE = 3073386
PUSH_FRAMES_SENT = 29
PUSH_CLIENT_DSM = {"fetches": 0, "invalidates_sent": 0, "pushes": 0, "installs": 750}
PUSH_SERVER_DSM = {"fetches": 0, "invalidates_sent": 0, "pushes": 5, "installs": 0}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN_CSV.parent.mkdir(exist_ok=True)
    GOLDEN_CSV.write_text(golden_csv())
