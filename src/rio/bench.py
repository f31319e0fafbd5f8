"""Benchmark scenarios over the simulated testbed.

Each bench drives real protocol traffic through a ``SimWorld`` and reports
machine-readable rows; identical (scenario, seed) pairs produce identical
CSV bytes.  Round-trip and byte counters come straight from the link, not
from re-derived arithmetic.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass, field
from typing import Optional

from .devices import (
    AUDIO_HEADER,
    AUDIO_XFER_IN,
    AUDIO_XFER_OUT,
    ECHO_XFORM,
    FRAME_CAPTURE,
    FRAME_DQ,
    FRAME_SETUP,
    MODEM_CALL,
    MODEM_SMS,
    POLLIN,
    AudioConfig,
    FrameFormat,
    SensorDevice,
)
from .errors import DisconnectedError
from .client import HandleState
from .dsm import Policy
from .testbed import SimWorld
from .wire import LinkConfig

CSV_COLUMNS = ("scenario", "param", "metric", "value", "round_trips", "bytes_on_wire")

RESOLUTIONS = {
    "vga": (640, 480),
    "720p": (1280, 720),
    "1080p": (1920, 1080),
}

CAPTURE_BUFFER_BYTES = 8_000_000  # fixed photo buffer, resolution-independent

DSM_POLICIES = {"push": Policy.UPDATE_PUSH, "invalidate": Policy.INVALIDATE}


@dataclass
class Row:
    scenario: str
    param: str
    metric: str
    value: float
    round_trips: int
    bytes_on_wire: int

    def as_record(self) -> tuple:
        if isinstance(self.value, float):
            value = f"{self.value:.4f}"
        else:
            value = str(self.value)
        return (self.scenario, self.param, self.metric, value,
                str(self.round_trips), str(self.bytes_on_wire))


def rows_to_csv(rows: list[Row]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_record())
    return out.getvalue()


def _link_name(link: str | LinkConfig) -> str:
    return link if isinstance(link, str) else "custom"


def _row(world: SimWorld, link: str | LinkConfig, param: str, metric: str,
         value: float) -> Row:
    """A row with the round trips and bytes the world's link counted."""
    return Row(_link_name(link), param, metric, value, world.stats.round_trips,
               world.stats.bytes_on_wire)


# ---------------------------------------------------------------------------
# Audio
# ---------------------------------------------------------------------------


def bench_audio(buffer_ms: float = 7.0, link: str | LinkConfig = "lan", *,
                direction: str = "out", seed: int = 0,
                n_segments: Optional[int] = None, warmup: int = 8,
                optimize: bool = True) -> Row:
    """Closed-loop segment transfers; reports the steady achieved rate in kHz.

    Playback ships 16-bit stereo (4 B/frame); capture ships 8-bit mono
    telephony-style samples (1 B/frame).  The first ``warmup`` segments
    prime the device rings and are excluded from the rate.
    """
    if buffer_ms < 3:
        raise ValueError("buffer must be at least 3 ms")
    if direction not in ("out", "in"):
        raise ValueError("direction must be 'out' or 'in'")
    audio = AudioConfig(in_frame_bytes=1)
    frame_bytes = audio.out_frame_bytes if direction == "out" else audio.in_frame_bytes
    frames_per_seg = round(buffer_ms * audio.rate_hz / 1000.0)
    if n_segments is None:
        n_segments = max(60, min(1200, int(8000.0 / buffer_ms)))
    world = SimWorld(link, seed=seed, optimize=optimize, audio=audio)
    cmd = AUDIO_XFER_OUT if direction == "out" else AUDIO_XFER_IN

    async def drive():
        handle = await world.session.open("audio")
        hdr = world.client.alloc(AUDIO_HEADER.size)
        data = world.client.alloc(frames_per_seg * frame_bytes)
        if direction == "out":
            world.client.arena.write(data, bytes(frames_per_seg * frame_bytes))
        total = 0
        steady_start = steady_frames = None
        for i in range(n_segments):
            world.client.arena.write(hdr, AUDIO_HEADER.pack(0, data, frames_per_seg))
            result = await handle.ioctl(cmd, hdr)
            assert result >= 0, f"transfer failed: {result}"
            total += result
            if i + 1 == warmup:
                steady_start, steady_frames = world.now(), total
        return (total - steady_frames) / (world.now() - steady_start)  # kHz

    rate_khz = world.run(drive())
    return _row(world, link, f"buffer_ms={buffer_ms:g};dir={direction}", "rate_khz", rate_khz)


# ---------------------------------------------------------------------------
# Camera
# ---------------------------------------------------------------------------


def bench_camera(mode: str = "stream", resolution: str = "vga",
                 link: str | LinkConfig = "lan", *, seed: int = 0, n_frames: int = 1000,
                 warmup: int = 50, buffers: int = 3, dsm: str = "push",
                 optimize: bool = True) -> Row:
    """Streaming fps (over ``n_frames`` dequeues, skipping ``warmup``) or
    photo-capture seconds for the fixed 8 MB buffer.  ``dsm`` is the mapped
    buffers' policy: "push" (update-push) or "invalidate"."""
    policy = DSM_POLICIES[dsm]
    if resolution in RESOLUTIONS:
        width, height = RESOLUTIONS[resolution]
    else:
        width, height = (int(v) for v in resolution.split("x", 1))
    if mode == "stream" and n_frames <= warmup + 1:
        raise ValueError(f"{n_frames} frames leave no interval to time after the "
                         f"{warmup}-frame warmup; need at least {warmup + 2}")
    fmt = FrameFormat(width, height)
    world = SimWorld(link, seed=seed, optimize=optimize, dsm_policy=policy)

    if mode == "stream":
        async def stream():
            handle = await world.session.open("framesource")
            arg = world.client.alloc(12)
            world.client.arena.write(arg, struct.pack("<III", width, height, buffers))
            assert await handle.ioctl(FRAME_SETUP, arg) == 0
            await handle.mmap(buffers * fmt.buffer_bytes)
            times = []
            while len(times) < n_frames:
                idx = await handle.ioctl(FRAME_DQ)
                assert idx >= 0, f"dequeue failed: {idx}"
                times.append(world.now())
            return times[-1] - times[warmup]

        span_ms = world.run(stream())
        if span_ms <= 0:
            raise ValueError("frames took 0 ms of simulated time after warmup, so fps "
                             "is unbounded; the link needs latency or finite throughput")
        fps = (n_frames - 1 - warmup) * 1000.0 / span_ms
        return _row(world, link, f"mode=stream;res={width}x{height}", "fps", fps)

    if mode == "capture":
        async def capture():
            handle = await world.session.open("framesource")
            gbuf = await handle.alloc_global_buffer(CAPTURE_BUFFER_BYTES, buffer_id=1)
            start = world.now()
            assert await handle.ioctl(FRAME_CAPTURE, 1) == 0
            elapsed = world.now() - start
            # The push batch precedes the response on the same direction,
            # so the photo is fully local by now; spot-check it.
            head = await gbuf.page_read(gbuf.base, 16)
            assert len(head) == 16
            return elapsed / 1000.0

        seconds = world.run(capture())
        return _row(world, link, f"mode=capture;res={width}x{height}", "capture_s", seconds)

    raise ValueError("mode must be 'stream' or 'capture'")


# ---------------------------------------------------------------------------
# Sensor
# ---------------------------------------------------------------------------


def bench_sensor(link: str | LinkConfig = "lan", n_samples: int = 200, *,
                 seed: int = 0, optimize: bool = True) -> Row:
    """Mean poll+read cycle time in ms."""
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    world = SimWorld(link, seed=seed, optimize=optimize)

    async def drive():
        handle = await world.session.open("sensor")
        buf = world.client.alloc(16)
        completions = []
        for _ in range(n_samples + 1):
            await handle.poll(POLLIN)
            got = await handle.read(buf, 12)
            assert got == 12, f"read returned {got}"
            completions.append(world.now())
        deltas = [b - a for a, b in zip(completions, completions[1:])]
        return sum(deltas) / len(deltas)

    mean_ms = world.run(drive())
    return _row(world, link, f"n={n_samples}", "mean_read_ms", mean_ms)


# ---------------------------------------------------------------------------
# Modem
# ---------------------------------------------------------------------------


def bench_modem(kind: str = "call", link: str | LinkConfig = "lan", *,
                seed: int = 0, carrier_delay_ms: Optional[float] = None,
                optimize: bool = True) -> Row:
    """Seconds from submission to completion for a CALL or SMS."""
    tag = {"call": MODEM_CALL, "sms": MODEM_SMS}[kind]
    kwargs = {}
    if carrier_delay_ms is not None:
        kwargs["call_delay_ms" if kind == "call" else "sms_delay_ms"] = carrier_delay_ms
    world = SimWorld(link, seed=seed, optimize=optimize, **kwargs)

    async def drive():
        handle = await world.session.open("modem")
        rec = world.client.alloc(16)
        world.client.arena.write(rec, struct.pack("<I", tag) + b"dest")
        start = world.now()
        assert await handle.write(rec, 8) == 8
        await handle.poll(POLLIN)
        out = world.client.alloc(8)
        assert await handle.read(out, 8) == 8
        return (world.now() - start) / 1000.0

    seconds = world.run(drive())
    return _row(world, link, f"kind={kind}", "completion_s", seconds)


# ---------------------------------------------------------------------------
# Copy round trips
# ---------------------------------------------------------------------------


def bench_copy(mode: str = "optimized", link: str | LinkConfig = "lan", *,
               seed: int = 0, optimize: bool = True) -> Row:
    """File-op channel round trips for one echodev ioctl; ``optimize`` off
    makes any mode unoptimized."""
    if mode not in ("optimized", "unoptimized"):
        raise ValueError("mode must be optimized|unoptimized")
    if not optimize:
        mode = "unoptimized"
    world = SimWorld(link, seed=seed, optimize=(mode == "optimized"))

    async def drive():
        handle = await world.session.open("echodev")
        arg = world.client.alloc(24)
        world.client.arena.write(arg + 4, bytes(range(8)))
        before = world.stats.round_trips
        assert await handle.ioctl(ECHO_XFORM, arg) == 0
        return world.stats.round_trips - before

    trips = world.run(drive())
    return Row(_link_name(link), f"mode={mode}", "op_round_trips", float(trips),
               trips, world.stats.bytes_on_wire)


# ---------------------------------------------------------------------------
# Disconnection drill
# ---------------------------------------------------------------------------


def bench_disconnect(link: str | LinkConfig = "lan", *, seed: int = 0,
                     trials: int = 50, optimize: bool = True) -> list[Row]:
    """Cut the link at random instants; audit cleanup and failover.

    For each trial: the server must end with zero residual bookkeeping and
    accept a fresh open, the sensor client must keep reading through its
    local fallback, and the modem client must see an error, all within the
    heartbeat horizon.
    """
    failures = {"sensor": 0, "modem": 0}
    details = []
    rows = []
    for scenario in ("sensor", "modem"):
        for trial in range(trials):
            trial_seed = seed * 10_000 + trial
            try:
                ok, note = _disconnect_trial(scenario, link, trial_seed, optimize)
            except Exception as exc:
                ok, note = False, f"{type(exc).__name__}: {exc}"
            if not ok:
                failures[scenario] += 1
                details.append(f"{scenario}#{trial}: {note}")
        rows.append(Row(_link_name(link), f"scenario={scenario};trials={trials}",
                        "cleanup_failures", float(failures[scenario]), 0, 0))
    if details:
        rows.append(Row(_link_name(link), "detail", ";".join(details[:3]), -1.0, 0, 0))
    return rows


def _disconnect_trial(scenario: str, link: str | LinkConfig, seed: int,
                      optimize: bool) -> tuple[bool, str]:
    world = SimWorld(link, seed=seed, optimize=optimize)
    cut_at = 30.0 + world.rng.random() * 1400.0
    client_timeout = world.client.config.timeout_ms
    server_timeout = world.server.config.timeout_ms

    if scenario == "sensor":
        world.client.register_local_fallback("sensor", SensorDevice(world.kernel, 65.0))

        async def drive():
            handle = await world.session.open("sensor")
            buf = world.client.alloc(16)
            world.cut_link(cut_at)
            reads = post_cut_reads = 0
            horizon = cut_at + client_timeout + 1500.0
            while world.now() < horizon or post_cut_reads < 3:
                await handle.poll(POLLIN)
                if await handle.read(buf, 12) == 12:
                    reads += 1
                    if world.now() > cut_at + client_timeout + 700.0:
                        post_cut_reads += 1
                if post_cut_reads >= 3 and world.now() >= horizon:
                    break
            return handle, reads, post_cut_reads

        handle, reads, post = world.run(drive())
        if handle.state is not HandleState.FALLING_BACK:
            return False, f"state {handle.state}"
        if post < 3:
            return False, "local fallback reads missing"
    else:
        async def drive():
            handle = await world.session.open("modem")
            rec = world.client.alloc(8)
            world.client.arena.write(rec, struct.pack("<I", MODEM_CALL) + b"x" * 4)
            await handle.write(rec, 8)
            world.cut_link(cut_at)
            try:
                await handle.poll(POLLIN)
                return handle, False, world.now()
            except DisconnectedError:
                return handle, True, world.now()

        handle, errored, when = world.run(drive())
        if not errored:
            return False, "in-flight call did not error"
        if handle.state is not HandleState.FAILED:
            return False, f"state {handle.state}"
        if when > cut_at + client_timeout + world.client.config.heartbeat_interval_ms + 100:
            return False, f"error too late ({when - cut_at:.0f} ms after cut)"

    # Let the server's watchdog fire and the cleanup task drain.
    world.kernel.run_until(cut_at + server_timeout
                           + world.server.config.heartbeat_interval_ms + 200.0)
    census = world.census()
    if any(census.values()):
        return False, f"census {census}"

    # The device must accept a fresh session afterwards.
    session = world.new_session()

    async def reopen():
        handle = await session.open(scenario)
        if scenario == "sensor":
            got = await handle.poll(POLLIN)
            return got & POLLIN
        return 1

    if not world.run(reopen()):
        return False, "fresh open not serviceable"
    return True, ""


# ---------------------------------------------------------------------------
# The bench table
# ---------------------------------------------------------------------------

# Each bench's function and its own CLI flags.  Every bench also takes
# ``link``, ``seed`` and ``optimize``.  A flag's dest is the name of the
# function's parameter, and the function's default is the flag's.
BENCHES = {
    "audio": (bench_audio, (
        ("--buffer-ms", {"type": float}),
        ("--direction", {"choices": ["out", "in"]}),
    )),
    "camera": (bench_camera, (
        ("--mode", {"choices": ["stream", "capture"]}),
        ("--resolution", {"help": "vga|720p|1080p or WIDTHxHEIGHT"}),
        ("--frames", {"dest": "n_frames", "type": int}),
        ("--dsm", {"choices": sorted(DSM_POLICIES)}),
        ("--buffers", {"type": int}),
    )),
    "sensor": (bench_sensor, (("--samples", {"dest": "n_samples", "type": int}),)),
    "modem": (bench_modem, (("--kind", {"choices": ["call", "sms"]}),)),
    "copy": (bench_copy, (("--mode", {"choices": ["optimized", "unoptimized"]}),)),
    "disconnect": (bench_disconnect, (("--trials", {"type": int}),)),
}


@dataclass
class Scenario:
    """A runnable evaluation configuration: a bench of ``BENCHES`` and
    keyword arguments for its function.

    Identical (scenario, seed) pairs produce bit-identical CSV in
    simulated mode.
    """

    bench: str
    link: str | LinkConfig = "lan"
    seed: int = 0
    params: dict = field(default_factory=dict)

    def run(self) -> list[Row]:
        if self.bench not in BENCHES:
            raise ValueError(f"unknown bench {self.bench!r}")
        rows = BENCHES[self.bench][0](link=self.link, seed=self.seed, **self.params)
        return rows if isinstance(rows, list) else [rows]
