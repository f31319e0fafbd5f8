"""Acceptance suite: one test per criterion, stated tolerances, PASS lines.

Run ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import random
import time

from rio.bench import (
    bench_audio,
    bench_camera,
    bench_copy,
    bench_disconnect,
    bench_modem,
    bench_sensor,
)
from rio.devices import AUDIO_HEADER, AUDIO_XFER_OUT
from rio.dsm import Policy
from rio.testbed import SimWorld
from rio.wire import LinkConfig

from model_utils import all_programs, explore, run_coordinated_trace


def report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_round_trip_collapse():
    start = time.perf_counter()
    optimized = bench_copy("optimized")
    unoptimized = bench_copy("unoptimized")
    elapsed = time.perf_counter() - start
    assert optimized.round_trips == 1, f"optimized trips {optimized.round_trips}"
    assert unoptimized.round_trips == 3, f"unoptimized trips {unoptimized.round_trips}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"echodev round trips optimized=1 unoptimized=3 ({elapsed:.2f}s)")


def test_criterion_02_stale_prefetch_consistency():
    rng = random.Random(202)
    world = SimWorld(link="lan")

    async def main():
        handle = await world.session.open("audio")
        hdr = world.client.alloc(16)
        data = world.client.alloc(2048)
        device = world.server.devices["audio"]
        session = next(iter(world.server.sessions.values()))
        desc = next(iter(session.descs.values())).desc
        for _ in range(1000):
            poison = rng.getrandbits(32) or 0xDEADBEEF
            frames = rng.randint(0, 512)
            world.client.arena.write(data, rng.randbytes(frames * 4))
            world.client.arena.write(hdr, AUDIO_HEADER.pack(poison, data, frames))
            got = await handle.ioctl(AUDIO_XFER_OUT, hdr)
            assert got == frames
            assert desc.last_header[0] == 0, (
                f"server observed stale result {desc.last_header[0]:#x}")

    world.run(main())
    report(2, "server-side header copy observed 0 in 1000 poisoned runs")


def test_criterion_03_audio_knee():
    for buffer_ms in (3.0, 7.0, 85.0):
        segments = max(60, min(1200, int(8000.0 / buffer_ms)))
        assert segments * buffer_ms + 500 < 10_000, "simulated budget exceeded"
    lan3 = bench_audio(3, "lan")
    lan7 = bench_audio(7, "lan")
    wan85 = bench_audio(85, "wan", direction="in")
    assert lan3.value < 48.0, f"3 ms buffer reached {lan3.value:.2f} kHz"
    assert lan7.value >= 47.9, f"7 ms buffer only {lan7.value:.2f} kHz"
    assert abs(lan7.value - 48.0) <= 0.5
    assert abs(wan85.value - 48.0) <= 0.5, f"wan capture {wan85.value:.2f} kHz"
    report(3, f"rates: lan/3ms={lan3.value:.1f} lan/7ms={lan7.value:.1f} "
              f"wan-mic/85ms={wan85.value:.1f} kHz")


def test_criterion_04_capture_time():
    row = bench_camera("capture", "vga", "lan")
    assert 4.5 * 0.9 <= row.value <= 4.5 * 1.1, f"capture took {row.value:.2f}s"
    report(4, f"8 MB capture over lan: {row.value:.2f} s")


def test_criterion_05_streaming_throughput_bound():
    fast = bench_camera("stream", "vga", LinkConfig.mbps(4.4 / 2, 73.7))
    slow = bench_camera("stream", "vga", "lan")
    assert abs(fast.value - 15.0) <= 1.0, f"73.7 Mbps gave {fast.value:.2f} fps"
    assert abs(slow.value - 3.5) <= 0.5, f"14.3 Mbps gave {slow.value:.2f} fps"
    report(5, f"VGA stream: {fast.value:.2f} fps @73.7 Mbps, "
              f"{slow.value:.2f} fps @14.3 Mbps")


def test_criterion_06_sensor_overhead():
    loop = bench_sensor("loopback", 150)
    lan = bench_sensor("lan", 150)
    assert abs(loop.value - 65.0) <= 1.0, f"loopback mean {loop.value:.2f} ms"
    assert abs(lan.value - 71.6) <= 1.5, f"lan mean {lan.value:.2f} ms"
    report(6, f"sensor mean read: loopback {loop.value:.2f} ms, lan {lan.value:.2f} ms")


def test_criterion_07_modem_parity():
    deltas = {}
    for kind in ("call", "sms"):
        local = bench_modem(kind, "loopback")
        remote = bench_modem(kind, "lan")
        deltas[kind] = abs(remote.value - local.value)
        assert deltas[kind] < 0.1, f"{kind} delta {deltas[kind]*1000:.1f} ms"
    report(7, f"remote-local deltas: call {deltas['call']*1000:.1f} ms, "
              f"sms {deltas['sms']*1000:.1f} ms")


def test_criterion_08_dsm_single_writer_and_serial_oracle():
    start = time.perf_counter()
    pairs = states = 0
    for policy in (Policy.INVALIDATE, Policy.UPDATE_PUSH):
        for client_prog in all_programs("client", 2):
            for server_prog in all_programs("server", 2):
                n, _ = explore(client_prog, server_prog, policy=policy)
                pairs += 1
                states += n
    # The two-step fetch-then-claim variant must uphold the same invariant.
    for client_prog in all_programs("client", 2):
        n, _ = explore(client_prog, (), naive=True)
        states += n
    trace_count = 10_000
    for seed in range(trace_count):
        run_coordinated_trace(seed)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(8, f"exhaustive: {pairs} program pairs / {states} states, "
              f"0 double-writers; {trace_count} coordinated traces matched "
              f"the serial oracle ({elapsed:.1f}s)")


def test_criterion_10_disconnect_hygiene():
    rows = bench_disconnect("lan", seed=1, trials=50)
    failures = {row.param: row.value for row in rows if row.metric == "cleanup_failures"}
    assert failures["scenario=sensor;trials=50"] == 0.0, rows
    assert failures["scenario=modem;trials=50"] == 0.0, rows
    report(10, "50 random cut points per scenario: zero leaks, fallback and "
               "errors within the heartbeat horizon, fresh opens served")
