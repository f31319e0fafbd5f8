"""Benchmark harness: scenario math and deterministic output."""

import pytest

from rio.bench import (
    bench_audio,
    bench_camera,
    bench_copy,
    bench_disconnect,
    bench_modem,
    bench_sensor,
    rows_to_csv,
)
from rio.wire import LinkConfig


def test_copy_round_trip_modes():
    assert bench_copy("optimized").round_trips == 1
    assert bench_copy("unoptimized").round_trips == 3


def test_sensor_loopback_and_lan_means():
    loop = bench_sensor("loopback", 100)
    lan = bench_sensor("lan", 100)
    assert loop.value == pytest.approx(65.0, abs=1.0)
    assert lan.value == pytest.approx(65.0 + 1.5 * 4.4, abs=1.5)


def test_sensor_wan_follows_cadence_plus_one_and_a_half_rtt():
    wan = bench_sensor("wan", 100)
    assert wan.value == pytest.approx(65.0 + 1.5 * 55.2, rel=0.02)


def test_audio_rate_knee_on_lan():
    slow = bench_audio(3, "lan", n_segments=300)
    fast = bench_audio(7, "lan", n_segments=300)
    assert slow.value < 48.0
    assert fast.value == pytest.approx(48.0, abs=0.5)


def test_audio_capture_at_wan_85ms():
    row = bench_audio(85, "wan", direction="in", n_segments=60)
    assert row.value == pytest.approx(48.0, abs=0.5)


def test_audio_rejects_sub_minimum_buffer():
    with pytest.raises(ValueError):
        bench_audio(2, "lan")


def test_camera_capture_seconds_near_nominal():
    row = bench_camera("capture", "vga", "lan")
    assert 4.05 <= row.value <= 4.95


def test_camera_stream_smoke_at_high_throughput():
    row = bench_camera("stream", "vga", LinkConfig.mbps(2.2, 73.7),
                       n_frames=120, warmup=20)
    assert 14.0 <= row.value <= 16.0


def test_modem_remote_local_parity():
    local = bench_modem("call", "loopback")
    remote = bench_modem("call", "lan")
    assert abs(remote.value - local.value) < 0.1


def test_disconnect_drill_small():
    rows = bench_disconnect("lan", seed=3, trials=5)
    by_param = {row.param: row.value for row in rows}
    assert by_param["scenario=sensor;trials=5"] == 0.0
    assert by_param["scenario=modem;trials=5"] == 0.0


def test_csv_bytes_identical_for_same_seed():
    def run():
        rows = [bench_copy("optimized", seed=4), bench_sensor("lan", 100, seed=4)]
        return rows_to_csv(rows)

    first, second = run(), run()
    assert first == second
    header = first.splitlines()[0]
    assert header == "scenario,param,metric,value,round_trips,bytes_on_wire"


def test_link_presets_expose_median_and_average_latencies():
    from rio.testbed import LINK_PRESETS
    assert LINK_PRESETS["lan"].one_way_latency_ms == pytest.approx(2.2)
    assert LINK_PRESETS["lan_avg"].one_way_latency_ms == pytest.approx(6.9)
    assert LINK_PRESETS["wan"].one_way_latency_ms == pytest.approx(27.6)
    assert LINK_PRESETS["wan_avg"].one_way_latency_ms == pytest.approx(28.45)
    assert LINK_PRESETS["loopback"].throughput_bps is None


def test_scenario_bundles_are_deterministic():
    from rio.bench import Scenario
    scenario = Scenario("sensor", "lan", seed=5, params={"n_samples": 100})
    assert rows_to_csv(scenario.run()) == rows_to_csv(scenario.run())
    with pytest.raises(ValueError):
        Scenario("warp").run()


def test_camera_stream_csv_deterministic():
    def run():
        row = bench_camera("stream", "vga", "lan", n_frames=60, warmup=10, seed=2)
        return rows_to_csv([row])
    assert run() == run()


def test_streamed_frame_content_verifies_bit_exact():
    import struct
    from rio.devices import FRAME_DQ, FRAME_SETUP, frame_pattern
    from rio.testbed import SimWorld

    world = SimWorld(link="loopback")

    async def main():
        handle = await world.session.open("framesource")
        arg = world.client.alloc(12)
        world.client.arena.write(arg, struct.pack("<III", 320, 240, 3))
        assert await handle.ioctl(FRAME_SETUP, arg) == 0
        frame_bytes = 320 * 240 * 2
        buf_bytes = (frame_bytes + 4095) // 4096 * 4096
        region = await handle.mmap(3 * buf_bytes)
        for k in range(5):
            idx = await handle.ioctl(FRAME_DQ)
            assert idx == k % 3
            got = await region.page_read(region.base + idx * buf_bytes, frame_bytes)
            assert got == frame_pattern(k, frame_bytes), f"frame {k} corrupt"
        return True

    assert world.run(main())
