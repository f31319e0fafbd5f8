"""CLI surface: flags, CSV output, exit codes."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from rio.cli import run_cli


def capture(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run_cli(argv)
    return rc, out.getvalue()


def test_bench_copy_optimized_row():
    rc, out = capture(["bench", "copy", "--mode", "optimized"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "scenario,param,metric,value,round_trips,bytes_on_wire"
    fields = lines[1].split(",")
    assert fields[:3] == ["lan", "mode=optimized", "op_round_trips"]
    assert fields[4] == "1"


def test_bench_copy_unoptimized_row():
    rc, out = capture(["bench", "copy", "--mode", "unoptimized"])
    assert rc == 0
    assert out.strip().splitlines()[1].split(",")[4] == "3"


def test_optimize_off_flag_forces_unoptimized():
    rc, out = capture(["bench", "copy", "--mode", "optimized", "--optimize", "off"])
    assert rc == 0
    assert out.strip().splitlines()[1].split(",")[4] == "3"


def test_bench_sensor_loopback():
    rc, out = capture(["bench", "sensor", "--link", "loopback", "--samples", "100"])
    assert rc == 0
    value = float(out.strip().splitlines()[1].split(",")[3])
    assert abs(value - 65.0) < 1.0


def test_bench_disconnect_reports_zero_failures():
    rc, out = capture(["bench", "disconnect", "--trials", "3", "--seed", "1"])
    assert rc == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2
    assert all(row.split(",")[3] == "0.0000" for row in rows)


def test_custom_link_flags():
    rc, out = capture(["bench", "sensor", "--link", "custom",
                       "--latency-ms", "0", "--throughput-mbps", "0",
                       "--samples", "100"])
    assert rc == 0
    value = float(out.strip().splitlines()[1].split(",")[3])
    assert abs(value - 65.0) < 1.0


def test_link_config_file(tmp_path):
    conf = tmp_path / "link.conf"
    conf.write_text("latency_ms = 0\n")
    rc, out = capture(["bench", "sensor", "--link-config", str(conf),
                       "--samples", "100"])
    assert rc == 0
    assert abs(float(out.strip().splitlines()[1].split(",")[3]) - 65.0) < 1.0


def test_bad_flags_nonzero_exit():
    rc, _ = capture(["bench", "audio", "--buffer-ms", "not-a-number"])
    assert rc != 0
    rc, _ = capture(["bench", "audio", "--buffer-ms", "1"])  # below minimum
    assert rc != 0
    rc, _ = capture(["frobnicate"])
    assert rc != 0


def test_deterministic_csv_across_invocations():
    args = ["bench", "copy", "--mode", "optimized", "--seed", "9"]
    assert capture(args) == capture(args)


def capture_both(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run_cli(argv)
    return rc, out.getvalue(), err.getvalue()


def test_camera_stream_on_instant_link_is_an_error_not_a_crash():
    # Loopback has no latency and no throughput limit: every frame lands at 0 ms.
    rc, out, err = capture_both(["bench", "camera", "--mode", "stream",
                                 "--resolution", "1080p", "--link", "loopback",
                                 "--frames", "60"])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "0 ms" in err


@pytest.mark.parametrize("frames", ["1", "50", "51"])
def test_camera_stream_frames_within_warmup_is_an_error(frames):
    rc, out, err = capture_both(["bench", "camera", "--mode", "stream",
                                 "--frames", frames])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "warmup" in err


def test_optimize_off_reaches_the_audio_bench():
    def row(*flags):
        rc, out = capture(["bench", "audio", "--buffer-ms", "7", *flags])
        assert rc == 0
        fields = out.strip().splitlines()[1].split(",")
        return float(fields[3]), int(fields[4])

    (rate_on, trips_on), (rate_off, trips_off) = row(), row("--optimize", "off")
    assert trips_off > trips_on
    assert rate_off < rate_on
