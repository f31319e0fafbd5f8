"""Timed closed loops and the metrics derived from them.

The untraced run reports the end-to-end metrics.  The traced run measures
three phases of equal length, each on a fresh world: untraced (the
reference for tracing overhead, CPU and counts), span-traced (self time
per layer and call counts) and tracemalloc (bytes retained per op, by rio
source file).
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
import tracemalloc
from array import array
from time import perf_counter_ns

import tracer as tracing

RETAINED_FILES = ("client.py", "server.py", "devices.py")
WINDOW_NS = 1_000_000_000  # rates are medians over windows of this much op time


class Record:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.check_failures: dict[str, int] = {}
        self.errors: list[str] = []
        self.samples = array("q")  # mean op ns per timed round
        self.ops = 0                # timed ops
        self.spent_ns = 0
        # Per window: (ops, op ns, kernel-clock ms).
        self.windows: list[tuple[int, int, float]] = []
        self._window = None

    def merge(self, other: "Record") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for name, n in other.check_failures.items():
            self.check_failures[name] = self.check_failures.get(name, 0) + n
        self.errors += other.errors


async def closed_loop(w, rec: Record, budget_ns: float, timed: bool, tr=None) -> None:
    """Issue whole rounds of ops until the timed sections add up to the budget.

    Only the op itself is timed; making the input and checking the output
    happen between timed sections, with the tracer paused.  One latency
    sample is the mean op time over a round: single echo ops split into a
    fast mode and a long shoulder of host noise, and a per-op median jumps
    between them from run to run as the host's speed drifts.  Rates are
    taken per window of op time, so that the run reports their median: a
    burst of host stalls then moves a few windows, not the result.
    """
    while True:
        round_ns = 0
        if timed and rec._window is None:
            rec._window = (rec.ops, rec.spent_ns, w.kernel.now())
        for _ in range(w.round_ops):
            inp = w.prepare()
            rec.attempted += 1
            if tr is not None:
                tr.op_id = rec.attempted
                tr.on = True
            start = perf_counter_ns()
            try:
                out = await w.op(inp)
            except Exception as exc:  # the op failed; the session is unusable
                if tr is not None:
                    tr.on = False
                rec.failed += 1
                rec.errors.append(f"{type(exc).__name__}: {exc}")
                if rec._window is not None and rec.ops > rec._window[0]:
                    _close_window(w, rec)
                return
            round_ns += perf_counter_ns() - start
            if tr is not None:
                tr.on = False
            failed = w.check(inp, out)
            if failed:
                rec.failed += 1
                for name in failed:
                    rec.check_failures[name] = rec.check_failures.get(name, 0) + 1
        if timed:
            rec.samples.append(round_ns // w.round_ops)
            rec.ops += w.round_ops
            rec.spent_ns += round_ns
            if rec.spent_ns - rec._window[1] >= WINDOW_NS or rec.spent_ns >= budget_ns:
                _close_window(w, rec)
        if rec.spent_ns >= budget_ns:
            return


def _close_window(w, rec: Record) -> None:
    ops0, ns0, clock0 = rec._window
    rec.windows.append((rec.ops - ops0, rec.spent_ns - ns0, w.kernel.now() - clock0))
    rec._window = None


def ops_per_s(rec: Record) -> float:
    """Median over the run's windows of ops per second of op time."""
    return statistics.median(ops / (ns / 1e9) for ops, ns, _ in rec.windows)


def clock_ms_per_op(rec: Record) -> float:
    """Median over the run's windows of kernel-clock ms per op."""
    return statistics.median(ms / ops for ops, _, ms in rec.windows)


def percentile_us(samples: array, q: float) -> float:
    """Nearest-rank percentile of op time samples, in microseconds."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] / 1e3


def _phase(w, seconds: float, tr=None):
    """Warm up one round, then time ``seconds``.  Returns (record, before, after)."""
    rec = Record()
    w.kernel.run(closed_loop(w, rec, 0, False))
    before = w.counters()
    before["cpu_s"] = time.process_time()
    if tr is None:
        w.kernel.run(closed_loop(w, rec, seconds * 1e9, True))
    else:
        tr.on = True
        loop = closed_loop(w, rec, seconds * 1e9, True, tr)
        w.kernel.run(tracing.traced_coroutine(tr, loop, tracing.BENCH))
        tr.on = False
    after = w.counters()
    after["cpu_s"] = time.process_time()
    return rec, before, after


def _teardown(w, checks: dict) -> None:
    """Close the handle and session; the teardown checks judge the run."""
    for name, ok in w.close().items():
        checks[name] = checks.get(name, True) and ok


def _result(rec: Record, checks: dict, metrics: dict) -> dict:
    return {"attempted": rec.attempted, "failed": rec.failed,
            "check_failures": rec.check_failures, "errors": rec.errors[:3],
            "teardown": checks, "ops_timed": rec.ops, "metrics": metrics}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def untraced_run(w, seconds: float) -> dict:
    rec, c0, c1 = _phase(w, seconds)
    checks: dict[str, bool] = {}
    _teardown(w, checks)
    ops = rec.ops
    metrics = {
        "ops_per_s": (ops_per_s(rec), "ops/s"),
        "op_p50_us": (percentile_us(rec.samples, 50), "us"),
        "op_p90_us": (percentile_us(rec.samples, 90), "us"),
        "sim_ms_per_op": (clock_ms_per_op(rec), "ms"),
        "wire_bytes_per_op": ((c1["bytes"] - c0["bytes"]) / ops, "B"),
        "round_trips_per_op": ((c1["round_trips"] - c0["round_trips"]) / ops, "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    result = _result(rec, checks, metrics)
    result["ungated"] = {"op_p99_us": (percentile_us(rec.samples, 99), "us")}
    return result


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def retained_by_file(snapshot) -> dict[str, int]:
    """Bytes still allocated, per rio source file."""
    out: dict[str, int] = {}
    for stat in snapshot.statistics("filename"):
        path = stat.traceback[0].filename
        if os.sep + "rio" + os.sep in path:
            name = os.path.basename(path)
            out[name] = out.get(name, 0) + stat.size
    return out


def _server_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def traced_run(w, seconds: float, root: str) -> dict:
    """Per-layer metrics from three phases of ``seconds / 3`` each."""
    cls = type(w)
    part = seconds / 3
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tcp = hasattr(w, "proc")
    checks: dict[str, bool] = {}
    total = Record()

    # Phase U: untraced reference.
    rec_u, u0, u1 = _phase(w, part)
    _teardown(w, checks)
    total.merge(rec_u)
    ops_u = rec_u.ops
    untraced_ops_s = ops_per_s(rec_u)

    def delta(name):
        return (u1[name] - u0[name]) / ops_u

    # Phase S: spans.
    tr = tracing.Tracer()
    server_json = os.path.join(out_dir, f"{w.name}-server-trace.json")
    w_s = cls(w.seed, w.root)
    if tcp:
        w_s.server_argv = [os.path.join(root, "perf", "traced_server.py"), "spans",
                           server_json, "0", "serve", "--once"]
    tracing.install(tr)
    try:
        w_s.build()
        w_s.open()
        rec_s, s0, s1 = _phase(w_s, part, tr)
        _teardown(w_s, checks)
    finally:
        tr.uninstall()
        reap(w_s)
    total.merge(rec_s)
    tr.write_spans(os.path.join(out_dir, f"{w.name}-spans.csv"))
    ops_s = rec_s.ops
    traced_ops_s = ops_per_s(rec_s)
    summaries = [tr.summary()]
    server = {}
    if tcp:
        server = _server_report(server_json)
        summaries.append(server["trace"])

    # Phase M: bytes retained over the timed loop.
    mem_json = os.path.join(out_dir, f"{w.name}-server-memory.json")
    w_m = cls(w.seed, w.root)
    if tcp:
        w_m.server_argv = [os.path.join(root, "perf", "traced_server.py"), "memory",
                           mem_json, str(w.round_ops), "serve", "--once"]
    try:
        w_m.build()
        w_m.open()
        rec_m = Record()
        w_m.kernel.run(closed_loop(w_m, rec_m, 0, False))
        tracemalloc.start()
        w_m.kernel.run(closed_loop(w_m, rec_m, part * 1e9, True))
        retained = retained_by_file(tracemalloc.take_snapshot())
        tracemalloc.stop()
        _teardown(w_m, checks)
    finally:
        reap(w_m)
    total.merge(rec_m)
    ops_m = rec_m.ops
    per_op_m = {name: retained.get(name, 0) / ops_m for name in RETAINED_FILES}
    if tcp:
        mem = _server_report(mem_json)
        for name in ("server.py", "devices.py"):
            per_op_m[name] = mem["retained"].get(name, 0) / max(1, mem["ops"])

    def self_us(layer):
        return sum(s["self_ns"][layer] for s in summaries) / ops_s / 1e3

    def calls(name):
        return sum(s["calls"].get(name, 0) for s in summaries)

    def incl_ns(name):
        return sum(s["incl_ns"].get(name, 0) for s in summaries)

    def extra(key):
        return sum(s["extra"].get(key, 0) for s in summaries)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_op(x):
        return x / ops_s

    def mean_us(ns, n):
        return ratio(ns, n) / 1e3

    installs_s = s1["installs"] - s0["installs"]
    if tcp:
        st = server["stats"]
        hits, misses, batch = st["cache_hits"], st["cache_misses"], per_op(st["batch_bytes"])
        server_cpu_us = (delta("server_cpu_ticks") / os.sysconf("SC_CLK_TCK")) * 1e6
    else:
        hits = u1["cache_hits"] - u0["cache_hits"]
        misses = u1["cache_misses"] - u0["cache_misses"]
        batch = delta("batch_bytes")
        server_cpu_us = 0.0  # the server shares the benchmark's process
    metrics = {
        "kernel.events_per_op": (per_op(extra("events")), "count"),
        "kernel.tasks_per_op": (per_op(calls("kernel.Kernel.spawn")), "count"),
        "kernel.self_us_per_op": (self_us("kernel"), "us"),
        "kernel.select_wait_us_per_op": (per_op(tr.self_ns[tr.layer_index[tracing.IDLE]]) / 1e3,
                                         "us"),
        "wire.frames_per_op": (per_op(s1["frames"] - s0["frames"]), "count"),
        "wire.encode_us_per_frame": (mean_us(incl_ns("wire.encode_frame"),
                                             calls("wire.encode_frame")), "us"),
        "wire.decode_us_per_frame": (mean_us(incl_ns("wire.decode_frame") + incl_ns("wire.decode_body"),
                                             extra("frames_decoded")), "us"),
        "wire.self_us_per_op": (self_us("wire"), "us"),
        "wire.tcp_send_us_per_op": (per_op(incl_ns("wire.TcpEndpoint.send")) / 1e3, "us"),
        "memory.arena_calls_per_op": (per_op(calls("memory.ByteArena.read")
                                             + calls("memory.ByteArena.write")), "count"),
        "memory.arena_bytes_per_op": (per_op(extra("arena_bytes")), "B"),
        "memory.self_us_per_op": (self_us("memory"), "us"),
        "dsm.installs_per_op": (delta("installs"), "count"),
        "dsm.fetches_per_op": (delta("fetches"), "count"),
        "dsm.pushes_per_op": (delta("pushes"), "count"),
        "dsm.access_ready_ratio": (ratio(extra("dsm_access_ready"), extra("dsm_access")), "ratio"),
        "dsm.self_us_per_page": (mean_us(sum(s["self_ns"]["dsm"] for s in summaries), installs_s),
                                 "us"),
        "dsm.pages_installed_per_s": ((u1["installs"] - u0["installs"]) / (rec_u.spent_ns / 1e9),
                                      "1/s"),
        "devices.self_us_per_op": (self_us("devices"), "us"),
        "devices.fill_us_per_frame": (mean_us(incl_ns("devices.frame_pattern"),
                                              calls("devices.frame_pattern")), "us"),
        "devices.retained_bytes_per_op": (per_op_m["devices.py"], "B"),
        "server.self_us_per_op": (self_us("server"), "us"),
        "server.prefetch_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "server.copy_rounds_per_op": (per_op(calls("server.ServerSession.fetch_from_client")
                                             + calls("server.ServerSession.push_to_client")), "count"),
        "server.batch_bytes_per_op": (batch, "B"),
        "server.cpu_us_per_op": (server_cpu_us, "us"),
        "server.retained_bytes_per_op": (per_op_m["server.py"], "B"),
        "client.self_us_per_op": (self_us("client"), "us"),
        "client.prefetch_bytes_per_op": (per_op(extra("prefetch_bytes")), "B"),
        "client.coverage_misses_per_op": (delta("coverage_misses"), "count"),
        "client.cpu_us_per_op": (delta("cpu_s") * 1e6, "us"),
        "client.retained_bytes_per_op": (per_op_m["client.py"], "B"),
        "trace.untraced_ops_per_s": (untraced_ops_s, "ops/s"),
        "trace.traced_ops_per_s": (traced_ops_s, "ops/s"),
        "trace.overhead_pct": ((untraced_ops_s / traced_ops_s - 1) * 100, "%"),
    }
    result = _result(total, checks, metrics)
    result["ops_timed"] = ops_u + ops_s + ops_m
    result["spans"] = {"recorded": sum(s["spans"] for s in summaries),
                       "dropped": sum(s["spans_dropped"] for s in summaries)}
    return result


def reap(w) -> None:
    """Kill the workload's server process if it is still running."""
    proc = getattr(w, "proc", None)
    if proc is not None and proc.poll() is None:
        proc.kill()
        proc.wait()
