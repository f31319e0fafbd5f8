"""rio's benchmark: four closed-loop workloads, end to end or traced by layer.

    python3 perf/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  For each workload it measures set-up in
several fresh interpreters (the median is ``setup_s``), then runs the timed
loop in one more.  With ``--trace 0`` it prints every end-to-end metric;
with ``--trace 1`` every per-layer metric, from a separate traced run.  The
last line of standard output is one JSON object.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

WORKLOADS = ("echo_sim", "camera_push", "camera_fetch", "echo_tcp")
SETUP_SAMPLES = 5   # fresh interpreters per run; the timed run is one of them
WORKER_TIMEOUT_S = 150

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BenchError(Exception):
    pass


def worker(mode: str, workload: str, seed: int, seconds: float, trace: int,
           timeout_s: float) -> dict:
    """Run perf/worker.py in a fresh interpreter and return its JSON result."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload,
            str(seed), str(seconds), str(trace), ROOT]
    # A session of its own, so a timeout also ends the server it started.
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {mode} took over {timeout_s:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    # The first interpreter compiles rio's bytecode; it is not a sample.
    worker("probe", workload, seed, seconds, trace, 120)
    probes = [worker("probe", workload, seed, seconds, trace, 60)
              for _ in range(SETUP_SAMPLES - 1)]
    result = worker("run", workload, seed, seconds, trace, WORKER_TIMEOUT_S)
    setups = [p["setup"] for p in probes] + [result["setup"]]
    teardown = dict(result["teardown"])
    for p in probes:
        for name, ok in p["teardown"].items():
            teardown[name] = teardown.get(name, True) and ok
    metrics = result["metrics"]

    def median_of(key):
        return statistics.median(s[key] for s in setups)

    if trace:
        metrics["rio.import_ms"] = (median_of("import_ms"), "ms")
        metrics["testbed.world_setup_ms"] = (median_of("world_setup_ms"), "ms")
    else:
        metrics["setup_s"] = (median_of("setup_s"), "s")
    return {
        "correct": all(teardown.values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "checks": {"per_op_failures": result["check_failures"],
                   "teardown": teardown, "errors": result["errors"]},
        "ops_timed": result["ops_timed"],
        "ungated": result.get("ungated", {}),
        "spans": result.get("spans"),
    }


def report(workload: str, res: dict) -> None:
    print(f"== {workload}: attempted {res['attempted']}, failed {res['failed']}, "
          f"timed {res['ops_timed']}")
    for name, m in res["metrics"].items():
        print(f"   {name:32s} {m['value']:14.4f} {m['unit']}")
    for name, (value, unit) in res["ungated"].items():
        print(f"   {name:32s} {value:14.4f} {unit}  (printed only: too noisy here to gate)")
    checks = res["checks"]
    failures = checks["per_op_failures"]
    print("   per-op checks: " + (", ".join(f"{k} failed {v}" for k, v in failures.items())
                                   if failures else "all passed"))
    for name, ok in checks["teardown"].items():
        print(f"   teardown check {name}: {'pass' if ok else 'FAIL'}")
    for err in checks["errors"]:
        print(f"   error: {err}")
    if res.get("spans"):
        print(f"   spans: {res['spans']['recorded']} recorded, "
              f"{res['spans']['dropped']} beyond the in-memory cap (aggregated only)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rio", "__init__.py")):
        print(f"error: no rio sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        res = results[names[0]]
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "workloads": {n: r["metrics"] for n, r in results.items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
