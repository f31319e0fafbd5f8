"""One run of one workload in a fresh interpreter.

    python3 perf/worker.py probe|run WORKLOAD SEED SECONDS TRACE

``probe`` measures set-up only: from before ``import rio`` to the point
where the first timed op would start, then tears down.  ``run`` also runs
the timed loop; with TRACE=1 it runs three phases of SECONDS/3 each on
fresh worlds (untraced, span-traced, tracemalloc) and reports per-layer
metrics instead of end-to-end ones.  The last line of standard output is
one JSON object; ``perf/run.py`` reads it.
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    mode, workload, seed, seconds, trace = sys.argv[1:6]
    root = sys.argv[6]
    sys.path.insert(0, f"{root}/src")
    import rio  # noqa: F401  (timed: rio.import_ms)
    t_import = time.perf_counter()

    import measure
    from workloads import workload_class

    w = workload_class(workload)(int(seed), root)
    try:
        w.build()
        t_world = time.perf_counter()
        w.open()
        t_first = time.perf_counter()
        setup = {"setup_s": t_first - t0, "import_ms": (t_import - t0) * 1e3,
                 "world_setup_ms": (t_world - t_import) * 1e3}
        if mode == "probe":
            teardown = w.close()
            result = {"setup": setup, "teardown": teardown}
        elif trace == "1":
            result = measure.traced_run(w, float(seconds), root)
            result["setup"] = setup
        else:
            result = measure.untraced_run(w, float(seconds))
            result["setup"] = setup
    finally:
        measure.reap(w)
    import json
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
