"""``rio serve`` in a process the benchmark can look inside.

    python3 perf/traced_server.py spans|memory OUT.json START_AFTER serve --once ...

Runs the same ``rio.cli`` entry point as ``python -m rio.cli``, with either
the span tracer installed (``spans``) or tracemalloc started once the
server has run START_AFTER file ops (``memory``).  When the client's
cleanup notice arrives, before the session is torn down, it records the
server's counters and what it measured, and writes them to OUT.json on
exit.  echo_tcp's traced run uses it for the server side of its per-layer
metrics.
"""

import json
import os
import sys
import tracemalloc


def main() -> int:
    mode, out_path, start_after = sys.argv[1], sys.argv[2], int(sys.argv[3])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import rio.cli
    import rio.server

    import tracer as tracing
    from measure import retained_by_file

    session_cls = rio.server.ServerSession
    report: dict = {}
    ops = [0]
    tr = None
    if mode == "spans":
        tr = tracing.Tracer()
        tracing.install(tr, {**tracing.HOOKS, **tracing.SERVER_HOOKS})
        tr.on = True
    run_op = session_cls._run_op
    cleanup = session_cls.cleanup

    def counted_run_op(self, req):
        ops[0] += 1
        if mode == "memory" and ops[0] == start_after + 1:
            tracemalloc.start()
        return run_op(self, req)

    def reporting_cleanup(self, cause):
        if not report:
            stats = self.server.stats
            report["stats"] = {"cache_hits": stats.cache_hits,
                               "cache_misses": stats.cache_misses,
                               "batch_bytes": stats.batch_bytes, "ops": stats.ops}
            if tr is not None:
                tr.on = False
                report["trace"] = tr.summary()
                tr.write_spans(out_path.replace(".json", "-spans.csv"))
            elif tracemalloc.is_tracing():
                report["retained"] = retained_by_file(tracemalloc.take_snapshot())
                report["ops"] = ops[0] - start_after
                tracemalloc.stop()
        return cleanup(self, cause)

    session_cls._run_op = counted_run_op
    session_cls.cleanup = reporting_cleanup
    status = rio.cli.run_cli(sys.argv[4:])
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
