"""Command-line front end.

Subcommands:

* ``bench {audio,camera,sensor,modem,copy,disconnect}`` -- run a simulated
  scenario and print CSV rows (scenario, param, metric, value,
  round_trips, bytes_on_wire).
* ``serve`` -- host the reference devices on a TCP port.
* ``client`` -- connect to a server, exercise a device, print CSV.

Set ``RIO_LOG=debug|info|warning`` for protocol tracing.
"""

from __future__ import annotations

import argparse
import socket
import struct
import sys
from typing import Optional

from . import bench, configure_logging_from_env
from .client import Client, ClientConfig
from .devices import ECHO_XFORM, POLLIN, default_devices
from .errors import RioError
from .kernel import RealKernel
from .server import Server, ServerConfig
from .testbed import LINK_PRESETS, resolve_link
from .wire import TcpEndpoint


def _add_link_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--link", default="lan",
                        choices=sorted(LINK_PRESETS) + ["custom"],
                        help="link preset (or 'custom' with explicit flags)")
    parser.add_argument("--latency-ms", type=float, default=None,
                        help="custom one-way latency in ms")
    parser.add_argument("--throughput-mbps", type=float, default=None,
                        help="custom throughput in Mbps (0 = unlimited)")
    parser.add_argument("--link-config", default=None,
                        help="key=value link config file (overrides preset)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--optimize", choices=["on", "off"], default="on")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rio", description="Remote device sharing: benchmarks and TCP stubs")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run a simulated benchmark, emit CSV")
    bsub = b.add_subparsers(dest="bench", required=True)
    for name, (_, flags) in bench.BENCHES.items():
        # A bench flag left out is left out of the namespace: the bench
        # function's default applies.
        parser_b = bsub.add_parser(name, argument_default=argparse.SUPPRESS)
        _add_link_flags(parser_b)
        for flag, options in flags:
            parser_b.add_argument(flag, **options)

    serve = sub.add_parser("serve", help="host devices over TCP")
    serve.add_argument("--port", type=int, default=7710)
    serve.add_argument("--bind", default="127.0.0.1")
    serve.add_argument("--once", action="store_true",
                       help="exit after the first session closes")

    client = sub.add_parser("client", help="drive a remote device over TCP")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7710)
    client.add_argument("--device", default="sensor",
                        choices=["sensor", "echodev", "modem"])
    client.add_argument("--count", type=int, default=5)

    return parser


def _run_bench(args) -> list[bench.Row]:
    # What is left after the shared flags are the bench's own parameters.
    params = dict(vars(args))
    for shared in ("command", "bench", "link", "latency_ms", "throughput_mbps",
                   "link_config", "seed"):
        del params[shared]
    params["optimize"] = args.optimize == "on"
    link = resolve_link(args.link, args.latency_ms, args.throughput_mbps, args.link_config)
    return bench.Scenario(args.bench, link, args.seed, params).run()


def _cmd_serve(args) -> int:
    kernel = RealKernel()
    server = Server(kernel, default_devices(kernel), ServerConfig())
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((args.bind, args.port))
    listener.listen(8)
    print(f"serving on {args.bind}:{args.port}", flush=True)

    def accept() -> None:
        sock, peer = listener.accept()
        endpoint = TcpEndpoint(kernel, sock)
        if args.once:
            endpoint.on_close = kernel.stop
        server.attach(endpoint)

    kernel.add_reader(listener, accept)
    try:
        kernel.run()
    except KeyboardInterrupt:
        pass
    finally:
        listener.close()
    return 0


def _cmd_client(args) -> int:
    kernel = RealKernel()
    client = Client(kernel, ClientConfig())
    try:
        sock = socket.create_connection((args.host, args.port), timeout=5.0)
    except OSError as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    endpoint = TcpEndpoint(kernel, sock)
    session = client.connect(endpoint)
    rows: list[bench.Row] = []

    async def drive():
        handle = await session.open(args.device)
        if args.device == "sensor":
            buf = client.alloc(16)
            for i in range(args.count):
                start = kernel.now()
                await handle.poll(POLLIN)
                await handle.read(buf, 12)
                rows.append(bench.Row("tcp", f"sample={i}", "read_ms",
                                      kernel.now() - start,
                                      endpoint.stats.round_trips,
                                      endpoint.stats.bytes_on_wire))
        elif args.device == "echodev":
            arg = client.alloc(24)
            for i in range(args.count):
                client.arena.write(arg + 4, bytes((i + j) & 0xFF for j in range(8)))
                before = endpoint.stats.round_trips
                result = await handle.ioctl(ECHO_XFORM, arg)
                rows.append(bench.Row("tcp", f"call={i}", "op_round_trips",
                                      float(endpoint.stats.round_trips - before),
                                      endpoint.stats.round_trips,
                                      endpoint.stats.bytes_on_wire))
                assert result == 0
        else:
            rec = client.alloc(8)
            client.arena.write(rec, struct.pack("<I", 2) + b"dest")
            start = kernel.now()
            await handle.write(rec, 8)
            await handle.poll(POLLIN)
            rows.append(bench.Row("tcp", "kind=sms", "completion_ms",
                                  kernel.now() - start,
                                  endpoint.stats.round_trips,
                                  endpoint.stats.bytes_on_wire))
        await handle.close()
        await session.close()

    error = None
    try:
        kernel.run(drive())
    except RioError as exc:
        error = exc
    finally:
        endpoint.close()
    sys.stdout.write(bench.rows_to_csv(rows))  # what was measured, even before an error
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def run_cli(argv: Optional[list[str]] = None) -> int:
    configure_logging_from_env()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "bench":
        try:
            rows = _run_bench(args)
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except RioError as exc:  # the scenario failed, e.g. its link went down
            print(f"error: {exc}", file=sys.stderr)
            return 1
        sys.stdout.write(bench.rows_to_csv(rows))
        return 0
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)
    return 2


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
