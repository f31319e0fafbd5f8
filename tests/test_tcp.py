"""Real-socket transport: stubs over localhost TCP."""

import io
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from rio.client import Client, ClientConfig
from rio.devices import ECHO_XFORM, FRAME_DQ, FRAME_SETUP, default_devices, frame_pattern
from rio.dsm import Policy, pages_for
from rio.kernel import RealKernel
from rio.memory import PAGE_SIZE
from rio.server import Server, ServerConfig
from rio.wire import (
    KIND_CHANNEL,
    Kind,
    Message,
    PageFetch,
    PageInvalidate,
    PageUpdateBatch,
    TcpEndpoint,
    encode_body,
    encode_frame,
)


def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_echodev_over_tcp_loopback():
    port = _free_port()
    ready = threading.Event()

    def serve():
        kernel = RealKernel()
        server = Server(kernel, default_devices(kernel), ServerConfig())
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", port))
        listener.listen(1)
        ready.set()

        def accept():
            sock, _ = listener.accept()
            endpoint = TcpEndpoint(kernel, sock)
            endpoint.on_close = kernel.stop
            server.attach(endpoint)

        kernel.add_reader(listener, accept)
        kernel.run()
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(5.0)
    time.sleep(0.05)

    kernel = RealKernel()
    client = Client(kernel, ClientConfig())
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    endpoint = TcpEndpoint(kernel, sock)
    session = client.connect(endpoint)

    async def drive():
        handle = await session.open("echodev")
        arg = client.alloc(24)
        client.arena.write(arg + 4, bytes(range(8)))
        result = await handle.ioctl(ECHO_XFORM, arg)
        blob = client.arena.read(arg, 24)
        await handle.close()
        await session.close()
        return result, blob

    result, blob = kernel.run(drive())
    endpoint.close()
    thread.join(timeout=5.0)
    assert result == 0
    assert struct.unpack_from("<I", blob, 0)[0] == 1
    assert blob[12:20] == bytes((~i) & 0xFF for i in range(8))
    assert not thread.is_alive()


def _serve_in_thread(port, connections, config=None, replies=None):
    """A server on ``port`` in a thread, with ``config`` (``ServerConfig()``
    by default); it stops when its ``connections``-th connection closes, and
    sets the returned event once it has stopped.  With ``replies`` set, each
    connection is closed by the server right after its ``replies``-th file-op
    response."""
    ready = threading.Event()
    stopped = threading.Event()

    def serve():
        kernel = RealKernel()
        server = Server(kernel, default_devices(kernel), config or ServerConfig())
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", port))
        listener.listen(connections)
        ready.set()
        accepted = []

        def accept():
            sock, _ = listener.accept()
            endpoint = TcpEndpoint(kernel, sock)
            if replies is not None:
                sent = []

                def send(msg, send=endpoint.send, endpoint=endpoint, sent=sent):
                    at = send(msg)
                    if msg.kind == Kind.FILE_OP_RESPONSE:
                        sent.append(msg)
                        if len(sent) == replies:
                            endpoint.close()
                    return at

                endpoint.send = send
            server.attach(endpoint)
            accepted.append(endpoint)
            if len(accepted) == connections:
                endpoint.on_close = kernel.stop

        kernel.add_reader(listener, accept)
        kernel.run()
        listener.close()
        stopped.set()

    threading.Thread(target=serve, daemon=True).start()
    assert ready.wait(5.0)
    time.sleep(0.05)
    return stopped


def _echo_over_tcp(port):
    """One echodev ioctl from a fresh client; returns the ioctl's result."""
    kernel = RealKernel()
    client = Client(kernel, ClientConfig())
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    endpoint = TcpEndpoint(kernel, sock)
    session = client.connect(endpoint)

    async def drive():
        handle = await session.open("echodev")
        arg = client.alloc(24)
        result = await handle.ioctl(ECHO_XFORM, arg)
        await session.close()
        return result

    try:
        return kernel.run(drive())
    finally:
        endpoint.close()


def test_garbage_bytes_drop_the_connection_not_the_server():
    port = _free_port()
    stopped = _serve_in_thread(port, connections=2)

    # First connection sends garbage; the server must survive it.
    vandal = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    vandal.sendall(b"\xff" * 64)
    time.sleep(0.2)
    vandal.close()

    # Second connection does real work, then closes to stop the server.
    assert _echo_over_tcp(port) == 0
    assert stopped.wait(5.0)


def test_coherence_frames_naming_an_unknown_region_drop_only_their_connection():
    port = _free_port()
    bodies = [(Kind.PAGE_FETCH, PageFetch(77, 0)),
              (Kind.PAGE_INVALIDATE, PageInvalidate(77, 0)),
              (Kind.PAGE_UPDATE_BATCH, PageUpdateBatch(77, 0, [bytes(PAGE_SIZE)]))]
    stopped = _serve_in_thread(port, connections=len(bodies) + 1)

    # Each vandal's first frame is well formed and names region 77.
    for kind, body in bodies:
        vandal = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        vandal.sendall(encode_frame(Message(1, 0, KIND_CHANNEL[kind], kind,
                                            encode_body(body))))
        time.sleep(0.1)
        vandal.close()

    assert _echo_over_tcp(port) == 0
    assert stopped.wait(5.0)


def test_cli_client_reports_unreachable_server():
    from rio.cli import run_cli
    rc = run_cli(["client", "--host", "127.0.0.1", "--port", str(_free_port()),
                  "--device", "sensor", "--count", "1"])
    assert rc == 1


def test_cli_client_reports_a_closed_connection_without_a_traceback():
    from rio.cli import run_cli
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def accept_and_close():
        sock, _ = listener.accept()
        sock.close()

    threading.Thread(target=accept_and_close, daemon=True).start()
    err = io.StringIO()
    start = time.monotonic()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        rc = run_cli(["client", "--port", str(listener.getsockname()[1]),
                      "--device", "echodev"])
    elapsed = time.monotonic() - start
    listener.close()
    assert rc == 1
    assert "error:" in err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert elapsed < 1.0  # the closed socket, not the 1.5 s heartbeat horizon


def test_a_vga_frame_read_whole_over_tcp_takes_one_page_fetch_per_run():
    width, height, buffers = 640, 480, 3
    frame_bytes = width * height * 2
    buffer_bytes = pages_for(frame_bytes) * PAGE_SIZE
    port = _free_port()
    stopped = _serve_in_thread(port, connections=1,
                               config=ServerConfig(dma_policy=Policy.INVALIDATE))
    kernel = RealKernel()
    client = Client(kernel, ClientConfig())
    endpoint = TcpEndpoint(kernel, socket.create_connection(("127.0.0.1", port), timeout=5.0))
    session = client.connect(endpoint)

    async def drive():
        handle = await session.open("framesource")
        arg = client.alloc(12)
        client.arena.write(arg, struct.pack("<III", width, height, buffers))
        assert await handle.ioctl(FRAME_SETUP, arg) == 0
        region = await handle.mmap(buffers * buffer_bytes)
        idx = await handle.ioctl(FRAME_DQ)
        frame = await region.page_read(region.base + idx * buffer_bytes, frame_bytes)
        await session.close()
        return frame

    try:
        frame = kernel.run(drive())
    finally:
        endpoint.close()
    assert frame == frame_pattern(0, frame_bytes)
    # the frame's 150 invalid pages are one run: one PAGE_FETCH, one PAGE_DATA
    assert session.dsm.stats["fetches"] == 1
    assert session.dsm.stats["installs"] == 150
    assert stopped.wait(5.0)


def test_cli_client_prints_the_rows_it_measured_before_the_server_closed():
    from rio.cli import run_cli
    samples = 3
    port = _free_port()
    # The open, then a poll and a read per sample; the server closes the
    # connection right after the last read's response.
    stopped = _serve_in_thread(port, connections=1, replies=1 + 2 * samples)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run_cli(["client", "--port", str(port), "--device", "sensor", "--count", "50"])
    assert rc == 1
    lines = out.getvalue().splitlines()
    assert lines[0] == "scenario,param,metric,value,round_trips,bytes_on_wire"
    assert [line.split(",")[1] for line in lines[1:]] == [f"sample={i}" for i in range(samples)]
    assert all(line.startswith("tcp,sample=") and ",read_ms," in line for line in lines[1:])
    assert err.getvalue().startswith("error:")
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert stopped.wait(5.0)


def test_a_closed_connection_tears_its_sessions_down_at_once():
    kernel = RealKernel()
    server = Server(kernel, default_devices(kernel), ServerConfig())
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    kernel.add_reader(listener,
                      lambda: server.attach(TcpEndpoint(kernel, listener.accept()[0])))
    client = Client(kernel, ClientConfig())
    endpoint = TcpEndpoint(kernel, socket.create_connection(listener.getsockname(),
                                                             timeout=5.0))
    session = client.connect(endpoint)

    async def drive():
        await session.open("echodev")
        assert len(server.sessions) == 1
        closed_at = time.monotonic()
        endpoint.close()
        # Well inside the 1.5 s heartbeat horizon, which would also end it.
        while server.sessions and time.monotonic() - closed_at < 1.0:
            await kernel.sleep(5)
        return time.monotonic() - closed_at

    try:
        elapsed = kernel.run(drive())
    finally:
        kernel.remove_reader(listener)
        listener.close()
    assert not server.sessions
    assert elapsed < 0.2
    assert list(server.stats.cleanups) == [(session.session_id, "LinkDown")]
    assert all(v == 0 for v in server.census().values())
