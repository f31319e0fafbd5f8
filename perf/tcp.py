"""echo_tcp: the echo loop over localhost TCP against a server process.

Kept apart from the simulated workloads so that its socket and subprocess
imports count only in its own set-up time.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys

from rio import Client, ClientConfig, RealKernel
from rio.wire import TcpEndpoint

from workloads import EchoMixin, Workload


class CountingSocket(socket.socket):
    """Counts the bytes the client endpoint receives; sets no option."""

    received = 0

    def recv(self, bufsize, *flags):
        data = super().recv(bufsize, *flags)
        self.received += len(data)
        return data


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_server(root: str, argv: list[str], timeout_s: float = 30.0):
    """Start a server process and wait until it listens.  Returns (proc, port)."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for _ in range(3):  # the probed port may be taken before the server binds it
        port = _free_port()
        proc = subprocess.Popen([sys.executable, *argv, "--bind", "127.0.0.1",
                                 "--port", str(port)],
                                cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
        line = proc.stdout.readline() if ready else ""
        if line.startswith("serving on"):
            return proc, port
        proc.kill()
        proc.wait()
        proc.stdout.close()
    raise RuntimeError("server process did not start listening")


def cpu_ticks(pid: int) -> int:
    """User plus system CPU ticks of a live child, from /proc."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


class EchoTcp(EchoMixin, Workload):
    """The echo loop over localhost TCP, against ``python -m rio.cli serve``."""

    name = "echo_tcp"
    server_argv = ["-m", "rio.cli", "serve", "--once"]

    def build(self) -> None:
        self.proc, port = start_server(self.root, self.server_argv)
        self.sock = CountingSocket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.connect(("127.0.0.1", port))
        self.kernel = RealKernel()
        self.client = Client(self.kernel, ClientConfig())
        self.endpoint = TcpEndpoint(self.kernel, self.sock)
        self.session = self.client.connect(self.endpoint)

    def open(self) -> None:
        self.kernel.run(self._open_echo(self.session, self.client))

    def check(self, inp, out) -> list[str]:
        return self.check_echo(inp, out)

    def counters(self) -> dict:
        stats = self.endpoint.stats
        return {"bytes": stats.bytes_on_wire + self.sock.received,
                "round_trips": stats.round_trips,
                "frames": stats.frames_sent + stats.frames_delivered,
                "frames_decoded": stats.frames_delivered,
                "installs": self.session.dsm.stats["installs"],
                "fetches": self.session.dsm.stats["fetches"],
                "pushes": self.session.dsm.stats["pushes"],
                "coverage_misses": self.session.coverage_misses,
                "server_cpu_ticks": cpu_ticks(self.proc.pid)}

    def close(self) -> dict[str, bool]:
        async def teardown():
            await self.handle.close()
            await self.session.close()

        try:
            self.kernel.run(teardown())
        finally:
            self.endpoint.close()
        return {"server_exit_0": self.stop_server() == 0}

    def stop_server(self):
        """Wait for the server to exit; kill it if it does not.  Returns its status."""
        try:
            return self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return None
        finally:
            self.proc.stdout.close()
