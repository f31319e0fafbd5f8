"""One-call wiring of a simulated client/server pair.

``SimWorld`` builds the deterministic kernel, a configured link, a server
hosting the reference devices, and a client, then connects one session.
Tests, benchmarks and the demo scripts all drive scenarios through it:

    world = SimWorld(link="lan", seed=7)
    async def scenario():
        h = await world.session.open("sensor")
        ...
    world.run(scenario())
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from .client import Client, ClientConfig, ClientSession
from .devices import AudioConfig, audio_prefetch_registry, default_devices
from .dsm import Policy
from .kernel import SimKernel
from .server import Server, ServerConfig
from .wire import LinkConfig, SimulatedLink

# Evaluation link presets.  The latency figures are round-trip medians and
# averages; LinkConfig wants one-way latency, hence the halving.
LINK_PRESETS: dict[str, LinkConfig] = {
    "loopback": LinkConfig.mbps(0.0, None),
    "lan": LinkConfig.mbps(4.4 / 2, 14.3),
    "lan_avg": LinkConfig.mbps(13.8 / 2, 14.3),
    "wan": LinkConfig.mbps(55.2 / 2, 1.2),
    "wan_avg": LinkConfig.mbps(56.9 / 2, 1.2),
}


def link_preset(link: str | LinkConfig) -> LinkConfig:
    """A fresh copy of the named preset; a ``LinkConfig`` is returned as is."""
    if isinstance(link, LinkConfig):
        return link
    try:
        preset = LINK_PRESETS[link]
    except KeyError:
        raise ValueError(f"unknown link preset {link!r}; "
                         f"choose from {sorted(LINK_PRESETS)}") from None
    return dataclasses.replace(preset)


def resolve_link(link: str = "lan", latency_ms: Optional[float] = None,
                 throughput_mbps: Optional[float] = None,
                 link_config: Optional[str] = None) -> str | LinkConfig:
    """The link that the CLI's link flags name: a ``LinkConfig`` read from
    the ``link_config`` file, or built for "custom" or an explicit latency
    or throughput (a throughput of 0 or less is unlimited); else the preset
    name itself."""
    if link_config:
        return LinkConfig.from_file(link_config)
    if link == "custom" or latency_ms is not None or throughput_mbps is not None:
        if throughput_mbps is not None and throughput_mbps <= 0:
            throughput_mbps = None
        return LinkConfig.mbps(latency_ms or 0.0, throughput_mbps)
    return link


class SimWorld:
    def __init__(self, link: str | LinkConfig = "loopback", *, seed: int = 0,
                 optimize: bool = True, dsm_policy: Policy = Policy.UPDATE_PUSH,
                 audio: Optional[AudioConfig] = None, call_delay_ms: float = 7800.0,
                 sms_delay_ms: float = 6200.0) -> None:
        self.kernel = SimKernel()
        self.rng = random.Random(seed)
        self.link_config = link_preset(link)
        self.link = SimulatedLink(self.kernel, self.link_config, rng=self.rng)
        self.audio_config = audio or AudioConfig()
        self.devices = default_devices(self.kernel, audio=self.audio_config,
                                       call_delay_ms=call_delay_ms, sms_delay_ms=sms_delay_ms)
        self.server = Server(self.kernel, self.devices,
                             ServerConfig(optimize=optimize, dma_policy=dsm_policy))
        self.client = Client(self.kernel, ClientConfig(optimize=optimize),
                             registry=audio_prefetch_registry(self.audio_config))
        self.server.attach(self.link.b)
        self.session: ClientSession = self.client.connect(self.link.a)

    # -- driving -------------------------------------------------------------

    def run(self, coro, name: str = "scenario"):
        return self.kernel.run(coro, name)

    def advance(self, ms: float) -> None:
        self.kernel.run_until(self.kernel.now() + ms)

    def now(self) -> float:
        return self.kernel.now()

    # -- faults ----------------------------------------------------------------

    def cut_link(self, at_ms: Optional[float] = None) -> None:
        self.link.cut(at_ms)

    def new_session(self, link: str | LinkConfig = None) -> ClientSession:
        """Open a fresh link + session against the same server."""
        config = self.link_config if link is None else link_preset(link)
        fresh = SimulatedLink(self.kernel, dataclasses.replace(config, disconnect_at_ms=None),
                              rng=self.rng)
        self.server.attach(fresh.b)
        return self.client.connect(fresh.a)

    # -- readouts ----------------------------------------------------------------

    @property
    def stats(self):
        return self.link.stats

    def census(self) -> dict[str, int]:
        return self.server.census()
