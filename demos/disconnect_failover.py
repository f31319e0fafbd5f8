"""Mid-stream disconnection: cleanup on the server, failover on the client.

A sensor-reading loop keeps running across a link cut: heartbeat silence
declares the disconnect, the handle switches to the registered local
sensor, and the server's watchdog releases every residual so a fresh
session can open the device again.
"""

from rio.devices import POLLIN, SensorDevice
from rio.testbed import SimWorld
from rio.wire import HEARTBEAT_TIMEOUT_MS


if __name__ == "__main__":
    world = SimWorld(link="lan", seed=7)
    world.client.register_local_fallback("sensor", SensorDevice(world.kernel))

    async def scenario():
        handle = await world.session.open("sensor")
        print(f"opened remote handle {handle.name!r} (local twin registered)")
        buf = world.client.alloc(16)
        for i in range(12):
            if i == 6:
                print(f"  t={world.now():7.1f} ms  --- cutting the link ---")
                world.cut_link()
            await handle.poll(POLLIN)
            await handle.read(buf, 12)
            source = "remote" if world.session.live else "local "
            print(f"  t={world.now():7.1f} ms  reading {i:2d} via {source}"
                  f"  state={handle.state.value}")
        return handle

    world.run(scenario())
    world.kernel.run_until(world.now() + HEARTBEAT_TIMEOUT_MS + 700)
    print(f"server residuals after cleanup: {world.census()}")

    fresh = world.new_session()

    async def reopen():
        handle = await fresh.open("sensor")
        await handle.poll(POLLIN)
        print("fresh session reopened the sensor and got a sample")

    world.run(reopen())
