"""Cooperative task kernels.

Everything in this package that waits (device timers, blocking polls,
in-flight round trips, heartbeats) runs as a coroutine on one of two
schedulers:

* ``SimKernel`` -- a discrete-event scheduler over a logical millisecond
  clock.  Runs are fully deterministic: events firing at the same instant
  execute in scheduling order, and no wall-clock time is consulted.
* ``RealKernel`` -- the same task API over wall-clock time plus a
  ``select()`` loop for sockets, used for real TCP runs.

Coroutines await ``Future`` objects (or other tasks); there is no
dependency on asyncio.
"""

from __future__ import annotations

import heapq
import itertools
import select
import time
from typing import Any, Callable, Optional


class Cancelled(Exception):
    """Raised inside a coroutine whose task was cancelled."""


class Deadlock(RuntimeError):
    """The simulation ran out of events with tasks still pending."""


class Future:
    """A one-shot result container that coroutines can await."""

    __slots__ = ("_done", "_result", "_exc", "_callbacks", "name")

    def __init__(self, name: str = "") -> None:
        self._done = False
        self._result: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: list[Callable[[Future], None]] = []
        self.name = name

    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError(f"future {self.name!r} not ready")
        if self._exc is not None:
            raise self._exc
        return self._result

    def set_result(self, value: Any = None) -> None:
        if self._done:
            return
        self._done = True
        self._result = value
        self._fire()

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            return
        self._done = True
        self._exc = exc
        self._fire()

    def add_done_callback(self, fn: Callable[[Future], None]) -> None:
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __await__(self):
        if not self._done:
            yield self
        return self.result()


class Task(Future):
    """A coroutine driven by a kernel.  Awaitable like a Future."""

    __slots__ = ("_kernel", "_coro", "_waiting_on", "_cancelled", "_started")

    def __init__(self, kernel: "Kernel", coro, name: str = "") -> None:
        super().__init__(name=name or getattr(coro, "__name__", "task"))
        self._kernel = kernel
        self._coro = coro
        self._waiting_on: Optional[Future] = None
        self._cancelled = False
        self._started = False

    def cancel(self) -> bool:
        """Request cancellation.  Returns False if the task already finished."""
        if self._done:
            return False
        self._cancelled = True
        waited = self._waiting_on
        self._waiting_on = None
        if waited is not None or not self._started:
            # Parked (or never started): step it with the cancellation now.
            self._kernel.call_soon(self._step, None, Cancelled())
        # If currently running, the flag is honoured at its next suspension.
        return True

    def _wake(self, fut: Future) -> None:
        if self._done or self._waiting_on is not fut:
            return
        self._waiting_on = None
        try:
            value = fut.result()
        except BaseException as exc:  # propagate into the coroutine
            self._step(None, exc)
        else:
            self._step(value, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._done:
            return
        self._started = True
        if self._cancelled and not isinstance(exc, Cancelled):
            exc = Cancelled()
        try:
            if exc is not None:
                target = self._coro.throw(exc)
            else:
                target = self._coro.send(value)
        except StopIteration as stop:
            self.set_result(stop.value)
        except Cancelled as c:
            self.set_exception(c)
        except BaseException as err:
            self.set_exception(err)
        else:
            if not isinstance(target, Future):
                self._step(None, TypeError(f"task awaited non-future {target!r}"))
                return
            self._waiting_on = target
            target.add_done_callback(self._wake)


class Lock:
    """FIFO mutex for tasks."""

    def __init__(self, kernel: "Kernel") -> None:
        self._kernel = kernel
        self._held = False
        self._waiters: list[Future] = []

    async def acquire(self) -> None:
        if not self._held:
            self._held = True
            return
        fut = Future("lock")
        self._waiters.append(fut)
        try:
            await fut
        except Cancelled:
            if fut in self._waiters:
                self._waiters.remove(fut)
            elif fut.done():
                self.release()
            raise

    def release(self) -> None:
        if self._waiters:
            self._waiters.pop(0).set_result(None)
        else:
            self._held = False

    async def __aenter__(self):
        await self.acquire()
        return self

    async def __aexit__(self, *exc):
        self.release()
        return False


class Kernel:
    """Shared task/timer machinery.  Subclasses supply the clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._tie = 0
        self._now = 0.0
        # Numbers for the device-file descriptors opened under this kernel:
        # unique across its devices, and the same in every run.
        self.descriptor_ids = itertools.count(1)

    # -- clock ---------------------------------------------------------

    def now(self) -> float:
        return self._now

    # -- scheduling ----------------------------------------------------

    def call_at(self, when: float, fn: Callable, *args) -> None:
        self._tie += 1
        heapq.heappush(self._heap, (max(when, self._now), self._tie, fn, args))

    def call_later(self, delay_ms: float, fn: Callable, *args) -> None:
        self.call_at(self._now + max(0.0, delay_ms), fn, *args)

    def call_soon(self, fn: Callable, *args) -> None:
        self.call_at(self._now, fn, *args)

    def spawn(self, coro, name: str = "") -> Task:
        task = Task(self, coro, name)
        self.call_soon(task._step, None, None)
        return task

    def sleep(self, delay_ms: float) -> Future:
        fut = Future("sleep")
        self.call_later(delay_ms, fut.set_result, None)
        return fut

    def sleep_until(self, when: float) -> Future:
        fut = Future("sleep_until")
        self.call_at(when, fut.set_result, None)
        return fut

    async def race_timeout(self, task: Task, timeout_ms: Optional[float]):
        """Await ``task``; cancel it after ``timeout_ms``.

        Returns ``(True, result)`` on completion, ``(False, None)`` on
        timeout.  ``timeout_ms=None`` waits indefinitely.
        """
        if timeout_ms is None:
            return True, await task
        gate = Future("timeout-gate")
        deadline_hit = [False]

        def on_deadline() -> None:
            if not gate.done():
                deadline_hit[0] = True
                task.cancel()

        def on_task_done(_):
            if not gate.done():
                gate.set_result(None)

        self.call_later(timeout_ms, on_deadline)
        task.add_done_callback(on_task_done)
        await gate
        if deadline_hit[0]:
            return False, None
        return True, task.result()

    # -- draining ------------------------------------------------------

    def _pop_due(self, horizon: Optional[float] = None) -> bool:
        """Run the next scheduled callback, advancing the clock.

        Returns False when nothing (within the horizon) is left.
        """
        if not self._heap:
            return False
        when, _, fn, args = self._heap[0]
        if horizon is not None and when > horizon:
            return False
        heapq.heappop(self._heap)
        self._now = max(self._now, when)
        fn(*args)
        return True


class SimKernel(Kernel):
    """Deterministic discrete-event kernel over a logical clock (ms)."""

    def run_until_idle(self) -> None:
        while self._pop_due():
            pass

    def run_until(self, when: float) -> None:
        while self._pop_due(horizon=when):
            pass
        self._now = max(self._now, when)

    def run(self, coro, name: str = "main") -> Any:
        """Drive a coroutine to completion, running the whole world."""
        task = self.spawn(coro, name)
        while not task.done():
            if not self._pop_due():
                raise Deadlock(f"no runnable events while {task.name!r} pending")
        return task.result()


class RealKernel(Kernel):
    """Wall-clock kernel with a select() loop for socket callbacks."""

    def __init__(self) -> None:
        super().__init__()
        self._t0 = time.monotonic()
        self._readers: dict[int, tuple[Any, Callable]] = {}
        self._stopped = False

    def now(self) -> float:
        self._now = (time.monotonic() - self._t0) * 1000.0
        return self._now

    def add_reader(self, sock, fn: Callable) -> None:
        self._readers[sock.fileno()] = (sock, fn)

    def remove_reader(self, sock) -> None:
        self._readers.pop(sock.fileno(), None)

    def stop(self) -> None:
        self._stopped = True

    def run(self, coro=None, name: str = "main") -> Any:
        task = self.spawn(coro, name) if coro is not None else None
        while not self._stopped:
            if task is not None and task.done():
                return task.result()
            now = self.now()
            while self._heap and self._heap[0][0] <= now:
                _, _, fn, args = heapq.heappop(self._heap)
                fn(*args)
            if task is not None and task.done():
                return task.result()
            if self._heap:
                timeout = max(0.0, (self._heap[0][0] - self.now()) / 1000.0)
            elif self._readers:
                timeout = 0.1
            else:
                if task is None:
                    return None
                timeout = 0.05
            if self._readers:
                socks = [s for s, _ in self._readers.values()]
                ready, _, _ = select.select(socks, [], [], min(timeout, 0.1))
                for sock in ready:
                    entry = self._readers.get(sock.fileno())
                    if entry is not None:
                        entry[1]()
            else:
                time.sleep(min(timeout, 0.1))
        return task.result() if task is not None and task.done() else None
