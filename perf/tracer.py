"""Span tracer that wraps the calls into each rio module from the outside.

``install`` replaces every function and method that the rio layers define
with a wrapper, in every rio module that binds it (the modules import each
other's names, so a wrapper must go where a name is looked up, not only
where it is defined).  A call that crosses from one layer into another
opens a span with its name, start, end, parent and the current op id; a
call inside the same layer adds no span, so a layer's self time is the
time spent in its own code.  A few functions that a per-layer metric times
on their own (``TIMED``) always open a span.

Coroutines are wrapped in a proxy that opens a span on each resumption,
because the kernel resumes them long after the call that created them.
Counts are taken at the same wrappers.  Spans are kept in memory in flat
arrays and written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import heapq
import inspect
import select
import sys
import types
from array import array
from enum import Enum
from time import perf_counter_ns

LAYERS = ("kernel", "wire", "memory", "dsm", "devices", "server", "client", "testbed")
IDLE = "idle"    # time blocked in select(): waiting, not work of any layer
BENCH = "bench"  # the benchmark's own code, including its loop coroutine
ALL_LAYERS = LAYERS + (IDLE, BENCH)

# Functions that get a span even when called from their own layer, because
# a per-layer metric times them alone.
TIMED = frozenset({
    "wire.encode_frame", "wire.decode_frame", "wire.decode_body",
    "wire.TcpEndpoint.send", "devices.frame_pattern",
})
# Constructors are calls into the module that defines the class; other
# dunders are protocol plumbing (hashing, awaiting, comparison) and stay bare.
_DUNDERS = frozenset({"__init__", "__post_init__"})

MAX_SPANS = 300_000


class Tracer:
    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.on = False
        self.op_id = 0
        self.max_spans = max_spans
        self.layer_index = {name: i for i, name in enumerate(ALL_LAYERS)}
        self.self_ns = [0] * len(ALL_LAYERS)
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl_ns: list[int] = []
        self.extra: dict[str, int] = {}
        # Stack frames: [layer, name index, start ns, child ns, span index].
        self.stack = [[self.layer_index[BENCH], -1, 0, 0, -1]]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.spans_dropped = 0
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.incl_ns.append(0)
        return len(self.names) - 1

    def add(self, key: str, amount: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def push(self, name: int, layer: int) -> list:
        idx = len(self.span_name)
        if idx < self.max_spans:
            self.span_name.append(name)
            self.span_parent.append(self.stack[-1][4])
            self.span_op.append(self.op_id)
            self.span_start.append(0)
            self.span_end.append(0)
        else:
            idx = -1
            self.spans_dropped += 1
        frame = [layer, name, perf_counter_ns(), 0, idx]
        self.stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = perf_counter_ns()
        stack = self.stack
        if stack[-1] is not frame:
            raise RuntimeError(f"span stack out of order at {self.names[frame[1]]}")
        stack.pop()
        dur = end - frame[2]
        self.self_ns[frame[0]] += dur - frame[3]
        self.incl_ns[frame[1]] += dur
        stack[-1][3] += dur
        if frame[4] >= 0:
            self.span_start[frame[4]] = frame[2]
            self.span_end[frame[4]] = end

    # -- readout -------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates only, as plain data (sent between processes as JSON)."""
        calls: dict[str, int] = {}
        incl: dict[str, int] = {}
        for n, c, t in zip(self.names, self.calls, self.incl_ns):
            calls[n] = calls.get(n, 0) + c
            incl[n] = incl.get(n, 0) + t
        return {"self_ns": dict(zip(ALL_LAYERS, self.self_ns)), "calls": calls,
                "incl_ns": incl, "extra": dict(self.extra),
                "spans": len(self.span_name), "spans_dropped": self.spans_dropped}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.span_op[i]},{i},{self.span_parent[i]},"
                         f"{self.names[self.span_name[i]]},{self.span_start[i]},"
                         f"{self.span_end[i]}\n")

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.on = False
        for owner, attr, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._undo.clear()


class TracedCoro:
    """Coroutine proxy: one span per resumption that crosses a layer."""

    __slots__ = ("_tr", "_coro", "_name", "_layer")

    def __init__(self, tr: Tracer, coro, name: int, layer: int) -> None:
        self._tr = tr
        self._coro = coro
        self._name = name
        self._layer = layer

    @property
    def __name__(self) -> str:
        return self._coro.__name__

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tr = self._tr
        if not tr.on or tr.stack[-1][0] == self._layer:
            return self._coro.send(value)
        frame = tr.push(self._name, self._layer)
        try:
            return self._coro.send(value)
        finally:
            tr.pop(frame)

    def throw(self, *exc):
        tr = self._tr
        if not tr.on or tr.stack[-1][0] == self._layer:
            return self._coro.throw(*exc)
        frame = tr.push(self._name, self._layer)
        try:
            return self._coro.throw(*exc)
        finally:
            tr.pop(frame)

    def close(self):
        return self._coro.close()


def traced_coroutine(tr: Tracer, coro, layer: str) -> TracedCoro:
    """Wrap a coroutine the benchmark drives, so its own time is not charged
    to the kernel that resumes it."""
    return TracedCoro(tr, coro, tr.name_id(f"{layer}.{coro.__name__}"),
                      tr.layer_index[layer])


def _wrap(tr: Tracer, fn, qualname: str, layer: int, hook=None):
    name = tr.name_id(qualname)
    if inspect.iscoroutinefunction(fn):
        def traced(*args, **kwargs):
            if tr.on:
                tr.calls[name] += 1
                if hook is not None:
                    hook(tr, args, None)
            return TracedCoro(tr, fn(*args, **kwargs), name, layer)
    elif qualname in TIMED or hook is not None:
        always = qualname in TIMED

        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            tr.calls[name] += 1
            if not always and tr.stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = tr.push(name, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tr.pop(frame)
            if hook is not None:
                hook(tr, args, result)
            return result
    else:
        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            tr.calls[name] += 1
            if tr.stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = tr.push(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.pop(frame)
    return functools.update_wrapper(traced, fn)


# Counters that need a call's arguments or result.
def _arena_read(tr, args, result):
    tr.add("arena_bytes", args[2])


def _arena_write(tr, args, result):
    tr.add("arena_bytes", len(args[2]))


def _client_request(tr, args, result):
    tr.add("prefetch_bytes", sum(len(data) for _, data in args[1].prefetch))


def _dsm_access(tr, args, result):
    tr.add("dsm_access", 1)
    if result:
        tr.add("dsm_access_ready", 1)


def _decode_frame(tr, args, result):
    tr.add("frames_decoded", 1)


def _server_op(tr, args, result):
    tr.op_id += 1  # the server process numbers ops by arrival


HOOKS = {
    "memory.ByteArena.read": _arena_read,
    "memory.ByteArena.write": _arena_write,
    "client.ClientSession.request": _client_request,
    "dsm.DsmNode.access": _dsm_access,
    "wire.decode_frame": _decode_frame,
}
SERVER_HOOKS = {"server.ServerSession._run_op": _server_op}


def install(tr: Tracer, hooks: dict = HOOKS) -> None:
    """Wrap every function and method the rio layers define."""
    modules = {layer: sys.modules[f"rio.{layer}"] for layer in LAYERS}
    binders = [m for n, m in sys.modules.items() if n == "rio" or n.startswith("rio.")]
    for layer, module in modules.items():
        li = tr.layer_index[layer]
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                if inspect.isgeneratorfunction(obj):
                    continue
                qual = f"{layer}.{obj.__name__}"
                wrapped = _wrap(tr, obj, qual, li, hooks.get(qual))
                for binder in binders:
                    for bname, bval in list(vars(binder).items()):
                        if bval is obj:
                            tr._set(vars(binder), bname, wrapped)
            elif (isinstance(obj, type) and obj.__module__ == module.__name__
                  and not issubclass(obj, (Enum, BaseException))):
                _wrap_class(tr, obj, layer, li, hooks)
    # The kernel schedules through heapq and waits in select(); count one and
    # time the other where the kernel looks them up.
    kernel = modules["kernel"]

    def heappush(heap, item):
        if tr.on:
            tr.add("events", 1)
        heapq.heappush(heap, item)

    idle = tr.layer_index[IDLE]
    select_name = tr.name_id("idle.select")

    def traced_select(*args):
        if not tr.on:
            return select.select(*args)
        tr.calls[select_name] += 1
        frame = tr.push(select_name, idle)
        try:
            return select.select(*args)
        finally:
            tr.pop(frame)

    tr._set(kernel, "heapq", types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
    tr._set(kernel, "select", types.SimpleNamespace(select=traced_select))


def _wrap_class(tr: Tracer, cls: type, layer: str, li: int, hooks: dict) -> None:
    for attr, val in list(vars(cls).items()):
        if attr.startswith("__") and attr not in _DUNDERS:
            continue
        qual = f"{layer}.{cls.__qualname__}.{attr}"
        hook = hooks.get(qual)
        if isinstance(val, (staticmethod, classmethod)):
            fn = val.__func__
            if isinstance(fn, types.FunctionType) and not inspect.isgeneratorfunction(fn):
                tr._set(cls, attr, type(val)(_wrap(tr, fn, qual, li, hook)))
        elif isinstance(val, types.FunctionType) and not inspect.isgeneratorfunction(val):
            tr._set(cls, attr, _wrap(tr, val, qual, li, hook))
