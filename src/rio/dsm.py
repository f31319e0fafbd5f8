"""Page-granular distributed shared memory with write-invalidate coherence.

A region pairs real pages on the server with shadow pages on the client.
Both sides run a ``DsmNode``; coherence is tracked per 4 KB page, each
page being read-write, read-only, or invalid.  Writes revoke the peer's
copy; reads fetch on demand.  Every coherence message names one run of
pages, ``(region, first page, count)``.  A read fetches the whole run of
invalid pages it needs in one round trip, however long; a
write claims one page.  Device DMA bypasses access checks, so DMA
completions enter through an explicit hook that either invalidates the
peer's copy of the run or pushes the run's pages to it (update-push, used
for frame streams).  Only the server pushes.

Each side holds a region as one ``Region``: its pages (a ``ViewStore``),
its DMA policy and each page's state.  ``usable_run`` counts the pages
from one on that may be used now, with no state change.

The node core is scheduler-free: ``access``/``handle`` make synchronous
state transitions and emit outgoing messages through a callback, which
lets the same code run under the event kernel, under a real socket, or
inside the exhaustive model checker in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Iterable, Optional

from .memory import PAGE_SIZE, pages_for
from .wire import PageData, PageFetch, PageInvalidate, PageUpdateBatch, ProtocolError

GBUF_REGION_BASE = 1 << 32  # global buffers use client-chosen ids in this namespace


class PageState(IntEnum):
    INVALID = 0
    READ_ONLY = 1
    READ_WRITE = 2


# Hot paths compare against these module names: reading a member off an
# enum class goes through the enum metaclass and costs several times more.
INVALID, READ_ONLY, READ_WRITE = PageState.INVALID, PageState.READ_ONLY, PageState.READ_WRITE


class Policy(IntEnum):
    INVALIDATE = 0
    UPDATE_PUSH = 1


class DsmError(Exception):
    pass


class ProtocolFault(DsmError, ProtocolError):
    """Coherence traffic that violates the protocol; session is bad."""


# ---------------------------------------------------------------------------
# Regions: page storage and permission state
# ---------------------------------------------------------------------------


class ViewStore:
    """Pages held in pieces, each a view of one buffer's consecutive pages:
    on the server each buffer a device mapped, or a global buffer; on the
    client the buffer of a shadow region.

    ``run`` returns views, not copies; a buffer cannot be resized while its
    views exist.  What the node sends is still a copy taken at send time:
    ``send`` encodes the frame, copying each view into it, before it
    returns, so a later fill of the buffer does not reach a sent frame.
    """

    def __init__(self, pieces: Iterable) -> None:
        self.pieces = [memoryview(piece) for piece in pieces]  # whole pages, back to back

    def run(self, first: int, count: int) -> list[memoryview]:
        """Writable views of ``count`` pages from ``first``, back to back: one
        per piece the run crosses.  The node sends them as they are and
        installs into them; it checks the run against the region first."""
        lo, hi = first * PAGE_SIZE, (first + count) * PAGE_SIZE
        views, start = [], 0
        for piece in self.pieces:
            stop = start + len(piece)
            if lo < stop and start < hi:
                views.append(piece[max(lo - start, 0) : min(hi, stop) - start])
            start = stop
        return views


class Region:
    """One region's pages on one side: where they are stored, the policy for
    DMA into them, and the permission state of each."""

    def __init__(self, region_id: int, length: int, store: ViewStore, policy: Policy,
                 initial: PageState) -> None:
        self.region_id = region_id
        self.npages = pages_for(length)
        self.policy = policy
        self.store = store
        self.states: list[PageState] = [initial] * self.npages

    def check_run(self, first_page: int, npages: int) -> None:
        """Raise ``DsmError`` unless both ends of the run lie in the region
        (a list would take a negative index silently)."""
        for page in (first_page, first_page + npages - 1):
            if not 0 <= page < self.npages:
                raise DsmError(f"page {page} outside region of {self.npages} pages")

    def get(self, page: int) -> PageState:
        self.check_run(page, 1)
        return self.states[page]

    def set_range(self, first_page: int, npages: int, state: PageState) -> None:
        """Set ``npages`` pages from ``first_page`` in one slice; a run
        outside the region changes nothing and raises ``DsmError``."""
        if npages <= 0:
            return
        self.check_run(first_page, npages)
        self.states[first_page : first_page + npages] = [state] * npages


# ---------------------------------------------------------------------------
# The coherence node
# ---------------------------------------------------------------------------


@dataclass
class _Pending:
    """One fetch in flight, shared by every page of its run."""

    want_ownership: bool  # False on the two-step path; the retry claims separately
    first: int
    count: int
    waiters: list[Callable[[], None]] = field(default_factory=list)


class DsmNode:
    """One side's coherence engine.

    ``side`` is "client" or "server"; the server is the serialization
    point for crossed ownership claims (a claim arriving at a read-write
    server page is the loser of a race and is dropped; the client always
    yields).
    """

    CLIENT = "client"
    SERVER = "server"

    def __init__(self, side: str, send: Callable, *, coalesce_fetch_own: bool = True) -> None:
        assert side in (self.CLIENT, self.SERVER)
        self.side = side
        self.send = send
        self.coalesce_fetch_own = coalesce_fetch_own
        self.regions: dict[int, Region] = {}
        self._pending: dict[tuple[int, int], _Pending] = {}
        self.stats = {"fetches": 0, "invalidates_sent": 0, "pushes": 0, "installs": 0}
        self._handlers = {PageFetch: self._on_fetch, PageData: self._on_data,
                          PageInvalidate: self._on_invalidate,
                          PageUpdateBatch: self._on_batch}

    # -- region lifecycle --------------------------------------------------

    def register_region(self, region: Region) -> None:
        if region.region_id in self.regions:
            raise DsmError(f"region id {region.region_id} already registered")
        self.regions[region.region_id] = region

    def drop_region(self, region_id: int) -> None:
        self.regions.pop(region_id, None)
        for key in [k for k in self._pending if k[0] == region_id]:
            pending = self._pending.pop(key)
            waiters, pending.waiters = pending.waiters, []  # a run wakes once
            for wake in waiters:
                wake()

    def region(self, region_id: int) -> Region:
        try:
            return self.regions[region_id]
        except KeyError:
            raise DsmError(f"unknown region {region_id}") from None

    def clear(self) -> None:
        for region_id in list(self.regions):
            self.drop_region(region_id)

    # -- local access path ---------------------------------------------------

    def access(self, region_id: int, page: int, write: bool,
               waiter: Optional[Callable[[], None]] = None, npages: int = 1) -> bool:
        """Attempt a local page access.

        Returns True when the access may proceed immediately.  Otherwise
        coherence traffic was started (or is already in flight) and
        ``waiter`` will be called once the page state changes; the caller
        must then retry.  A read that goes on for ``npages`` pages fetches
        the invalid pages after ``page`` with it, up to the first page that
        is held or already in flight.
        """
        region = self.region(region_id)
        state = region.get(page)  # DsmError outside the region
        pending = self._pending.get((region_id, page))
        if pending is not None:
            if waiter is not None:
                pending.waiters.append(waiter)
            return False
        if state == READ_WRITE or (state == READ_ONLY and not write):
            return True
        if state == READ_ONLY:
            # A write: claim ownership, revoke the peer's copy, take read-write.
            region.set_range(page, 1, READ_WRITE)
            self.stats["invalidates_sent"] += 1
            self.send(PageInvalidate(region_id, page))
            return True
        # Invalid: fetch, optionally with ownership folded in.
        want_own = write and self.coalesce_fetch_own
        end = page + 1
        if not write:
            states, pending_keys = region.states, self._pending
            stop = min(page + npages, region.npages)
            while end < stop and states[end] == INVALID and (region_id, end) not in pending_keys:
                end += 1
        pending = _Pending(want_own, page, end - page)
        if waiter is not None:
            pending.waiters.append(waiter)
        for run_page in range(page, end):
            self._pending[(region_id, run_page)] = pending
        self.stats["fetches"] += 1
        self.send(PageFetch(region_id, page, want_own, end - page))
        return False

    def usable_run(self, region_id: int, first: int, n: int, write: bool = False) -> int:
        """How many of the ``n`` pages from ``first`` may be used now, with no
        state change: counted up to the first page that is invalid, not
        read-write for a write, or has a fetch in flight."""
        region = self.region(region_id)
        region.check_run(first, n)  # DsmError outside the region
        states, end = region.states, first + n
        for unusable in (INVALID, READ_ONLY) if write else (INVALID,):
            try:
                end = states.index(unusable, first, end)
            except ValueError:
                pass  # no such page in the run
        if self._pending:
            for page in range(first, end):
                if (region_id, page) in self._pending:
                    return page - first
        return end - first

    # -- incoming coherence traffic -------------------------------------------

    def handle(self, body) -> None:
        handler = self._handlers.get(type(body))
        if handler is None:
            raise ProtocolFault(f"unexpected coherence body {body!r}")
        try:
            handler(body)
        except DsmError as exc:
            # A region or page this side does not hold: the peer is at fault.
            raise ProtocolFault(str(exc)) from exc

    def _on_fetch(self, body: PageFetch) -> None:
        region = self.region(body.region)
        first, count = body.page, body.count
        if count < 1 or (count > 1 and body.want_ownership):
            raise ProtocolFault(f"fetch of {count} pages, ownership {body.want_ownership}")
        if INVALID in region.states[first : first + count]:
            raise ProtocolFault(
                f"peer fetched pages {first}..{first + count - 1} of region "
                f"{body.region}, one of which is invalid on both sides"
            )
        # DsmError past the region's end, before anything is sent
        region.set_range(first, count, INVALID if body.want_ownership else READ_ONLY)
        self.send(PageData(body.region, first, region.store.run(first, count)))

    def _install(self, body, state: PageState) -> None:
        """Copy a run's pages into the region and give them ``state``; a run
        that is not whole pages, or that the region cannot take, raises
        ``DsmError`` before any page is written."""
        region, data = self.region(body.region), body.data
        src = memoryview(data[0] if len(data) == 1 else b"".join(data))
        count, rest = divmod(len(src), PAGE_SIZE)
        if rest or not count:
            raise ProtocolFault(f"a run of {len(src)} bytes is not whole pages")
        region.set_range(body.page, count, state)
        pos = 0
        for view in region.store.run(body.page, count):
            view[:] = src[pos : pos + len(view)]
            pos += len(view)
        self.stats["installs"] += count

    def _on_data(self, body: PageData) -> None:
        region_id, first = body.region, body.page
        count = sum(map(len, body.data)) // PAGE_SIZE  # ``_install`` refuses a part page
        pending = self._pending.get((region_id, first))
        if pending is None or pending.first != first or pending.count != count:
            raise ProtocolFault(f"data for {count} pages from page {first} of region "
                                f"{region_id} is not the run of a fetch in flight")
        self._install(body, READ_WRITE if pending.want_ownership else READ_ONLY)
        for page in range(first, first + count):
            del self._pending[(region_id, page)]
        for wake in pending.waiters:
            wake()

    def _on_invalidate(self, body: PageInvalidate) -> None:
        region = self.region(body.region)
        if body.count < 1 or body.count > 1 and self.side == self.SERVER:
            raise ProtocolFault(f"invalidate of {body.count} pages at the {self.side}")
        if self.side == self.SERVER and region.get(body.page) == READ_WRITE:
            # Crossed ownership claims: the server is the serialization
            # point and wins; the client's claim is void.
            return
        region.set_range(body.page, body.count, INVALID)

    def _on_batch(self, body: PageUpdateBatch) -> None:
        # Pushed updates come from the serialization point: they install
        # unconditionally, demoting even a crossed local claim to read-only
        # (an uncoordinated local write loses to the device's DMA).
        if self.side == self.SERVER:
            raise ProtocolFault("only the server pushes pages")
        self._install(body, READ_ONLY)

    # -- DMA completions -------------------------------------------------------

    def dma_complete(self, region_id: int, offset: int, length: int) -> int:
        """Apply the region's policy to pages a device just wrote.

        Returns the number of pages covered.  Invalidate policy: one
        invalidation of the touched run, local side becomes read-write.
        Update-push: one batch carrying the run's bytes, both sides
        read-only.
        """
        region = self.region(region_id)
        if length <= 0:
            return 0
        first = offset // PAGE_SIZE
        count = (offset + length - 1) // PAGE_SIZE + 1 - first
        invalidate = region.policy == Policy.INVALIDATE
        state = READ_WRITE if invalidate else READ_ONLY
        region.set_range(first, count, state)  # DsmError outside the region
        if invalidate:
            self.stats["invalidates_sent"] += 1
            self.send(PageInvalidate(region_id, first, count))
        else:
            self.stats["pushes"] += 1
            self.send(PageUpdateBatch(region_id, first, region.store.run(first, count)))
        return count

    # -- helpers ----------------------------------------------------------------

    def quiescent(self) -> bool:
        return not self._pending

