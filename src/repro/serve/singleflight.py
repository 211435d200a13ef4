"""Per-key in-flight registry: coalesce identical cold misses.

The result server keys simulations exactly as the cache does (the
``point_key`` sha256 over runner + canonical config + final params +
code digest), so "the same query" and "the same cache entry" are one
notion.  The first query to miss on a key becomes that key's *leader*
and enqueues one fill job; every concurrent identical query becomes a
*follower* and awaits the leader's future.  However many clients ask,
each cold key simulates exactly once per flight.

Single-threaded by design: the registry is only touched from the
server's event loop (claims from request handlers, resolutions posted
back from the fill thread via ``call_soon_threadsafe``), so dict
operations need no locking.  Followers must await through
``asyncio.shield`` -- a client disconnecting mid-wait cancels its own
handler task, and an unshielded await would propagate that
cancellation into the shared future, killing the result for every
other waiter.

A flight ends in two steps.  *Publish* hands the record to every
waiter as soon as it is simulated; the key stays registered while the
fill thread writes the cache entry.  *Land* retires the key once that
write is done.  A query for a published key awaits the landing and
then reads the entry like any warm hit, so a sequential client sees
the same flags and counters as before the split, and an empty registry
means every answered record's write has finished.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple

__all__ = ["SingleFlight"]


class SingleFlight:
    """An asyncio future per in-flight cache key."""

    def __init__(self) -> None:
        self._flights: Dict[str, asyncio.Future] = {}
        #: Published keys -> a future set when their entry has landed.
        self._landings: Dict[str, asyncio.Future] = {}
        #: Followers coalesced onto a leader's flight, ever.
        self.coalesced = 0
        #: Flights led (first-misser claims), ever.
        self.led = 0

    def __len__(self) -> int:
        return len(self._flights)

    def __contains__(self, key: str) -> bool:
        return key in self._flights

    def claim(self, key: str) -> Tuple[asyncio.Future, bool]:
        """The flight future for ``key`` plus whether the caller leads.

        The leader (second element True) is responsible for getting a
        fill job enqueued; followers just await.
        """
        flight = self._flights.get(key)
        if flight is not None:
            self.coalesced += 1
            return flight, False
        flight = asyncio.get_running_loop().create_future()
        self._flights[key] = flight
        self.led += 1
        return flight, True

    async def wait(self, flight: asyncio.Future):
        """Await a flight without being able to cancel it for others."""
        return await asyncio.shield(flight)

    def publish(self, key: str, record) -> None:
        """Answer ``key``'s waiters with ``record``; keep it registered.

        The service passes the simulated record's JSON bytes, encoded
        once per flight however many followers splice them.  Until
        :meth:`resolve` lands the key, :meth:`landing` gives later
        queries a future to await instead of the answered flight.
        """
        flight = self._flights.get(key)
        if flight is None:  # failed while the fill ran (server stopping)
            return
        flight.set_result(record)
        self._landings[key] = flight.get_loop().create_future()

    def landing(self, key: str) -> Optional[asyncio.Future]:
        """The future of a published key's landing, or None."""
        return self._landings.get(key)

    def resolve(self, key: str, record=None) -> None:
        """Land ``key``'s flight: retire it and release its landing.

        Waiters not answered by :meth:`publish` receive ``record``.
        """
        flight = self._flights.pop(key, None)
        if flight is not None and not flight.done():
            flight.set_result(record)
        self._release(key)

    def fail(self, key: str, error: BaseException) -> None:
        """Fail ``key``'s flight; waiters not yet answered re-raise
        ``error``, and queries awaiting a landing go on."""
        flight = self._flights.pop(key, None)
        if flight is not None and not flight.done():
            flight.set_exception(error)
            # An enqueue-only flight (prefetch, no waiter) must not
            # log "exception was never retrieved" at shutdown.
            flight.exception()
        self._release(key)

    def fail_all(self, error: BaseException) -> None:
        """Fail every in-flight key (server shutdown)."""
        for key in list(self._flights):
            self.fail(key, error)

    async def landed(self) -> None:
        """Return once no published key is waiting for its landing."""
        while self._landings:
            await asyncio.wait(list(self._landings.values()))

    def _release(self, key: str) -> None:
        landing = self._landings.pop(key, None)
        if landing is not None and not landing.done():
            landing.set_result(None)
