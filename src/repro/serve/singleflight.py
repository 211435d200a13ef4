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
"""

from __future__ import annotations

import asyncio
from typing import Dict, Tuple

__all__ = ["SingleFlight"]


class SingleFlight:
    """An asyncio future per in-flight cache key."""

    def __init__(self) -> None:
        self._flights: Dict[str, asyncio.Future] = {}
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

    def resolve(self, key: str, record) -> None:
        """Land ``key``'s flight; every waiter receives ``record``.

        The service passes the simulated record's JSON bytes, encoded
        once per flight however many followers splice them.
        """
        flight = self._flights.pop(key, None)
        if flight is not None and not flight.done():
            flight.set_result(record)

    def fail(self, key: str, error: BaseException) -> None:
        """Fail ``key``'s flight; waiters re-raise ``error``."""
        flight = self._flights.pop(key, None)
        if flight is not None and not flight.done():
            flight.set_exception(error)
            # An enqueue-only flight (prefetch, no waiter) must not
            # log "exception was never retrieved" at shutdown.
            flight.exception()

    def fail_all(self, error: BaseException) -> None:
        """Fail every in-flight key (server shutdown)."""
        for key in list(self._flights):
            self.fail(key, error)
