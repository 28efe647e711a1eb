"""Single-flight: one in-flight execution absorbs identical requests.

:class:`InFlightRegistry` is the service's only single-flight. The first
request for a structural key (the request's
:attr:`~repro.service.request.QueryRequest.query_key`: preference,
algorithm, k, tau, I, direction) **opens a flight** and proceeds through
admission as usual; any identical request submitted while that flight
is open — queued or executing — **joins** it instead of entering the
queue: no admission slot, no session, no execution. When the leader's
batch settles, the service resolves every follower from the leader's
outcome: a clone of the report on success, the same rejection on
timeout/shutdown, the same exception on failure. Followers therefore
inherit the leader's fate and can never be left hanging: every path
through the service's batch execution settles the flight, and
``drain()`` sweeps whatever remains at shutdown.

Unlike the answer cache, the registry is *not* keyed on dataset version:
joining a flight hands out a **future** execution whose snapshot is
taken at execution time, which is valid for every waiter regardless of
how many ingest epochs pass between submit and pickup. (The answer
cache replays a *past* execution and therefore must pin the epoch.)

The registry only tracks membership; turning a leader outcome into
follower responses (and metrics) stays in the service, which owns those
types. Thread-safe: one lock arbitrates open/join/settle, so a join
either lands before settlement (the leader delivers it) or misses the
flight entirely and falls back to normal admission.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable

__all__ = ["InFlight", "InFlightRegistry"]


class InFlight:
    """One open flight: the leader's key plus the followers it absorbed."""

    __slots__ = ("key", "followers")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.followers: list[Any] = []


class InFlightRegistry:
    """Membership tracking for in-flight executions, keyed on structure."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[Hashable, InFlight] = {}

    def open(self, key: Hashable) -> InFlight | None:
        """Open a flight for ``key``; ``None`` if one is already open.

        The caller that receives a flight is its leader and *must*
        eventually :meth:`settle` it (the service does so on every
        outcome path, including rejection).
        """
        with self._lock:
            if key in self._flights:
                return None
            flight = InFlight(key)
            self._flights[key] = flight
            return flight

    def join(self, key: Hashable, item: Any) -> bool:
        """Attach ``item`` to an open flight; ``False`` if none is open."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                return False
            flight.followers.append(item)
            return True

    def settle(self, flight: InFlight) -> list[Any]:
        """Close ``flight`` and hand its followers to the caller.

        After settlement no further join can reach the flight, so the
        returned list is complete and exclusively owned by the caller.
        """
        with self._lock:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
            followers = flight.followers
            flight.followers = []
            return followers

    def drain(self) -> list[tuple[InFlight, list[Any]]]:
        """Settle every open flight (shutdown sweep)."""
        with self._lock:
            flights = list(self._flights.values())
            self._flights.clear()
            drained = []
            for flight in flights:
                followers = flight.followers
                flight.followers = []
                drained.append((flight, followers))
            return drained

    def __len__(self) -> int:
        with self._lock:
            return len(self._flights)
