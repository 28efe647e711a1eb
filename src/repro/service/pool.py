"""Bounded per-preference session pool.

Hot preferences are the whole point of the serving layer: the paper's
interactive workload re-queries the same user preference with different
``k``/``tau``/intervals, and Zipfian popularity means a few preferences
dominate traffic. The pool keeps one warm
:class:`~repro.core.session.QuerySession` per recently-served preference
(bounded, LRU-evicted), so a batch for a hot preference starts with its
block upper bounds, decoded skyline points and (MiniDB) per-row scores
already in place instead of rebuilding them per request.

The pool only ever holds *idle* sessions. The service checks a session
out for the duration of one batch and back in afterwards; because the
dispatcher admits at most one in-flight batch per preference key, a key
never has two live sessions racing each other (which also makes the
skyline-tree block's lazily-memoised score cache safe without further
locking). Evicted sessions are :meth:`~repro.core.session.QuerySession.close`-d
eagerly — dropping a session is always correct, it only costs future
cache hits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

from repro.core.session import QuerySession
from repro.obs import global_registry

__all__ = ["SessionPool"]


class SessionPool:
    """LRU-bounded map of preference key -> idle :class:`QuerySession`.

    Parameters
    ----------
    capacity:
        Maximum number of idle sessions retained. Sizing it at or above
        the working set of distinct preferences makes the hit rate
        approach 1.0; sizing below it degrades gracefully to the engine's
        own index LRU. The default covers the documented 64–128
        preference Zipfian workload (a 64-session pool under a
        128-preference working set self-inflicts eviction churn — watch
        ``stats()['churn']``); the service constructor and the bench
        CLIs expose it for sizing to the actual workload.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._idle: "OrderedDict[Hashable, QuerySession]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.checkins = 0
        self._closed = False

    def checkout(
        self, key: Hashable, factory: Callable[[], QuerySession]
    ) -> tuple[QuerySession, bool]:
        """A session for ``key``: ``(session, was_pool_hit)``.

        Misses run ``factory`` *outside* the lock (session construction
        may build a preference-bound index) — safe because the service
        never checks out one key concurrently.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("session pool is closed")
            session = self._idle.pop(key, None)
            if session is not None:
                self.hits += 1
                return session, True
            self.misses += 1
        return factory(), False

    def checkin(self, key: Hashable, session: QuerySession) -> None:
        """Return a session to the pool, evicting the coldest if full."""
        evicted: QuerySession | None = None
        with self._lock:
            self.checkins += 1
            if self._closed:
                evicted = session
            else:
                self._idle[key] = session
                self._idle.move_to_end(key)
                if len(self._idle) > self.capacity:
                    _, evicted = self._idle.popitem(last=False)
                    self.evictions += 1
                    global_registry().counter("service.pool.evictions").inc()
        if evicted is not None:
            evicted.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._idle)

    @property
    def hit_rate(self) -> float:
        checkouts = self.hits + self.misses
        return self.hits / checkouts if checkouts else 0.0

    @property
    def churn(self) -> float:
        """Fraction of checkins that evicted a session.

        Near-zero when capacity covers the preference working set; a
        sustained high churn means the pool is undersized for the
        workload and warm sessions are being destroyed to make room.
        """
        return self.evictions / self.checkins if self.checkins else 0.0

    def stats(self) -> dict[str, float | int]:
        with self._lock:
            idle = len(self._idle)
        return {
            "capacity": self.capacity,
            "idle": idle,
            "hits": self.hits,
            "misses": self.misses,
            "checkins": self.checkins,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
            "churn": round(self.churn, 4),
        }

    def close(self) -> None:
        """Close every idle session and refuse further checkouts."""
        with self._lock:
            self._closed = True
            sessions = list(self._idle.values())
            self._idle.clear()
        for session in sessions:
            session.close()
