"""Injection wrappers for the traced run.

The serving stack already accepts its layers by injection: the backend
and the ``SemanticAnswerCache`` handed to ``DurableTopKService``. The
traced run wraps each in an object that forwards every call unchanged
and adds the call's wall time to a :class:`LayerClock`; counts the
layers already keep (``QueryStats``, ``pool.stats()``,
``cache.stats()``) are read beside it, and the service's own
submit-to-done time arrives in every answer frame (``total_seconds``).
The untraced run builds the same stack without the wrappers.
"""

from __future__ import annotations

import threading
from time import perf_counter


class LayerClock:
    """Thread-safe ``name -> [calls, items, seconds]`` accumulator."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals: dict[str, list] = {}

    def add(self, name: str, seconds: float, items: int = 1) -> None:
        with self._lock:
            entry = self._totals.setdefault(name, [0, 0, 0.0])
            entry[0] += 1
            entry[1] += items
            entry[2] += seconds

    def snapshot(self) -> dict[str, list]:
        with self._lock:
            return {name: list(entry) for name, entry in self._totals.items()}

    def reset(self) -> None:
        with self._lock:
            self._totals.clear()


class TimedBackend:
    """Forwards a service backend, timing session builds and execution.

    A session built for a batch delays every request in that batch, so
    its time is charged once per request (``backend_wait``) together
    with the batch's execution, which is how :mod:`run` subtracts
    backend time from the service's submit-to-done latency.
    """

    def __init__(self, inner, clock: LayerClock) -> None:
        self._inner = inner
        self._clock = clock
        self._built = threading.local()

    def make_session(self, scorer):
        start = perf_counter()
        session = self._inner.make_session(scorer)
        elapsed = perf_counter() - start
        self._clock.add("session_build", elapsed)
        self._built.seconds = elapsed
        return session

    def _charge(self, elapsed: float, items: int) -> None:
        built = getattr(self._built, "seconds", 0.0)
        self._built.seconds = 0.0
        self._clock.add("execute", elapsed, items)
        self._clock.add("backend_wait", (built + elapsed) * items, items)

    def execute(self, session, request):
        start = perf_counter()
        result = self._inner.execute(session, request)
        self._charge(perf_counter() - start, 1)
        return result

    def execute_batch(self, session, requests):
        start = perf_counter()
        results = self._inner.execute_batch(session, requests)
        self._charge(perf_counter() - start, len(requests))
        return results

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedCache:
    """Forwards a ``SemanticAnswerCache``, timing lookups and fills."""

    def __init__(self, inner, clock: LayerClock) -> None:
        self._inner = inner
        self._clock = clock

    def get(self, request, version):
        start = perf_counter()
        result = self._inner.get(request, version)
        self._clock.add("cache_get", perf_counter() - start)
        return result

    def put(self, request, version, result):
        start = perf_counter()
        admitted = self._inner.put(request, version, result)
        self._clock.add("cache_put", perf_counter() - start)
        return admitted

    def __getattr__(self, name):
        return getattr(self._inner, name)
