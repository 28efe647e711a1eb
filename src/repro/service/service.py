"""The concurrent durable top-k query service.

:class:`DurableTopKService` turns the single-caller engine/MiniDB stack
into a multi-client serving layer:

* **Admission control** — a bounded queue; a submit against a full queue
  is rejected immediately with
  :attr:`~repro.service.request.RejectionReason.QUEUE_FULL`, and a
  request whose queue wait exceeds its ``timeout`` is rejected with
  ``TIMEOUT`` when a worker picks it up. Rejections are typed data on
  the returned future, never exceptions inside the service.
* **Per-preference batching** — pending requests are grouped by
  preference key; a worker drains up to ``max_batch`` same-preference
  requests in one go and serves them with a single warm session. At most
  one batch per key is in flight, so same-preference work is serialised
  (sessions are single-threaded by contract) while distinct preferences
  run in parallel across the worker pool. The whole batch is handed to
  the backend's ``execute_batch`` in one call, so the index traversal
  work (skyline decode, block upper-bound sweeps, window top-k) is
  shared across the batch instead of re-run per request.
* **Single-flight coalescing** — identical in-flight queries (same
  ``(k, tau, interval, direction, algorithm)`` under one preference)
  collapse onto one execution; every waiter gets its own copy of the
  one answer. This works at two ranges: duplicates landing in the same
  batch pickup dedupe inside the batch (``coalesced_batch``), and a
  submit identical to a request *already queued or executing* joins
  that request's flight in a cross-batch
  :class:`~repro.cache.InFlightRegistry` without taking a queue slot
  (``coalesced_inflight``). Followers inherit their leader's fate —
  answer, timeout or shutdown — so no join can hang a future.
* **Semantic answer cache** — pass a
  :class:`~repro.cache.SemanticAnswerCache` as ``cache`` and every
  submit first looks up the query's structure at the backend's current
  ``dataset_version()``; an exact hit replays a clone of the cached
  report and skips admission, queueing and execution entirely (the
  response carries ``extra["cache"] = "exact"``). Batch leaders
  back-fill the cache, keyed on the epoch their answer was actually
  computed at, so ingest invalidates by construction.
* **Session pooling** — the per-preference
  :class:`~repro.core.session.QuerySession` survives between batches in
  a bounded LRU :class:`~repro.service.pool.SessionPool`, so a hot
  preference keeps its preference-bound index and score caches.
* **Metrics** — throughput, latency percentiles, pool hit rate and
  rejection counts accumulate in a
  :class:`~repro.service.metrics.MetricsCollector`.

:class:`LockedEngineService` is the contrast class: the naive way to
make the engine multi-client is one global lock around it. It shares the
service's request/response/metrics surface so benchmarks can swap the
two — `benchmarks/test_service_throughput.py` measures the gap.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Hashable

from repro.cache import InFlight, InFlightRegistry
from repro.core.batch import clone_result
from repro.obs import add_span, current_context, log_event, trace_span
from repro.service.metrics import MetricsCollector
from repro.service.pool import SessionPool
from repro.service.request import (
    QueryRejected,
    QueryRequest,
    QueryResponse,
    RejectionReason,
)

__all__ = ["DurableTopKService", "LockedEngineService", "shed_low_priority"]


def shed_low_priority(request: QueryRequest, monitor) -> RejectionReason | None:
    """Default degradation policy: drop below-normal work during fast burn.

    Consults only the *fast* burn window — degradation must react within
    seconds to be worth anything, and shedding a ``priority < 0`` request
    is cheap and reversible, so it does not wait for the slow window's
    confirmation the way paging would. Normal- and high-priority work is
    never shed; it still competes for the queue as usual.
    """
    if request.priority < 0 and monitor.fast_burning():
        return RejectionReason.SHED
    return None


@dataclass
class _Pending:
    """One queued request with its future and enqueue timestamp.

    ``flight`` is the cross-batch single-flight entry this request
    leads, if any: later identical submits join it instead of queueing,
    and whoever resolves this request also settles the flight.
    """

    request: QueryRequest
    future: "Future[QueryResponse]"
    enqueued: float
    flight: InFlight | None = None


class DurableTopKService:
    """Session-pooled, batching, admission-controlled query service.

    Parameters
    ----------
    backend:
        An execution backend (see :mod:`repro.service.backends`).
    workers:
        Worker threads executing batches.
    max_queue:
        Admission bound on queued (not yet picked up) requests.
    max_batch:
        Maximum same-preference requests served per session checkout.
    pool_capacity:
        Idle sessions retained (see :class:`SessionPool`).
    default_timeout:
        Queue-wait deadline applied to requests that carry none.
    max_concurrent_builds:
        Cold-session constructions allowed at once. A cold checkout
        builds a preference-bound index — tens of milliseconds of
        GIL-holding, cache-hungry work. Letting every worker build
        simultaneously convoys them (measured ~50x slowdown per build at
        8 workers on one core: the classic thundering-herd), so builds
        are single-flighted by default while warm batches keep flowing.
    degradation:
        Admission-time load-shedding policy, consulted only when the
        collector carries an :class:`~repro.obs.slo.SLOMonitor`
        (``metrics.slos``). Called as ``degradation(request, monitor)``;
        a returned :class:`RejectionReason` rejects the request before
        it takes a queue slot — the point is to shed *chosen* work
        (lowest priority first) while the SLO fast window burns, instead
        of letting the queue fill and QUEUE_FULL shed arbitrary work.
        Defaults to :func:`shed_low_priority`; pass ``None`` to disable.
    cache:
        Optional :class:`~repro.cache.SemanticAnswerCache`. Submits
        check it before admission (an exact hit answers without a queue
        slot, session or execution) and batch leaders back-fill it; its
        stats ride along in ``metrics.snapshot().extra["cache"]``.
        Cross-batch single-flighting is always on — it needs no memory
        budget and can never serve stale data (a joined flight executes
        in the future, not the past).
    """

    def __init__(
        self,
        backend,
        workers: int = 4,
        max_queue: int = 1024,
        max_batch: int = 16,
        pool_capacity: int = 128,
        default_timeout: float | None = None,
        metrics: MetricsCollector | None = None,
        max_concurrent_builds: int = 1,
        degradation=shed_low_priority,
        cache=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_concurrent_builds < 1:
            raise ValueError(
                f"max_concurrent_builds must be >= 1, got {max_concurrent_builds}"
            )
        self.backend = backend
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.default_timeout = default_timeout
        self.degradation = degradation
        self.cache = cache
        self.inflight = InFlightRegistry()
        # The epoch lookups and fills key on; backends without a version
        # surface degrade to one constant epoch (static data).
        self._version_of = getattr(backend, "dataset_version", None) or (lambda: 0)
        self.pool = SessionPool(pool_capacity)
        self.metrics = metrics if metrics is not None else MetricsCollector()
        # Backends that own lifecycle counters (the sharded backend's
        # worker restarts/revivals) publish them into the snapshot here.
        source = getattr(backend, "metrics_source", None)
        if source is not None:
            self.metrics.add_source(source)
        if cache is not None:
            self.metrics.add_source(lambda: {"cache": cache.stats()})
        self._build_gate = threading.Semaphore(max_concurrent_builds)

        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._pending: dict[Hashable, deque[_Pending]] = {}
        self._ready: deque[Hashable] = deque()  # keys with work, not in flight
        self._active: set[Hashable] = set()  # keys currently being served
        self._queued = 0
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"durable-topk-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(self, request: QueryRequest) -> "Future[QueryResponse]":
        """Enqueue a request; returns a future resolving to a response.

        The cheap reuse tiers run before admission: an exact answer-cache
        hit resolves the future right here (no queue slot, no session,
        no execution; ``extra["cache"] = "exact"``), and a request
        identical to one already queued or executing joins that
        request's flight and is resolved when the flight settles
        (``extra["cache"] = "inflight"``). Only a genuine miss pays
        admission control: a full queue (or a closed service) resolves
        the future immediately with a typed rejection, and under SLO
        fast burn the degradation policy may shed the request before it
        takes a queue slot.
        """
        self.metrics.record_submit()
        future: "Future[QueryResponse]" = Future()
        key = request.key
        if self.cache is not None:
            start = time.perf_counter()
            cached = self.cache.get(request, self._version_of())
            if cached is not None:
                elapsed = time.perf_counter() - start
                response = QueryResponse(
                    request=request,
                    result=cached,
                    service_seconds=elapsed,
                    total_seconds=elapsed,
                    batch_size=0,
                    extra={"cache": "exact"},
                )
                self.metrics.record_response(response)
                future.set_result(response)
                return future
        flight_key = (key, self._flight_signature(request))
        if self.inflight.join(
            flight_key, _Pending(request, future, time.perf_counter())
        ):
            return future
        monitor = self.metrics.slos
        if monitor is not None and self.degradation is not None:
            reason = self.degradation(request, monitor)
            if reason is not None:
                return self._reject(request, future, reason)
        with self._lock:
            if self._closed:
                return self._reject(request, future, RejectionReason.SHUTDOWN)
            if self._queued >= self.max_queue:
                return self._reject(request, future, RejectionReason.QUEUE_FULL)
            self._queued += 1
            bucket = self._pending.get(key)
            if bucket is None:
                bucket = deque()
                self._pending[key] = bucket
            pending = _Pending(request, future, time.perf_counter())
            # Now that the request holds a queue slot it becomes the
            # leader for its structure; identical submits from here on
            # ride its execution instead of queueing.
            pending.flight = self.inflight.open(flight_key)
            bucket.append(pending)
            if key not in self._active and len(bucket) == 1:
                self._ready.append(key)
                self._work_ready.notify()
        return future

    def query(self, request: QueryRequest) -> QueryResponse:
        """Blocking convenience: submit and wait for the response."""
        return self.submit(request).result()

    def close(self, timeout: float | None = None) -> None:
        """Stop accepting work, drain in-flight batches, reject the rest.

        Idempotent. Requests still queued when the workers exit resolve
        with a ``SHUTDOWN`` rejection rather than hanging their futures.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._work_ready.notify_all()
        for thread in self._workers:
            thread.join(timeout=timeout)
        with self._lock:
            leftovers = [item for bucket in self._pending.values() for item in bucket]
            self._pending.clear()
            self._ready.clear()
            self._queued = 0
        for item in leftovers:
            self._reject(item.request, item.future, RejectionReason.SHUTDOWN)
        # Flights whose leaders were never picked up (or joined after the
        # leader resolved during shutdown) must not hang their followers.
        for _, followers in self.inflight.drain():
            for follower in followers:
                self._reject(
                    follower.request, follower.future, RejectionReason.SHUTDOWN
                )
        self.pool.close()
        self.backend.close()

    def __enter__(self) -> "DurableTopKService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reject(
        self,
        request: QueryRequest,
        future: "Future[QueryResponse]",
        reason: RejectionReason,
    ) -> "Future[QueryResponse]":
        self.metrics.record_rejection(reason)
        # Joinable against traces: inside a span (timeouts resolved while
        # the batch span is open) the line carries that trace id; at
        # submit time no trace exists yet, which null states honestly.
        context = current_context()
        log_event(
            "service.reject",
            reason=reason.value,
            trace_id=context[0] if context else None,
            algorithm=request.algorithm,
            k=request.k,
            priority=request.priority,
        )
        error = QueryRejected(reason, f"request rejected: {reason.value}")
        future.set_result(QueryResponse(request=request, error=error))
        return future

    def _take_batch(self) -> tuple[Hashable, list[_Pending]] | None:
        """Block until a batch is available; ``None`` means shut down."""
        with self._lock:
            while not self._ready and not self._closed:
                self._work_ready.wait()
            if not self._ready:
                return None  # closed and drained
            key = self._ready.popleft()
            self._active.add(key)
            bucket = self._pending[key]
            batch = []
            while bucket and len(batch) < self.max_batch:
                batch.append(bucket.popleft())
            if not bucket:
                del self._pending[key]
            self._queued -= len(batch)
            return key, batch

    def _finish_key(self, key: Hashable) -> None:
        """Mark a key idle again, rescheduling it if work arrived meanwhile."""
        with self._lock:
            self._active.discard(key)
            if key in self._pending:
                self._ready.append(key)
                self._work_ready.notify()

    def _worker_loop(self) -> None:
        while True:
            taken = self._take_batch()
            if taken is None:
                return
            key, batch = taken
            try:
                self._serve_batch(key, batch)
            finally:
                self._finish_key(key)

    def _make_session(self, scorer):
        """Build a cold session, throttled by the build gate."""
        with self._build_gate:
            return self.backend.make_session(scorer)

    def _serve_batch(self, key: Hashable, batch: list[_Pending]) -> None:
        scorer = batch[0].request.scorer
        try:
            session, pool_hit = self.pool.checkout(
                key, lambda: self._make_session(scorer)
            )
        except BaseException as exc:
            # A session that cannot be built (e.g. a scorer whose
            # dimensionality doesn't match the dataset) fails this batch's
            # futures — never the worker thread, which must keep serving.
            done = time.perf_counter()
            for item in batch:
                item.future.set_exception(exc)
                self._settle_flight(item, exc, batch_size=len(batch), done=done)
            return
        self.metrics.record_batch(pool_hit)
        try:
            self._execute_batch(batch, session, pool_hit)
        finally:
            self.pool.checkin(key, session)

    @staticmethod
    def _flight_signature(request: QueryRequest) -> tuple:
        """What makes two same-preference requests the *same* query."""
        return (
            request.k,
            request.tau,
            request.interval,
            request.direction,
            request.algorithm,
        )

    def _settle_flight(
        self,
        item: _Pending,
        outcome,
        *,
        batch_size: int,
        done: float,
        pool_hit: bool = False,
    ) -> None:
        """Resolve everyone who joined ``item``'s flight from its outcome.

        Followers inherit the leader's fate — a clone of its answer, its
        timeout/shutdown rejection, or its exception — exactly as if
        they had landed in the leader's batch. A follower whose own
        deadline passed still gets the answer: it exists, and serving it
        is strictly better than manufacturing a timeout.
        """
        if item.flight is None:
            return
        followers = self.inflight.settle(item.flight)
        item.flight = None
        if not followers:
            return
        self.metrics.record_coalesced(len(followers), mode="inflight")
        for follower in followers:
            waited = max(0.0, done - follower.enqueued)
            if isinstance(outcome, QueryRejected):
                self.metrics.record_rejection(outcome.reason)
                follower.future.set_result(
                    QueryResponse(
                        request=follower.request,
                        error=outcome,
                        wait_seconds=waited,
                        total_seconds=waited,
                        batch_size=batch_size,
                        pool_hit=pool_hit,
                        extra={"cache": "inflight"},
                    )
                )
            elif isinstance(outcome, BaseException):
                follower.future.set_exception(outcome)
            else:
                response = QueryResponse(
                    request=follower.request,
                    result=clone_result(outcome, query=follower.request.as_query()),
                    wait_seconds=waited,
                    total_seconds=waited,
                    batch_size=batch_size,
                    pool_hit=pool_hit,
                    extra={"cache": "inflight"},
                )
                self.metrics.record_response(response)
                follower.future.set_result(response)

    def _execute_batch(
        self, batch: list[_Pending], session, pool_hit: bool
    ) -> None:
        """Serve one same-preference batch through ``backend.execute_batch``.

        The batch trace span opens *before* timeout filtering, so a
        request rejected for queue-wait timeout resolves inside the span
        and its ``service.reject`` log line carries this batch's trace
        id. Survivors are single-flighted (identical queries execute
        once, every waiter gets a copy of the one answer) and handed to
        the backend as a whole batch, so one index traversal serves all
        of them.
        """
        batch_size = len(batch)
        # The batch trace roots at the earliest enqueue, so trace
        # duration equals end-to-end latency (queue wait included) and
        # the slowest-N buffer keeps the worst-latency batches.
        first_enqueued = min(item.enqueued for item in batch)
        with trace_span(
            "service.batch",
            _start=first_enqueued,
            batch_size=batch_size,
            pool_hit=pool_hit,
        ) as span:
            now = time.perf_counter()
            live: list[tuple[_Pending, float]] = []
            for item in batch:
                wait = now - item.enqueued
                timeout = (
                    item.request.timeout
                    if item.request.timeout is not None
                    else self.default_timeout
                )
                if timeout is not None and wait > timeout:
                    self.metrics.record_rejection(RejectionReason.TIMEOUT)
                    context = current_context()
                    log_event(
                        "service.reject",
                        reason=RejectionReason.TIMEOUT.value,
                        trace_id=context[0] if context else None,
                        algorithm=item.request.algorithm,
                        k=item.request.k,
                        priority=item.request.priority,
                        wait_ms=round(wait * 1e3, 3),
                    )
                    error = QueryRejected(
                        RejectionReason.TIMEOUT,
                        f"queued {wait * 1e3:.1f} ms > timeout {timeout * 1e3:.1f} ms",
                    )
                    item.future.set_result(
                        QueryResponse(
                            request=item.request,
                            error=error,
                            wait_seconds=wait,
                            total_seconds=wait,
                            batch_size=batch_size,
                            pool_hit=pool_hit,
                        )
                    )
                    self._settle_flight(
                        item, error, batch_size=batch_size, done=now, pool_hit=pool_hit
                    )
                    continue
                live.append((item, wait))
            if not live:
                span.set(timed_out=batch_size, leaders=0, coalesced=0)
                return
            if len(live) < batch_size:
                span.set(timed_out=batch_size - len(live))
            add_span(
                "service.queue_wait",
                start=first_enqueued,
                duration=now - first_enqueued,
                wait_min=round(min(wait for _, wait in live), 6),
                wait_max=round(max(wait for _, wait in live), 6),
            )
            # Single-flight: identical in-flight queries collapse onto one
            # execution slot; `source[i]` maps live item i to its leader.
            flight_of: dict[tuple, int] = {}
            leaders: list[_Pending] = []
            source: list[int] = []
            for item, _ in live:
                signature = self._flight_signature(item.request)
                slot = flight_of.get(signature)
                if slot is None:
                    slot = len(leaders)
                    flight_of[signature] = slot
                    leaders.append(item)
                source.append(slot)
            coalesced = len(live) - len(leaders)
            if coalesced:
                self.metrics.record_coalesced(coalesced, mode="batch")
            span.set(leaders=len(leaders), coalesced=coalesced)

            try:
                results: list = self.backend.execute_batch(
                    session, [leader.request for leader in leaders]
                )
            except BaseException:
                # The batched path failed as a whole; fall back to per-leader
                # batches of one so a single bad request (e.g. a direction
                # the backend rejects) fails only its own group's futures.
                results = []
                for leader in leaders:
                    try:
                        results.append(
                            self.backend.execute_batch(session, [leader.request])[0]
                        )
                    except BaseException as exc:
                        results.append(exc)

            done = time.perf_counter()
            for (item, wait), slot in zip(live, source):
                outcome = results[slot]
                if isinstance(outcome, BaseException):
                    item.future.set_exception(outcome)
                    self._settle_flight(
                        item, outcome,
                        batch_size=batch_size, done=done, pool_hit=pool_hit,
                    )
                    continue
                if self.cache is not None and item is leaders[slot]:
                    # Fill at the epoch the answer was computed at (the
                    # live snapshot stamp when present): under ingest
                    # that epoch may already trail the current one, and
                    # such a fill can never be served — exactly right.
                    version = outcome.extra.get("snapshot_version")
                    if version is None:
                        version = self._version_of()
                    self.cache.put(item.request, version, outcome)
                result = outcome if item is leaders[slot] else clone_result(outcome)
                response = QueryResponse(
                    request=item.request,
                    result=result,
                    wait_seconds=wait,
                    service_seconds=done - now,
                    total_seconds=done - item.enqueued,
                    batch_size=batch_size,
                    pool_hit=pool_hit,
                )
                self.metrics.record_response(response)
                item.future.set_result(response)
                self._settle_flight(
                    item, outcome, batch_size=batch_size, done=done, pool_hit=pool_hit
                )


class LockedEngineService:
    """The naive multi-client layer: one global lock around the engine.

    Every request — including any index (re)build the engine's LRU has
    evicted — runs under the lock, so clients serialise end to end. This
    is the baseline the session-pooled service is measured against; it
    deliberately has no queue, no batching and no pooling beyond the
    engine's own ``PREFERENCE_CACHE_SIZE``-entry index LRU.
    """

    def __init__(self, engine, metrics: MetricsCollector | None = None) -> None:
        self.engine = engine
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self._lock = threading.Lock()

    def query(self, request: QueryRequest) -> QueryResponse:
        self.metrics.record_submit()
        start = time.perf_counter()
        with self._lock:
            acquired = time.perf_counter()
            result = self.engine.query(
                request.as_query(), request.scorer, algorithm=request.algorithm
            )
        done = time.perf_counter()
        response = QueryResponse(
            request=request,
            result=result,
            wait_seconds=acquired - start,
            service_seconds=done - acquired,
            total_seconds=done - start,
        )
        self.metrics.record_response(response)
        return response

    def close(self) -> None:
        """Nothing to release (no workers, no pool)."""

    def __enter__(self) -> "LockedEngineService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
