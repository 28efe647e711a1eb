"""Tests for the concurrent serving layer (`repro.service`).

The headline test is concurrency equivalence: N client threads hammering
mixed preferences through the service must produce results byte-identical
to serial execution — ids *and* statistics, including the MiniDB page
accounting (possible because session cache hits replay their page reads
and the procedures scope upper-bound caches per invocation).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.engine import DurableTopKEngine, durable_topk
from repro.core.query import Direction
from repro.core.session import QuerySession
from repro.minidb import MiniDB, t_base_procedure, t_hop_procedure
from repro.scoring import LinearPreference
from repro.service import (
    DurableTopKService,
    EngineBackend,
    MetricsCollector,
    MiniDBBackend,
    QueryRequest,
    RejectionReason,
    SessionPool,
    WorkloadGenerator,
    WorkloadSpec,
    percentile,
    preference_key,
    run_pipelined,
    zipfian_probabilities,
)


def query_concurrently(query, requests, clients: int) -> list:
    """Answer ``requests`` from ``clients`` threads, each one-at-a-time.

    Every thread takes the next unanswered request and blocks on
    ``query`` before taking another, so up to ``clients`` submits
    overlap. Responses come back in request order; the first exception
    a thread hits is re-raised here.
    """
    responses: list = [None] * len(requests)
    errors: list[BaseException] = []
    lock = threading.Lock()
    indices = iter(range(len(requests)))

    def client() -> None:
        while not errors:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            try:
                responses[i] = query(requests[i])
            except BaseException as exc:
                errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return responses


# ----------------------------------------------------------------------
# Concurrency equivalence
# ----------------------------------------------------------------------
class TestConcurrencyEquivalence:
    def test_engine_backend_matches_serial(self, small_ind):
        """Concurrent mixed-preference traffic == serial durable_topk."""
        spec = WorkloadSpec(
            n_preferences=10,
            d=small_ind.d,
            k_choices=(3, 5, 10),
            tau_fractions=(0.05, 0.15),
            interval_fractions=(0.3, 0.8),
            algorithms=("t-hop", "s-hop", "t-base"),
            future_fraction=0.25,
            seed=11,
        )
        stream = WorkloadGenerator(spec, small_ind.n).requests(80)
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)), workers=6, pool_capacity=10
        ) as service:
            responses = query_concurrently(service.query, stream, clients=8)
            # A pool sized to the catalogue builds each preference once.
            assert service.pool.stats()["misses"] <= spec.n_preferences
        for request, response in zip(stream, responses):
            assert response.ok
            expected = durable_topk(
                small_ind,
                request.scorer,
                request.k,
                request.tau,
                interval=request.interval,
                direction=request.direction,
                algorithm=request.algorithm,
            )
            assert response.result.ids == expected.ids
            assert response.result.stats.as_dict() == expected.stats.as_dict()

    def test_minidb_backend_matches_serial_including_pages(self, small_ind):
        """MiniDB responses carry serial page counts, even served warm."""
        spec = WorkloadSpec(
            n_preferences=6,
            d=small_ind.d,
            k_choices=(3, 5),
            tau_fractions=(0.05, 0.15),
            interval_fractions=(0.3, 0.6),
            algorithms=("t-hop", "t-base"),
            seed=13,
        )
        stream = WorkloadGenerator(spec, small_ind.n).requests(48)
        procedures = {"t-hop": t_hop_procedure, "t-base": t_base_procedure}
        with MiniDB(small_ind, buffer_pages=16, block_rows=64) as db:
            with DurableTopKService(
                MiniDBBackend(db), workers=4, pool_capacity=6
            ) as service:
                responses = query_concurrently(service.query, stream, clients=6)
                assert service.metrics.snapshot().pool_hit_rate > 0.5
            for request, response in zip(stream, responses):
                assert response.ok
                lo, hi = request.interval
                expected = procedures[request.algorithm](
                    db, request.scorer.u, request.k, request.tau, lo, hi, cold=True
                )
                assert response.result.ids == expected.ids
                assert response.result.extra["topk_queries"] == expected.topk_queries
                assert response.result.extra["logical_reads"] == expected.logical_reads
                assert (
                    response.result.extra["physical_reads"] == expected.physical_reads
                )
                assert response.result.stats.pages_read == expected.logical_reads

    def test_pipelined_driver_equivalent_too(self, small_ind):
        """Deep queues + batching change nothing about the answers."""
        spec = WorkloadSpec(
            n_preferences=4, d=small_ind.d, algorithms=("t-hop",), seed=17
        )
        stream = WorkloadGenerator(spec, small_ind.n).requests(60)
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)),
            workers=3,
            max_batch=8,
            pool_capacity=4,
        ) as service:
            responses = run_pipelined(service.submit, stream, clients=5)
            assert service.metrics.snapshot().mean_batch_size > 1.0
            assert service.pool.stats()["misses"] <= spec.n_preferences
        batched = [r for r in responses if r.batch_size > 1]
        assert batched, "pipelined driving should produce at least one real batch"
        for request, response in zip(stream, responses):
            assert response.ok
            expected = durable_topk(
                small_ind,
                request.scorer,
                request.k,
                request.tau,
                interval=request.interval,
                algorithm=request.algorithm,
            )
            assert response.result.ids == expected.ids

    def test_concurrent_first_touch_builds_once(self, small_ind):
        """Hammering one cold preference from many threads builds one index."""
        engine = DurableTopKEngine(small_ind)
        builds = 0
        build_lock = threading.Lock()

        import repro.core.engine as engine_module

        real_build = engine_module.build_topk_index

        def counting_build(*args, **kwargs):
            nonlocal builds
            with build_lock:
                builds += 1
            return real_build(*args, **kwargs)

        engine_module.build_topk_index = counting_build
        try:
            scorer = LinearPreference([0.5, 0.5])
            barrier = threading.Barrier(6)
            results = []

            def hammer():
                barrier.wait()
                results.append(engine._bound_index(scorer))

            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            engine_module.build_topk_index = real_build
        assert builds == 1
        assert all(r is results[0] for r in results)


# ----------------------------------------------------------------------
# Admission control and lifecycle
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def _request(self, scorer, **kw):
        return QueryRequest(scorer=scorer, k=3, tau=20, algorithm="t-hop", **kw)

    def test_queue_full_rejection(self, small_ind, linear_2d):
        backend = EngineBackend(DurableTopKEngine(small_ind))
        service = DurableTopKService(backend, workers=1, max_queue=2)
        # Stall the single worker with a slow batch so the queue backs up.
        gate = threading.Event()
        original_execute_batch = backend.execute_batch

        def slow_execute_batch(session, requests):
            gate.wait(timeout=10)
            return original_execute_batch(session, requests)

        backend.execute_batch = slow_execute_batch
        try:
            # Structurally distinct requests (tau varies): identical ones
            # would ride the first one's flight via cross-batch
            # single-flight instead of occupying queue slots.
            futures = [
                QueryRequest(scorer=linear_2d, k=3, tau=20 + i, algorithm="t-hop")
                for i in range(8)
            ]
            futures = [service.submit(r) for r in futures]
            gate.set()
            responses = [f.result() for f in futures]
        finally:
            service.close()
        rejected = [r for r in responses if not r.ok]
        served = [r for r in responses if r.ok]
        assert rejected, "overflowing a 2-slot queue must reject"
        assert all(
            r.error.reason is RejectionReason.QUEUE_FULL for r in rejected
        )
        assert served, "admitted requests must still be answered"
        snap = service.metrics.snapshot()
        assert snap.completed == len(served), "rejections must not count as completed"
        assert snap.rejected_total == len(rejected)

    def test_timeout_rejection(self, small_ind, linear_2d):
        backend = EngineBackend(DurableTopKEngine(small_ind))
        service = DurableTopKService(backend, workers=1)
        gate = threading.Event()
        original_execute_batch = backend.execute_batch

        def slow_execute_batch(session, requests):
            gate.wait(timeout=10)
            return original_execute_batch(session, requests)

        backend.execute_batch = slow_execute_batch
        try:
            blocker = service.submit(self._request(linear_2d))
            time.sleep(0.05)  # the worker takes the blocker's batch and stalls
            # A different structure (tau) so it queues behind the blocker
            # instead of joining its flight (a flight follower would be
            # served from the leader's answer, never timeout-rejected).
            expired = service.submit(
                QueryRequest(
                    scorer=linear_2d, k=3, tau=21, algorithm="t-hop", timeout=0.01
                )
            )
            time.sleep(0.05)
            gate.set()
            assert blocker.result().ok
            response = expired.result()
        finally:
            service.close()
        assert not response.ok
        assert response.error.reason is RejectionReason.TIMEOUT

    def test_single_flight_coalesces_identical_queries(self, small_ind, linear_2d):
        """Identical in-flight queries execute once; every waiter answers.

        A blocker stalls the lone worker, and six requests identical to
        it join its open flight; single-flight must hand all six the one
        answer (as independent result objects) while the backend sees
        exactly one query per execute_batch call."""
        backend = EngineBackend(DurableTopKEngine(small_ind))
        service = DurableTopKService(backend, workers=1, max_batch=16)
        gate = threading.Event()
        executed: list[int] = []
        original_execute_batch = backend.execute_batch

        def gated_execute_batch(session, requests):
            gate.wait(timeout=10)
            executed.append(len(requests))
            return original_execute_batch(session, requests)

        backend.execute_batch = gated_execute_batch
        try:
            blocker = service.submit(self._request(linear_2d))
            time.sleep(0.05)  # let the worker take the blocker's batch
            twins = [service.submit(self._request(linear_2d)) for _ in range(6)]
            gate.set()
            responses = [f.result(timeout=10) for f in twins]
            assert blocker.result(timeout=10).ok
        finally:
            service.close()
        assert all(r.ok for r in responses)
        first = responses[0].result
        for response in responses[1:]:
            assert response.result.ids == first.ids
            assert response.result.stats.as_dict() == first.stats.as_dict()
            assert response.result is not first  # an independent copy
        # Every backend call saw exactly one unique query...
        assert executed and all(count == 1 for count in executed)
        # ...and at least the five trailing twins rode the leader's answer.
        assert service.metrics.snapshot().coalesced >= 5

    def test_failed_batch_falls_back_to_batches_of_one(self, small_ind, linear_2d):
        """One bad request fails only itself, not its batch.

        A blocker stalls the lone worker so several look-back requests
        and one look-ahead request (which the MiniDB procedures reject)
        land in one same-preference pickup. The batched call fails as a
        whole; the fallback then runs each request as a batch
        of one. Only the look-ahead future fails, and every other answer
        equals the same request served alone: ids, stats and pages."""
        past = [
            QueryRequest(scorer=linear_2d, k=k, tau=tau, interval=(100, 500), algorithm=algo)
            for k, tau, algo in [(3, 20, "t-hop"), (5, 40, "t-base"), (2, 60, "t-hop")]
        ]
        ahead = QueryRequest(
            scorer=linear_2d, k=3, tau=20, interval=(100, 500), direction=Direction.FUTURE
        )
        with MiniDB(small_ind, buffer_pages=16, block_rows=64) as db:
            with DurableTopKService(MiniDBBackend(db), workers=1) as alone:
                expected = [alone.query(request).result for request in past]

            backend = MiniDBBackend(db)
            gate = threading.Event()
            calls: list[int] = []
            original_execute_batch = backend.execute_batch

            def gated_execute_batch(session, requests):
                gate.wait(timeout=10)
                calls.append(len(requests))
                return original_execute_batch(session, requests)

            backend.execute_batch = gated_execute_batch
            with DurableTopKService(backend, workers=1) as service:
                blocker = service.submit(self._request(linear_2d))
                time.sleep(0.05)  # the worker takes the blocker's batch and stalls
                futures = [service.submit(request) for request in past]
                failing = service.submit(ahead)
                gate.set()
                assert blocker.result(timeout=10).ok
                responses = [future.result(timeout=10) for future in futures]
                with pytest.raises(ValueError, match="look-back queries only"):
                    failing.result(timeout=10)
        # The blocker, the failed batch of four, then four batches of one.
        assert calls == [1, 4, 1, 1, 1, 1]
        for response, alone in zip(responses, expected):
            assert response.ok and response.batch_size == 4
            assert response.result.ids == alone.ids
            assert response.result.stats.as_dict() == alone.stats.as_dict()
            for pages in ("logical_reads", "physical_reads", "topk_queries"):
                assert response.result.extra[pages] == alone.extra[pages]

    def test_unbuildable_session_fails_futures_not_workers(self, small_ind, linear_2d):
        """A scorer the backend cannot open a session for (wrong d) must
        surface on the request's future — and the worker must survive to
        serve the next request (regression: the factory exception used to
        kill the worker thread and hang the future forever)."""
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)), workers=1
        ) as service:
            bad = service.submit(
                QueryRequest(scorer=LinearPreference([1.0]), k=3, tau=10)
            )
            with pytest.raises(ValueError, match="weights but data"):
                bad.result(timeout=10)
            good = service.query(self._request(linear_2d))
            assert good.ok

    @staticmethod
    def _held_backend(dataset):
        """An engine backend whose executions wait for ``gate``;
        ``executing`` is set once a worker is inside one."""
        backend = EngineBackend(DurableTopKEngine(dataset))
        gate, executing = threading.Event(), threading.Event()
        original_execute_batch = backend.execute_batch

        def held_execute_batch(session, requests):
            executing.set()
            gate.wait(timeout=10)
            return original_execute_batch(session, requests)

        backend.execute_batch = held_execute_batch
        return backend, gate, executing

    def test_cancelled_leader_keeps_the_worker_and_answers_its_follower(
        self, small_ind, linear_2d
    ):
        """Regression: ``Future.cancel()`` succeeds on a queued request,
        and resolving that future afterwards raised ``InvalidStateError``
        in the worker, which killed it. The lone worker must survive to
        answer later requests, and a follower that joined the cancelled
        request's flight must still get its answer."""
        backend, gate, executing = self._held_backend(small_ind)
        service = DurableTopKService(backend, workers=1)
        try:
            blocker = service.submit(self._request(linear_2d))
            assert executing.wait(timeout=10)  # the lone worker is held
            request = QueryRequest(scorer=linear_2d, k=3, tau=21, algorithm="t-hop")
            leader = service.submit(request)
            follower = service.submit(request)  # joins the queued leader's flight
            assert leader.cancel()
            gate.set()
            assert blocker.result(timeout=10).ok
            joined = follower.result(timeout=10)
            later = service.query(
                QueryRequest(scorer=linear_2d, k=3, tau=22, algorithm="t-hop")
            )
        finally:
            gate.set()
            service.close(timeout=10)
        assert leader.cancelled()
        assert joined.ok and joined.extra["cache"] == "inflight"
        alone = durable_topk(small_ind, linear_2d, k=3, tau=21, algorithm="t-hop")
        assert joined.result.ids == alone.ids
        assert later.ok
        assert all(not thread.is_alive() for thread in service._workers)

    def test_close_skips_a_cancelled_queued_request(self, small_ind, linear_2d):
        """``close()`` rejects what is still queued; a request whose caller
        cancelled it is skipped instead of raising out of ``close()``."""
        backend, gate, executing = self._held_backend(small_ind)
        service = DurableTopKService(backend, workers=1)
        try:
            blocker = service.submit(self._request(linear_2d))
            assert executing.wait(timeout=10)
            cancelled = service.submit(
                QueryRequest(scorer=linear_2d, k=3, tau=21, algorithm="t-hop")
            )
            leftover = service.submit(
                QueryRequest(scorer=linear_2d, k=3, tau=22, algorithm="t-hop")
            )
            assert cancelled.cancel()
            service.close(timeout=0.05)  # the worker is held: both stay queued
        finally:
            gate.set()
            for thread in service._workers:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in service._workers)
        assert cancelled.cancelled()
        assert leftover.result(timeout=10).error.reason is RejectionReason.SHUTDOWN
        assert blocker.result(timeout=10).ok

    def test_shutdown_rejects_new_submits(self, small_ind, linear_2d):
        service = DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)), workers=1
        )
        service.close()
        response = service.submit(self._request(linear_2d)).result()
        assert response.error.reason is RejectionReason.SHUTDOWN
        metrics = service.metrics.snapshot()
        assert metrics.rejected[RejectionReason.SHUTDOWN.value] == 1

    def test_close_is_idempotent_and_drains(self, small_ind, linear_2d):
        service = DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)), workers=2
        )
        futures = [service.submit(self._request(linear_2d)) for _ in range(10)]
        service.close()
        service.close()
        assert all(f.result().ok for f in futures)


# ----------------------------------------------------------------------
# Session pool
# ----------------------------------------------------------------------
class TestSessionPool:
    def test_hit_miss_and_eviction_closes(self):
        pool = SessionPool(capacity=2)
        made = []

        def factory():
            made.append(QuerySession(np.array([1.0])))
            return made[-1]

        s1, hit = pool.checkout("a", factory)
        assert not hit
        pool.checkin("a", s1)
        s1_again, hit = pool.checkout("a", factory)
        assert hit and s1_again is s1
        pool.checkin("a", s1_again)
        for key in ("b", "c"):  # overflow capacity 2 -> evict LRU ("a")
            s, _ = pool.checkout(key, factory)
            pool.checkin(key, s)
        assert s1.closed
        assert pool.evictions == 1
        assert len(pool) == 2
        assert 0 < pool.hit_rate < 1

    def test_close_closes_idle_sessions(self):
        pool = SessionPool(capacity=4)
        session = QuerySession()
        pool.checkin("k", session)
        pool.close()
        assert session.closed
        with pytest.raises(RuntimeError):
            pool.checkout("k", QuerySession)


# ----------------------------------------------------------------------
# Sessions as context managers (satellite)
# ----------------------------------------------------------------------
class TestSessionContextManagers:
    def test_engine_session_context_manager(self, small_ind, linear_2d):
        engine = DurableTopKEngine(small_ind)
        with engine.session(linear_2d) as session:
            result = session.query(
                QueryRequest(scorer=linear_2d, k=3, tau=10).as_query(),
                algorithm="t-hop",
            )
            assert result.ids
        assert session.closed
        with pytest.raises(RuntimeError):
            session.query(
                QueryRequest(scorer=linear_2d, k=3, tau=10).as_query(),
                algorithm="t-hop",
            )
        with pytest.raises(RuntimeError):
            session.__enter__()

    def test_minidb_session_context_manager(self, small_ind):
        u = np.array([0.4, 0.6])
        with MiniDB(small_ind) as db:
            with db.session(u) as session:
                ids = db.topk(u, 5, 0, small_ind.n - 1, session=session)
                assert len(ids) == 5
                assert session.points  # caches populated
            assert session.closed and not session.points
            with pytest.raises(RuntimeError):
                t_hop_procedure(db, u, 3, 10, session=session)

    def test_close_is_idempotent(self):
        session = QuerySession(np.array([1.0, 2.0]))
        session.close()
        session.close()
        assert session.closed


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
class TestWorkload:
    def test_zipfian_probabilities(self):
        p = zipfian_probabilities(10, 1.0)
        assert p.shape == (10,)
        assert p[0] > p[-1]
        assert np.isclose(p.sum(), 1.0)
        with pytest.raises(ValueError):
            zipfian_probabilities(0)

    def test_generator_is_deterministic_and_in_bounds(self):
        spec = WorkloadSpec(n_preferences=5, d=3, seed=42)
        a = WorkloadGenerator(spec, 1000).requests(50)
        b = WorkloadGenerator(spec, 1000).requests(50)
        for ra, rb in zip(a, b):
            assert ra.k == rb.k and ra.tau == rb.tau and ra.interval == rb.interval
            assert preference_key(ra.scorer) == preference_key(rb.scorer)
            lo, hi = ra.interval
            assert 0 <= lo <= hi < 1000
            assert ra.k >= 1 and ra.tau >= 1

    def test_generator_reuses_scorer_objects(self):
        gen = WorkloadGenerator(WorkloadSpec(n_preferences=3, seed=1), 500)
        keys = {preference_key(r.scorer) for r in gen.requests(60)}
        assert keys <= {preference_key(s) for s in gen.scorers}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_percentile_matches_numpy(self):
        rng = np.random.default_rng(0)
        samples = list(rng.random(101))
        for q in (50, 95, 99):
            assert percentile(samples, q) == pytest.approx(
                float(np.percentile(samples, q))
            )
        assert percentile([], 95) == 0.0
        assert percentile([3.0], 99) == 3.0

    def test_percentile_small_samples_interpolate(self):
        """p99 of <100 samples must interpolate, not return the max.

        Nearest-rank percentile degrades on small sample sets: any
        q > 100 * (n-1)/n lands on the maximum, so every short smoke
        run would report p99 == worst-case latency. Linear interpolation
        (numpy's default) is the contract."""
        rng = np.random.default_rng(7)
        for size in (5, 20, 50, 99):
            samples = list(rng.random(size) * 100.0)
            for q in (90, 95, 99):
                expected = float(np.percentile(samples, q))
                got = percentile(samples, q)
                assert got == pytest.approx(expected), (size, q)
            assert percentile(samples, 99) < max(samples)
            assert percentile(samples, 0) == min(samples)
            assert percentile(samples, 100) == max(samples)

    def test_percentile_clamps_out_of_range_q(self):
        samples = [1.0, 2.0, 3.0]
        assert percentile(samples, -5) == 1.0
        assert percentile(samples, 250) == 3.0

    def test_snapshot_and_report(self, small_ind, linear_2d):
        metrics = MetricsCollector()
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)), workers=2, metrics=metrics
        ) as service:
            for _ in range(5):
                assert service.query(
                    QueryRequest(scorer=linear_2d, k=3, tau=15, algorithm="t-hop")
                ).ok
            snap = metrics.snapshot()
        assert snap.submitted == snap.completed == 5
        assert snap.rejected_total == 0
        assert snap.throughput > 0
        assert snap.latency_p99 >= snap.latency_p95 >= snap.latency_p50 > 0
        report = snap.report("test")
        assert "p95" in report and "hit rate" in report
        assert snap.as_dict()["latency_ms"]["p95"] >= 0
