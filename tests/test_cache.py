"""Tests for the semantic answer cache (`repro.cache`).

The headline property is the one that makes a cache admissible at all:
a cached service must be *indistinguishable* from an uncached one —
every served answer byte-identical (ids, durations, stats) to a fresh
recompute, at every epoch of a live, randomly interleaved ingest
schedule. Everything else (LRU bounds, admission estimates, tier
counters, single-flight fates) is mechanism in service of that.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.cache import InFlightRegistry, SemanticAnswerCache
from repro.cache.answers import ENTRY_OVERHEAD_BYTES, ID_BYTES
from repro.core.engine import DurableTopKEngine
from repro.core.query import DurableTopKResult
from repro.core.record import Dataset
from repro.data import independent_uniform
from repro.ingest import LiveDataset
from repro.obs import MetricsRegistry
from repro.scoring import LinearPreference
from repro.service import (
    DurableTopKService,
    EngineBackend,
    LiveBackend,
    MetricsCollector,
    QueryRequest,
    SessionPool,
    WorkloadGenerator,
    WorkloadSpec,
    run_pipelined,
)


# ----------------------------------------------------------------------
# SemanticAnswerCache: the exact tier
# ----------------------------------------------------------------------
def _request(k=3, tau=10, interval=(0, 99), algorithm="t-hop", weights=(0.7, 0.3)):
    return QueryRequest(
        scorer=LinearPreference(list(weights)),
        k=k,
        tau=tau,
        interval=interval,
        algorithm=algorithm,
    )


def _result(request, ids):
    return DurableTopKResult(
        ids=list(ids), query=request.as_query(), algorithm=request.algorithm
    )


class TestSemanticAnswerCache:
    def test_hit_is_an_independent_clone(self):
        cache = SemanticAnswerCache(registry=MetricsRegistry())
        request = _request()
        assert cache.get(request, version=0) is None
        assert cache.put(request, 0, _result(request, [1, 2, 3]))
        served = cache.get(request, version=0)
        assert served.ids == [1, 2, 3]
        served.ids.append(99)  # a caller mutating its response...
        assert cache.get(request, version=0).ids == [1, 2, 3]  # ...changes nothing
        assert cache.hits == 2 and cache.misses == 1

    def test_every_structural_field_is_part_of_the_key(self):
        cache = SemanticAnswerCache(registry=MetricsRegistry())
        base = _request()
        cache.put(base, 0, _result(base, [1]))
        variants = [
            (base, 1),  # another epoch
            (_request(k=5), 0),
            (_request(tau=11), 0),
            (_request(interval=(0, 98)), 0),
            (_request(algorithm="t-base"), 0),
            (_request(weights=(0.5, 0.5)), 0),
        ]
        for request, version in variants:
            assert cache.get(request, version) is None
        assert cache.get(base, 0) is not None
        # Preference identity is the weight content, not the object.
        twin = _request()
        assert twin.scorer is not base.scorer
        assert cache.get(twin, 0).ids == [1]

    def test_byte_lru_eviction(self):
        registry = MetricsRegistry()
        # Room for three entries of four ids.
        cache = SemanticAnswerCache(
            capacity_bytes=3 * (ENTRY_OVERHEAD_BYTES + 4 * ID_BYTES),
            max_entry_bytes=10_000,
            registry=registry,
        )
        requests = [_request(tau=10 + i) for i in range(5)]
        for i, request in enumerate(requests):
            cache.put(request, 0, _result(request, range(i + 1)))
        assert cache.evictions > 0
        assert cache.bytes <= cache.capacity_bytes
        assert cache.get(requests[0], 0) is None  # coldest went first
        assert cache.get(requests[-1], 0) is not None
        assert registry.counter("cache.evictions").value == cache.evictions
        assert registry.gauge("cache.bytes").value == cache.bytes

    def test_admission_refuses_oversized_answers(self):
        cache = SemanticAnswerCache(
            capacity_bytes=10_000, max_entry_bytes=2_000, registry=MetricsRegistry()
        )
        # Lemma 4 estimate k|I|/(tau+1): 10 * 10_000 / 2 = 50_000 ids.
        huge = _request(k=10, tau=1, interval=(0, 9_999))
        assert not cache.put(huge, 0, _result(huge, [1]))
        assert cache.admission_rejected == 1
        assert len(cache) == 0
        # The estimate alone decides: a small actual answer is still refused.
        assert cache.estimate_bytes(huge) > cache.max_entry_bytes

    def test_a_newer_fill_drops_every_older_entry(self):
        """Lookups ask for the newest epoch, so older entries are dead:
        the first fill at a newer epoch drops them all, and a fill
        computed at an older epoch than the newest seen is refused."""
        registry = MetricsRegistry()
        cache = SemanticAnswerCache(registry=registry)
        old = [_request(tau=10 + i) for i in range(3)]
        for request in old:
            assert cache.put(request, 4, _result(request, [1, 2]))
        assert len(cache) == 3
        fresh = _request(k=5)
        assert cache.put(fresh, 7, _result(fresh, [3]))
        assert len(cache) == 1
        one_id = ENTRY_OVERHEAD_BYTES + ID_BYTES
        assert cache.bytes == registry.gauge("cache.bytes").value == one_id
        assert not cache.put(old[0], 5, _result(old[0], [1, 2]))
        assert len(cache) == 1 and cache.bytes == one_id
        assert cache.get(old[0], 7) is None
        assert cache.get(fresh, 7).ids == [3]

    def test_charge_tracks_the_memory_entries_hold(self):
        """``cache.bytes`` is within 1.5x of what 2,000 real answers
        measurably hold. The answers are unpickled inside the trace, so
        the cache is the only holder of every object it keeps, as it is
        once a served response is dropped."""
        import gc
        import pickle
        import tracemalloc

        dataset = independent_uniform(6_000, 2, seed=7)
        engine = DurableTopKEngine(dataset)
        spec = WorkloadSpec(
            n_preferences=64,
            d=2,
            k_choices=(5, 10),
            tau_fractions=(0.01, 0.05),
            interval_fractions=(0.02, 0.2),
            algorithms=("t-hop",),
            seed=7,
        )
        generator = WorkloadGenerator(spec, dataset.n)
        pairs, seen = [], set()
        while len(pairs) < 2_000:
            request = generator.request()
            if request.query_key in seen:
                continue
            seen.add(request.query_key)
            del request.__dict__["query_key"]  # recomputed by put, as served
            result = engine.query(request.as_query(), request.scorer, request.algorithm)
            pairs.append((request, result))
        blob = pickle.dumps(pairs)
        del pairs, request, result
        cache = SemanticAnswerCache(registry=MetricsRegistry())
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for request, result in pickle.loads(blob):
                assert cache.put(request, 0, result)
            del request, result
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == 2_000
        assert cache.bytes / 1.5 <= held <= 1.5 * cache.bytes, (held, cache.bytes)

    def test_stats_shape(self):
        cache = SemanticAnswerCache(registry=MetricsRegistry())
        request = _request()
        cache.put(request, 0, _result(request, [4]))
        cache.get(request, 0)
        cache.get(request, 1)
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["fills"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["bytes"] == cache.bytes > 0


# ----------------------------------------------------------------------
# InFlightRegistry: cross-batch single-flight membership
# ----------------------------------------------------------------------
class TestInFlightRegistry:
    def test_open_join_settle(self):
        registry = InFlightRegistry()
        assert not registry.join("key", "early")  # nothing open yet
        flight = registry.open("key")
        assert flight is not None
        assert registry.open("key") is None  # one leader per key
        assert registry.join("key", "a") and registry.join("key", "b")
        assert registry.settle(flight) == ["a", "b"]
        assert len(registry) == 0
        assert not registry.join("key", "late")  # settled flights are gone

    def test_drain_sweeps_everything(self):
        registry = InFlightRegistry()
        f1, f2 = registry.open("x"), registry.open("y")
        registry.join("y", "w")
        drained = dict(
            (flight.key, followers) for flight, followers in registry.drain()
        )
        assert drained == {"x": [], "y": ["w"]}
        assert registry.settle(f1) == [] and registry.settle(f2) == []


# ----------------------------------------------------------------------
# Service integration: exact tier, in-flight tier, metrics
# ----------------------------------------------------------------------
class GatedBackend(EngineBackend):
    """EngineBackend whose executions block until released."""

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self.gate = threading.Event()
        self.executing = threading.Event()

    def execute_batch(self, session, requests):
        self.executing.set()
        self.gate.wait(timeout=10)
        return super().execute_batch(session, requests)


class TestServiceIntegration:
    def test_exact_hit_skips_the_queue(self, small_ind, linear_2d):
        cache = SemanticAnswerCache()
        request = QueryRequest(
            scorer=linear_2d, k=3, tau=30, interval=(0, 400), algorithm="t-hop"
        )
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)), workers=2, cache=cache
        ) as service:
            cold = service.query(request)
            warm = service.query(request)
        assert cold.ok and warm.ok
        assert "cache" not in cold.extra
        assert warm.extra["cache"] == "exact"
        assert warm.batch_size == 0  # never entered a batch
        assert warm.result.ids == cold.result.ids
        assert warm.result.stats.as_dict() == cold.result.stats.as_dict()
        assert warm.result.durations == cold.result.durations
        assert cache.stats()["hits"] == 1

    def test_followers_join_an_open_flight_across_batches(self, small_ind, linear_2d):
        backend = GatedBackend(DurableTopKEngine(small_ind))
        request = QueryRequest(
            scorer=linear_2d, k=3, tau=30, interval=(0, 400), algorithm="t-hop"
        )
        with DurableTopKService(backend, workers=1, max_batch=1) as service:
            leader = service.submit(request)
            assert backend.executing.wait(timeout=10)  # leader is mid-execution
            followers = [service.submit(request) for _ in range(3)]
            backend.gate.set()
            outcomes = [leader.result(timeout=10)] + [
                f.result(timeout=10) for f in followers
            ]
            snapshot = service.metrics.snapshot()
        for response in outcomes:
            assert response.ok
            assert response.result.ids == outcomes[0].result.ids
        assert all(r.extra.get("cache") == "inflight" for r in outcomes[1:])
        assert snapshot.coalesced == 3

    def test_followers_inherit_the_leaders_timeout(self, small_ind, linear_2d):
        """A follower's fate is the leader's: here, a TIMEOUT rejection.

        The leader expires while queued behind a held batch; its joined
        follower (structurally identical, no timeout of its own) must be
        rejected with it rather than hang or silently execute.
        """
        backend = GatedBackend(DurableTopKEngine(small_ind))
        leader_request = QueryRequest(
            scorer=linear_2d,
            k=3,
            tau=30,
            interval=(0, 400),
            algorithm="t-hop",
            timeout=0.05,
        )
        follower_request = QueryRequest(
            scorer=linear_2d, k=3, tau=30, interval=(0, 400), algorithm="t-hop"
        )
        blocker = QueryRequest(
            scorer=linear_2d, k=3, tau=31, interval=(0, 400), algorithm="t-hop"
        )
        with DurableTopKService(backend, workers=1, max_batch=1) as service:
            held = service.submit(blocker)
            assert backend.executing.wait(timeout=10)
            leader = service.submit(leader_request)
            follower = service.submit(follower_request)  # joins the flight
            time.sleep(0.1)  # let the leader's deadline pass while queued
            backend.gate.set()
            assert held.result(timeout=10).ok
            for future in (leader, follower):
                response = future.result(timeout=10)
                assert not response.ok
                assert response.error.reason.value == "timeout"
            assert follower.result().extra.get("cache") == "inflight"

    def test_cache_stats_ride_the_metrics_snapshot(self, small_ind, linear_2d):
        cache = SemanticAnswerCache()
        request = QueryRequest(
            scorer=linear_2d, k=3, tau=30, interval=(0, 400), algorithm="t-hop"
        )
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)), workers=2, cache=cache
        ) as service:
            service.query(request)
            service.query(request)
            snapshot = service.metrics.snapshot()
        assert snapshot.extra["cache"]["hits"] == 1
        assert "answer cache: hit rate" in snapshot.report()
        assert snapshot.as_dict()["extra"]["cache"]["entries"] == 1


# ----------------------------------------------------------------------
# Equivalence: cached service == fresh recompute, statically and live
# ----------------------------------------------------------------------
class TestCachedServiceEquivalence:
    def test_static_workload_byte_identical(self, small_ind):
        spec = WorkloadSpec(
            n_preferences=6,
            d=small_ind.d,
            k_choices=(3, 5),
            tau_fractions=(0.05, 0.15),
            interval_fractions=(0.3, 0.6),
            algorithms=("t-hop", "t-base"),
            seed=23,
            shapes_per_preference=4,
            shape_zipf_s=1.2,
        )
        stream = WorkloadGenerator(spec, small_ind.n).requests(120)
        cache = SemanticAnswerCache()
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)),
            workers=3,
            max_batch=8,
            cache=cache,
        ) as service:
            # First pass fills (duplicates ride batches and flights);
            # the second pass hits the now-warm exact tier.
            futures = [service.submit(request) for request in stream]
            responses = [future.result() for future in futures]
            futures = [service.submit(request) for request in stream]
            responses += [future.result() for future in futures]
        assert cache.stats()["hits"] > 0  # the repeats actually hit
        reference = DurableTopKEngine(small_ind)
        for request, response in zip(stream + stream, responses):
            assert response.ok
            expected = reference.query(
                request.as_query(), request.scorer, request.algorithm
            )
            assert response.result.ids == expected.ids
            assert response.result.durations == expected.durations
            assert response.result.stats.as_dict() == expected.stats.as_dict()

    def test_live_cache_holds_only_the_current_epoch(self):
        """Every append moves the live version; the answers of older
        versions leave the cache instead of waiting for the byte LRU."""
        rng = np.random.default_rng(5)
        live = LiveDataset(d=2, seal_rows=64)
        live.extend(rng.random((200, 2)))
        scorer = LinearPreference([0.6, 0.4])
        cache = SemanticAnswerCache(registry=MetricsRegistry())
        with DurableTopKService(LiveBackend(live), workers=2, cache=cache) as service:
            for i in range(40):
                if i % 4 == 0:
                    live.extend(rng.random((3, 2)))
                request = QueryRequest(
                    scorer=scorer, k=3, tau=5 + i, interval=(0, 150), algorithm="t-hop"
                )
                assert service.query(request).ok
                assert len(cache) <= 4
        assert cache.stats()["fills"] == 40
        live.close()

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_random_ingest_interleaving_never_stale(self, seed):
        """Appends/seals/compactions racing cached queries: every response
        must equal a fresh engine over the frozen prefix its snapshot
        version pins — the cache can shortcut work, never time."""
        rng = np.random.default_rng(seed)
        shadow: list[np.ndarray] = []

        live = LiveDataset(d=2, seal_rows=64, compact_fanout=2)
        first = rng.random((120, 2))
        live.extend(first)
        shadow.extend(first)

        scorers = [LinearPreference(np.abs(rng.normal(size=2)) + 0.1) for _ in range(3)]
        # A small catalogue of shapes that repeat, so exact hits occur
        # between epochs and are then invalidated by the next append.
        catalogue = [
            QueryRequest(
                scorer=scorers[int(rng.integers(len(scorers)))],
                k=int(rng.integers(1, 4)),
                tau=int(rng.integers(2, 40)),
                interval=(int(lo), int(lo + rng.integers(5, 60))),
                algorithm="t-hop" if rng.random() < 0.5 else "t-base",
            )
            for lo in rng.integers(0, 60, size=6)
        ]

        cache = SemanticAnswerCache()
        engines: dict[int, DurableTopKEngine] = {}
        with DurableTopKService(
            LiveBackend(live), workers=2, max_batch=4, cache=cache
        ) as service:
            for _ in range(70):
                op = rng.random()
                if op < 0.30:
                    rows = rng.random((int(rng.integers(1, 30)), 2))
                    live.extend(rows)
                    shadow.extend(rows)
                elif op < 0.40:
                    live.seal()
                elif op < 0.50:
                    live.compact(force=bool(rng.random() < 0.3))
                else:
                    request = catalogue[int(rng.integers(len(catalogue)))]
                    response = service.query(request)
                    assert response.ok
                    n_snap = response.result.extra["snapshot_n"]
                    assert n_snap == len(shadow)  # served at the current epoch
                    engine = engines.get(n_snap)
                    if engine is None:
                        engine = engines[n_snap] = DurableTopKEngine(
                            Dataset(np.asarray(shadow[:n_snap]), name=f"pfx-{n_snap}")
                        )
                    expected = engine.query(
                        request.as_query(), request.scorer, request.algorithm
                    )
                    assert response.result.ids == expected.ids, (seed, n_snap)
                    assert response.result.durations == expected.durations
            # With ingest quiesced, a repeat is an exact hit at this epoch.
            repeat = catalogue[0]
            service.query(repeat)
            settled = service.query(repeat)
            assert settled.extra.get("cache") == "exact"
        assert cache.stats()["hits"] > 0
        live.close()


    def test_cached_answers_racing_a_writer_match_their_prefix(self):
        """A cached service over a live dataset while a writer appends
        (the maintenance thread sealing and compacting behind it): two
        pipelined passes over one stream, so exact hits and epoch misses
        both race ingest. Every answer equals a fresh engine over the
        prefix its snapshot pins, and no second-pass answer pins a
        snapshot older than the dataset at the start of that pass."""
        rng = np.random.default_rng(41)
        master = rng.random((20_000, 2))
        live = LiveDataset(d=2, seal_rows=250, compact_fanout=2)
        live.extend(master[:2_000])
        live.seal()
        live.start_maintenance(poll_seconds=0.001)
        spec = WorkloadSpec(
            n_preferences=8,
            d=2,
            k_choices=(3, 5),
            tau_fractions=(0.05, 0.10),
            interval_fractions=(0.05, 0.2),
            algorithms=("t-hop",),
            seed=41,
            shapes_per_preference=4,
        )
        stream = WorkloadGenerator(spec, 2_000).requests(60)
        cache = SemanticAnswerCache()
        stop = threading.Event()

        def writer() -> None:
            at = 2_000
            while not stop.is_set() and at < len(master):
                live.extend(master[at : at + 50])
                at += 50
                time.sleep(0.0005)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            with DurableTopKService(
                LiveBackend(live), workers=3, max_batch=8, cache=cache
            ) as service:
                responses = run_pipelined(service.submit, stream, clients=4)
                n_between = live.n
                second = run_pipelined(service.submit, stream, clients=4)
        finally:
            stop.set()
            thread.join()
            live.close()
        assert all(r.result.extra["snapshot_n"] >= n_between for r in second)
        responses += second
        engines: dict[int, DurableTopKEngine] = {}
        for request, response in zip(stream + stream, responses):
            assert response.ok
            n_snap = response.result.extra["snapshot_n"]
            engine = engines.get(n_snap)
            if engine is None:
                engine = engines[n_snap] = DurableTopKEngine(Dataset(master[:n_snap]))
            expected = engine.query(request.as_query(), request.scorer, request.algorithm)
            assert response.result.ids == expected.ids, n_snap
            assert response.result.durations == expected.durations

    def test_hot_shapes_hit_at_least_half_on_a_serial_drive(self, small_ind):
        """On Zipf-hot preferences repeating a few shapes each, a fresh
        stream served one request at a time after a warm-up stream finds
        at least half its answers in the exact tier. Serial, so the rate
        depends on the seed alone."""
        spec = WorkloadSpec(
            n_preferences=16,
            d=small_ind.d,
            zipf_s=1.1,
            k_choices=(5, 10),
            tau_fractions=(0.05, 0.10),
            interval_fractions=(0.02, 0.05),
            algorithms=("t-hop",),
            seed=7,
            shapes_per_preference=6,
            shape_zipf_s=1.2,
        )
        generator = WorkloadGenerator(spec, small_ind.n)
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)),
            workers=2,
            cache=SemanticAnswerCache(registry=MetricsRegistry()),
        ) as service:
            for request in generator.requests(240):
                assert service.query(request).ok
            responses = [service.query(r) for r in generator.requests(240)]
        assert all(r.ok for r in responses)
        hits = sum(r.extra.get("cache") == "exact" for r in responses)
        assert hits / len(responses) >= 0.5, hits


# ----------------------------------------------------------------------
# Satellites: pool sizing/churn, coalesced accounting split
# ----------------------------------------------------------------------
class TestPoolSizing:
    def test_default_capacity_covers_documented_workload(self):
        assert SessionPool().capacity == 128

    def test_stats_expose_churn(self, small_ind, linear_2d):
        pool = SessionPool(capacity=1)
        engine = DurableTopKEngine(small_ind)
        other = LinearPreference([0.2, 0.8])
        for scorer in (linear_2d, other, linear_2d, other):
            session, _ = pool.checkout(
                (tuple(scorer.u),), lambda s=scorer: engine.session(s)
            )
            pool.checkin((tuple(scorer.u),), session)
        stats = pool.stats()
        assert stats["checkins"] == 4
        assert stats["evictions"] == 3  # every swap evicts under capacity 1
        assert stats["churn"] == 0.75
        pool.close()

    def test_service_constructor_exposes_capacity(self, small_ind):
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)), pool_capacity=7
        ) as service:
            assert service.pool.capacity == 7


class TestCoalescedAccountingSplit:
    def test_modes_are_counted_separately(self):
        """Flight joins are the one coalescing mode: each is counted once,
        in the snapshot, its dict and its report."""
        collector = MetricsCollector(registry=MetricsRegistry())
        collector.record_coalesced(3)
        snapshot = collector.snapshot()
        assert snapshot.coalesced == 3
        assert snapshot.as_dict()["coalesced"] == 3
        assert "3 coalesced (flight joins)" in snapshot.report()
