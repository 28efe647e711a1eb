"""Execution backends the service can serve queries through.

A backend knows three things: how to open a per-preference
:class:`~repro.core.session.QuerySession` (the pooled resource), how
to execute a same-preference batch of requests
(:class:`~repro.service.request.QueryRequest`) with such a session
(``execute_batch``; a lone request is a batch of one), and which
``dataset_version()`` (content epoch) it currently serves — the key the
semantic answer cache pins entries to. Four backends ship:

* :class:`EngineBackend` — the in-memory
  :class:`~repro.core.engine.DurableTopKEngine`. Queries under
  *different* preferences run genuinely concurrently: the engine's index
  LRU is lock-guarded, the score-array index is read-only at query time,
  and the service's one-batch-per-preference discipline serialises the
  only per-preference mutable state (the skyline-tree block's memoised
  scores).
* :class:`MiniDBBackend` — the paged MiniDB with its stored procedures.
  The buffer pool (shared LRU + I/O counters) is deliberately *not*
  thread-safe — a real DBMS guards it with latches — so this backend
  serialises execution with one latch per database. Sessions still pool
  per preference, and because session cache hits replay their page
  reads, the per-query page accounting is byte-identical to a serial,
  session-free run (the invariant `tests/test_service.py` pins under
  concurrency).
* :class:`LiveBackend` — a growing
  :class:`~repro.ingest.live.LiveDataset`. Queries snapshot the segment
  list epoch-style and run lock-free against immutable state, so reads
  proceed *while* appends, seals and compactions land; every response
  records the snapshot it served (``extra["snapshot_n"]``), which is
  what the freshness metrics and the serial re-derivation gate key on.
* :class:`ShardedBackend` — a
  :class:`~repro.shard.coordinator.ShardCoordinator` fronting N worker
  *processes*, one per contiguous time span. Execution leaves this
  interpreter entirely (the GIL stops being the throughput ceiling);
  sessions here are thin because the warm per-preference state lives in
  the shard workers' own pools. Responses carry per-shard fanout detail
  in ``extra``, which :class:`~repro.service.metrics.MetricsCollector`
  picks up automatically.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.query import Direction, DurableTopKResult, QueryStats
from repro.core.session import QuerySession
from repro.minidb.procedures import t_base_batch_procedure, t_hop_batch_procedure
from repro.service.request import QueryRequest

__all__ = ["EngineBackend", "LiveBackend", "MiniDBBackend", "ShardedBackend"]


class EngineBackend:
    """Serve requests through an in-memory :class:`DurableTopKEngine`.

    ``window_memo=True`` (the default) attaches a persistent
    :class:`~repro.cache.windows.WindowMemo` to every session it opens:
    top-k windows answered by one batch seed later batches under the
    same preference (the cache's *seeded* tier), while each query still
    runs the real algorithm and charges its own stats — outputs stay
    byte-identical to a memo-free run. Benchmarks pass ``False`` for an
    honest uncached baseline.
    """

    name = "engine"

    def __init__(self, engine, window_memo: bool = True) -> None:
        self.engine = engine
        self.window_memo = window_memo

    def dataset_version(self):
        """The served content epoch (immutable datasets stamp one version)."""
        return self.engine.dataset.version

    def make_session(self, scorer) -> QuerySession:
        session = self.engine.session(scorer)
        if self.window_memo:
            from repro.cache import WindowMemo

            session.window_memo = WindowMemo()
        return session

    def execute_batch(
        self, session, requests: list[QueryRequest]
    ) -> list[DurableTopKResult]:
        """One shared index pass for a same-preference batch of requests."""
        return session.query_batch(
            [request.as_query() for request in requests],
            algorithm=[request.algorithm for request in requests],
        )

    def close(self) -> None:
        """Nothing to release; indexes belong to the engine/dataset."""


class LiveBackend:
    """Serve requests over a growing :class:`LiveDataset`.

    The read path takes no locks: each query grabs the live dataset's
    current immutable state (segments + tail prefix) and answers over
    it. Sessions exist to satisfy the pooling contract — the heavy warm
    state (per-segment preference-bound indexes) lives on the immutable
    segments themselves, shared by every session and surviving session
    eviction, so a pool miss costs almost nothing here.
    """

    name = "live"

    def __init__(self, live, window_memo: bool = True) -> None:
        self.live = live
        self.window_memo = window_memo

    def dataset_version(self):
        """The live content epoch: the monotone row-count version stamp."""
        return self.live.version

    def make_session(self, scorer) -> QuerySession:
        scorer.validate_for(self.live.d)
        session = QuerySession(getattr(scorer, "u", None))
        if self.window_memo:
            from repro.cache import WindowMemo

            # One memo per direction: forward and reversed stitched
            # indexes answer over mirrored coordinates, so their windows
            # must never share entries. Both re-bind per batch against
            # the snapshot version (epoch invalidation under ingest).
            session.window_memo = WindowMemo()
            session.window_memo_reverse = WindowMemo()
        return session

    def execute_batch(
        self, session, requests: list[QueryRequest]
    ) -> list[DurableTopKResult]:
        """Answer the whole batch over one epoch snapshot, one shared pass."""
        results = self.live.query_batch(
            [request.as_query() for request in requests],
            requests[0].scorer,
            algorithm=[request.algorithm for request in requests],
            window_memo=session.window_memo,
            window_memo_reverse=session.window_memo_reverse,
        )
        live_n = self.live.n
        for result in results:
            result.extra["staleness_rows"] = max(0, live_n - result.extra["snapshot_n"])
        return results

    def close(self) -> None:
        """Stop the live dataset's maintenance thread."""
        self.live.close()


class ShardedBackend:
    """Serve requests through a multi-process shard coordinator.

    The pooled session is a stub: per-preference warm state (indexes,
    score caches) lives inside each shard worker's own session pool and
    survives independently of this service's pool, so a pool miss here
    costs one pickle round of the scorer and nothing else. The service's
    per-preference batching still pays off — batched requests hit the
    shard workers' warm sessions back to back.

    ``cache`` optionally plugs a coordinator-level
    :class:`~repro.cache.SemanticAnswerCache` in *front of the scatter*:
    cached requests are answered without touching a single worker pipe,
    only the misses fan out, and every gathered answer back-fills the
    cache. Scatter-gather is the most expensive execution path in the
    stack (pickle + pipe round per shard), so this is where structural
    reuse saves the most. The cache is thread-safe and shared across
    service workers; the sharded dataset is immutable, so its one
    version pins every entry.
    """

    name = "sharded"

    def __init__(self, coordinator, cache=None) -> None:
        self.coordinator = coordinator
        self.cache = cache

    def dataset_version(self):
        """The shared-memory dataset's content epoch."""
        return getattr(self.coordinator.dataset, "version", 0)

    def make_session(self, scorer) -> QuerySession:
        scorer.validate_for(self.coordinator.dataset.d)
        return QuerySession(getattr(scorer, "u", None))

    def execute_batch(
        self, session, requests: list[QueryRequest]
    ) -> list[DurableTopKResult]:
        """Scatter the batch as one seq-tagged sub-request per shard.

        With a cache attached, cached answers are peeled off first and
        only the remaining misses scatter (fewer pipe rounds, smaller
        sub-batches); the gathered answers then back-fill the cache.
        """
        if self.cache is None:
            return self.coordinator.query_batch(requests)
        version = self.dataset_version()
        results: list[DurableTopKResult | None] = [None] * len(requests)
        misses: list[int] = []
        for i, request in enumerate(requests):
            cached = self.cache.get(request, version)
            if cached is not None:
                results[i] = cached
            else:
                misses.append(i)
        if misses:
            gathered = self.coordinator.query_batch([requests[i] for i in misses])
            for i, result in zip(misses, gathered):
                results[i] = result
                self.cache.put(requests[i], version, result)
        return results  # type: ignore[return-value]

    def metrics_source(self) -> dict:
        """Worker lifecycle counters for the service metrics snapshot.

        Polled by :class:`~repro.service.metrics.MetricsCollector` at
        snapshot time; reads coordinator-local counters only (no pipe
        round-trip), so it is safe to call at any frequency.
        """
        stats = self.coordinator.stats()
        return {
            "shard_restarts": stats["restarts"],
            "shard_revivals": stats["revivals"],
        }

    def close(self) -> None:
        """Stop the shard workers (and their shared block, if owned)."""
        self.coordinator.close()


class MiniDBBackend:
    """Serve requests through MiniDB's T-Base/T-Hop stored procedures.

    Parameters
    ----------
    db:
        An open :class:`~repro.minidb.database.MiniDB`.
    cold:
        Passed through to the procedures: ``True`` (default) empties the
        buffer pool per invocation, which makes every request's page
        counts deterministic and independent of serving order — the
        property the concurrency-equivalence test relies on. ``False``
        keeps the pool warm across requests (realistic serving, page
        counts then depend on interleaving).
    """

    name = "minidb"

    BATCH_PROCEDURES = {
        "t-hop": t_hop_batch_procedure,
        "t-base": t_base_batch_procedure,
    }

    def __init__(self, db, cold: bool = True) -> None:
        self.db = db
        self.cold = cold
        # The buffer pool and pager are shared mutable state without
        # internal latching; one execution latch stands in for them.
        self._latch = threading.Lock()

    def dataset_version(self):
        """MiniDB tables are load-once immutable; one epoch per database."""
        return getattr(self.db, "version", 0)

    def make_session(self, scorer) -> QuerySession:
        u = getattr(scorer, "u", None)
        if u is None:
            raise ValueError(
                "the MiniDB backend needs a preference-vector scorer (scorer.u)"
            )
        return self.db.session(np.asarray(u, dtype=float))

    def _check(self, request: QueryRequest) -> None:
        if request.direction is not Direction.PAST:
            raise ValueError(
                "the MiniDB stored procedures answer look-back queries only"
            )
        if request.algorithm not in self.BATCH_PROCEDURES:
            raise ValueError(
                f"MiniDB backend serves {sorted(self.BATCH_PROCEDURES)}, "
                f"not {request.algorithm!r}"
            )

    @staticmethod
    def _result_of(request: QueryRequest, report) -> DurableTopKResult:
        stats = QueryStats(
            durability_topk_queries=report.topk_queries,
            pages_read=report.logical_reads,
        )
        return DurableTopKResult(
            ids=report.ids,
            query=request.as_query(),
            algorithm=report.algorithm,
            stats=stats,
            elapsed_seconds=report.elapsed_seconds,
            extra={
                "logical_reads": report.logical_reads,
                "physical_reads": report.physical_reads,
                "topk_queries": report.topk_queries,
            },
        )

    def execute_batch(
        self, session, requests: list[QueryRequest]
    ) -> list[DurableTopKResult]:
        """Run the batch through one warm session, grouped per procedure.

        Duplicate queries inside a group execute once (the batch
        procedures clone their reports under ``cold=True``); per-query
        page counts stay byte-identical to a serial loop.
        """
        for request in requests:
            self._check(request)
        groups: dict[str, list[int]] = {}
        for i, request in enumerate(requests):
            groups.setdefault(request.algorithm, []).append(i)
        results: list[DurableTopKResult | None] = [None] * len(requests)
        with self._latch:
            for algorithm, positions in groups.items():
                queries = []
                for i in positions:
                    request = requests[i]
                    lo, hi = (
                        request.interval if request.interval is not None else (None, None)
                    )
                    queries.append((request.k, request.tau, lo, hi))
                reports = self.BATCH_PROCEDURES[algorithm](
                    self.db, session.u, queries, cold=self.cold, session=session
                )
                for i, report in zip(positions, reports):
                    results[i] = self._result_of(requests[i], report)
        return results

    def close(self) -> None:
        """The database is caller-owned; nothing to release here."""
