"""High-level engine: build indexes once, answer many durable top-k queries.

The engine owns the per-dataset state (skyline tree, durable k-skyband
index, the reversed view for look-ahead queries) and turns a
:class:`~repro.core.query.DurableTopKQuery` plus a scoring function into a
:class:`~repro.core.query.DurableTopKResult`, dispatching to any of the
five algorithms.

``query_batch`` answers a whole same-preference batch in one shared
pass: a :class:`~repro.core.batch.BatchPlan` collapses duplicate
queries onto one execution, a :class:`~repro.index.topk.BatchTopKMemo`
shares every identical top-k window between the batch's queries (primed
with one vectorised sweep over the batch's opening windows), and each
answer — ids, per-query :class:`~repro.core.query.QueryStats`,
durations — is byte-identical to answering that query alone. ``query``
is a batch of one: a lone query runs straight over the index, with no
memo and no priming (:func:`~repro.core.batch.plan_index`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.core.algorithms.base import AlgorithmContext, get_algorithm
from repro.core.batch import BatchPlan, clone_result, plan_index
from repro.core.durability import attach_max_durations
from repro.core.query import Direction, DurableTopKQuery, DurableTopKResult, QueryStats
from repro.core.record import Dataset
from repro.core.session import QuerySession
from repro.index.topk import CountingTopKIndex, build_topk_index
from repro.obs import add_span, trace_span, tracing_active

__all__ = ["DurableTopKEngine", "EngineSession", "durable_topk"]


class EngineSession(QuerySession):
    """In-memory counterpart of :class:`repro.minidb.session.MiniDBSession`.

    Binds one scoring function to its preference-bound top-k index so that
    consecutive queries under the same preference skip the per-call index
    lookup/build entirely — the same caching interface the MiniDB stored
    procedures use (one session per preference, reusable state across the
    many top-k calls of a durable query, droppable at any time without
    correctness consequences). Obtain one via
    :meth:`DurableTopKEngine.session`.
    """

    __slots__ = ("engine", "scorer", "index", "dataset_version")

    def __init__(self, engine: "DurableTopKEngine", scorer) -> None:
        super().__init__(getattr(scorer, "u", None))
        self.engine = engine
        self.scorer = scorer
        self.index = engine._bound_index(scorer)
        self.dataset_version = engine.dataset.version

    def query(
        self,
        query: DurableTopKQuery,
        algorithm: str = "s-hop",
        with_durations: bool = False,
    ) -> DurableTopKResult:
        """Answer ``query`` under the session's bound scoring function."""
        return self.query_batch([query], algorithm, with_durations)[0]

    def query_batch(
        self,
        queries,
        algorithm="s-hop",
        with_durations: bool = False,
    ) -> list[DurableTopKResult]:
        """Answer a batch of queries in one shared pass (see
        :meth:`DurableTopKEngine.query_batch`); ``algorithm`` may be one
        name for the whole batch or a per-query sequence."""
        if self.closed:
            raise RuntimeError("session is closed")
        if self.dataset_version != self.engine.dataset.version:
            # The dataset advanced an epoch under this session (e.g. a
            # newer live snapshot was swapped in): drop the stale index
            # and rebind before answering.
            self.clear()
            self.index = self.engine._bound_index(self.scorer)
            self.dataset_version = self.engine.dataset.version
        return self.engine.query_batch(
            queries, self.scorer, algorithm, with_durations, session=self
        )


class DurableTopKEngine:
    """Query engine over one dataset.

    Parameters
    ----------
    dataset:
        The dataset to serve.
    index_method:
        Top-k building block: ``"score_array"`` (default; any scoring
        function) or ``"skyline_tree"`` (the paper's Appendix-A index;
        monotone functions only).
    skyband_k_max:
        When set, a :class:`~repro.index.kskyband.DurableSkybandIndex` is
        built lazily (first S-Band query) for ``k`` up to this bound.
    """

    #: Number of recently-used preference-bound indexes kept per engine.
    PREFERENCE_CACHE_SIZE = 8

    def __init__(
        self,
        dataset: Dataset,
        index_method: str = "score_array",
        skyband_k_max: int | None = 64,
    ) -> None:
        if index_method not in ("score_array", "skyline_tree", "auto"):
            raise ValueError(f"unknown index_method: {index_method!r}")
        self.dataset = dataset
        self.index_method = index_method
        self.skyband_k_max = skyband_k_max
        self._reverse_engine: DurableTopKEngine | None = None
        # Interactive exploration re-queries the same preference with
        # different k/tau/I; cache the preference-bound block (LRU).
        # Concurrent service workers share one engine, so every cache
        # mutation happens under the lock; in-flight builds are tracked in
        # ``_building`` so a cold preference is built once, not per thread.
        self._index_cache: "OrderedDict[object, object]" = OrderedDict()
        self._cache_lock = threading.Lock()
        self._building: dict[object, threading.Event] = {}
        # Heavy shared structures (skyband index, reversed engine) get
        # their own lock so their builds never stall the LRU fast path.
        self._build_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _skyband_index(self):
        from repro.index.kskyband import DurableSkybandIndex

        if self.skyband_k_max is None:
            return None
        cached = self.dataset.get_cached("skyband_index")
        if cached is not None and cached.k_max >= self.skyband_k_max:
            return cached
        # Double-checked: the expensive build runs at most once per engine
        # even when many service workers first-touch S-Band concurrently.
        with self._build_lock:
            cached = self.dataset.get_cached("skyband_index")
            if cached is not None and cached.k_max >= self.skyband_k_max:
                return cached
            cached = DurableSkybandIndex(self.dataset, k_max=self.skyband_k_max)
            self.dataset.set_cached("skyband_index", cached)
        return cached

    def prepare(self, algorithms: list[str] | None = None) -> "DurableTopKEngine":
        """Eagerly build the offline indexes the given algorithms need.

        The paper treats the skyline tree and the durable k-skyband index
        as offline structures; benchmarks call this before timing queries.
        Returns ``self`` for chaining.
        """
        names = algorithms or ["s-band"]
        if self.index_method == "skyline_tree":
            from repro.index.skyline_tree import SkylineTree

            self.dataset.get_or_build("skyline_tree", lambda: SkylineTree(self.dataset))
        if "s-band" in names and self.skyband_k_max is not None:
            self._skyband_index()
        return self

    def _bound_index(self, scorer):
        """Preference-bound top-k block, LRU-cached by scorer identity.

        The cache key is the scorer's preference content when available
        (``scorer.u``), else the object itself — two equal-weight scorers
        share an entry; a mutated ``u`` array would not, so preference
        vectors are treated as immutable (as all shipped scorers do).

        The key also carries the dataset's content ``version``: frozen
        snapshots of a live dataset stamp their epoch there, so an index
        built for one epoch can never answer for another even if a newer
        snapshot is swapped into ``self.dataset`` (growing datasets are
        the one way a same-preference rebuild can become necessary).

        Thread-safe: lookups and LRU mutation happen under the cache lock,
        and a cold preference is built exactly once — concurrent
        first-touchers wait on the builder's event instead of racing
        duplicate builds or corrupting the ``OrderedDict``.
        """
        u = getattr(scorer, "u", None)
        # u-less scorers key by the object itself (kept alive by the LRU
        # entry), so two distinct parameterisations never collide.
        key = (
            type(scorer).__name__,
            scorer if u is None else tuple(u),
            self.dataset.version,
        )
        while True:
            with self._cache_lock:
                cached = self._index_cache.get(key)
                if cached is not None:
                    self._index_cache.move_to_end(key)
                    return cached
                event = self._building.get(key)
                if event is None:
                    # This thread builds; concurrent first-touchers wait.
                    event = threading.Event()
                    self._building[key] = event
                    break
            event.wait()
            # The builder published (loop re-reads the cache) or failed /
            # was evicted meanwhile (loop makes this thread the builder).
        try:
            built = build_topk_index(self.dataset, scorer, method=self.index_method)
            with self._cache_lock:
                self._index_cache[key] = built
                if len(self._index_cache) > self.PREFERENCE_CACHE_SIZE:
                    self._index_cache.popitem(last=False)
        finally:
            with self._cache_lock:
                self._building.pop(key, None)
            event.set()
        return built

    def _reversed(self) -> "DurableTopKEngine":
        with self._build_lock:
            if self._reverse_engine is None:
                self._reverse_engine = DurableTopKEngine(
                    self.dataset.reversed(),
                    index_method=self.index_method,
                    skyband_k_max=self.skyband_k_max,
                )
            return self._reverse_engine

    # ------------------------------------------------------------------
    def plan(self, query: DurableTopKQuery, scorer):
        """Cost-based algorithm choice for ``query`` (see
        :mod:`repro.core.planner`)."""
        from repro.core.planner import choose_algorithm

        lo, hi = query.resolve_interval(self.dataset.n)
        return choose_algorithm(
            k=query.k,
            tau=query.tau,
            interval_length=hi - lo + 1,
            d=self.dataset.d,
            scorer_monotone=scorer.is_monotone,
            scorer_strictly_monotone=getattr(scorer, "is_strictly_monotone", False),
            has_skyband_index=self.skyband_k_max is not None
            and query.k <= self.skyband_k_max,
        )

    def session(self, scorer) -> EngineSession:
        """Open a query session bound to ``scorer``.

        The session pins the preference-bound top-k index (and shares the
        :class:`~repro.core.session.QuerySession` caching interface with
        the MiniDB backend), so repeated queries under one scoring
        function skip all per-call setup.
        """
        scorer.validate_for(self.dataset.d)
        return EngineSession(self, scorer)

    def query(
        self,
        query: DurableTopKQuery,
        scorer,
        algorithm: str = "s-hop",
        with_durations: bool = False,
        session: EngineSession | None = None,
    ) -> DurableTopKResult:
        """Answer ``query`` under ``scorer`` with the named algorithm.

        ``algorithm="auto"`` lets the cost-based planner choose.
        ``with_durations`` additionally computes, for every durable record,
        the maximum duration it stays in the top-k (binary search,
        Section II), stored in ``result.durations``.
        ``session`` (see :meth:`session`) reuses a preference-bound index
        across calls; it must have been opened for the same ``scorer``.
        A batch of one: see :meth:`query_batch`.
        """
        return self.query_batch([query], scorer, algorithm, with_durations, session)[0]

    def _query_past(
        self, query: DurableTopKQuery, scorer, algorithm: str, with_durations: bool, inner
    ) -> DurableTopKResult:
        """Run one resolved look-back query over the given top-k block.

        ``inner`` is the preference-bound index — raw, or wrapped in a
        batch memo by :meth:`query_batch`; either way each query charges
        its own :class:`QueryStats` through its own counting wrapper.
        """
        lo, hi = query.resolve_interval(self.dataset.n)
        stats = QueryStats()
        algo = get_algorithm(algorithm)
        # Offline structure: built outside the timed region, as in the paper.
        skyband = self._skyband_index() if algo.requires_skyband else None

        with trace_span(
            "engine.query", algorithm=algorithm, k=query.k, tau=query.tau, lo=lo, hi=hi
        ) as span:
            start = time.perf_counter()
            index = CountingTopKIndex(inner, stats, timed=tracing_active())
            ctx = AlgorithmContext(
                dataset=self.dataset,
                index=index,
                scorer=scorer,
                k=query.k,
                tau=query.tau,
                lo=lo,
                hi=hi,
                stats=stats,
                skyband=skyband,
            )
            ids = algo.run(ctx)
            elapsed = time.perf_counter() - start
            span.set(
                answers=len(ids),
                durability_topk=stats.durability_topk_queries,
                candidate_topk=stats.candidate_topk_queries,
                candidate_set=stats.candidate_set_size,
            )
            if index.timed and index.calls:
                # One aggregated span per query (busy time across all
                # probes), not one span per probe.
                add_span(
                    "index.topk",
                    start=index.first_start,
                    duration=index.elapsed,
                    calls=index.calls,
                    candidates_scanned=index.scanned,
                )

        result = DurableTopKResult(
            ids=ids,
            query=query,
            algorithm=algorithm,
            stats=stats,
            elapsed_seconds=elapsed,
        )
        if with_durations:
            attach_max_durations(result, index)
        return result

    def _resolve_algorithms(self, queries, algorithm, scorer) -> list[str]:
        """Per-query algorithm names, expanding ``"auto"`` via the planner."""
        if isinstance(algorithm, str):
            names = [algorithm] * len(queries)
        else:
            names = [str(name) for name in algorithm]
            if len(names) != len(queries):
                raise ValueError(
                    f"got {len(names)} algorithms for {len(queries)} queries"
                )
        return [
            self.plan(query, scorer).algorithm if name == "auto" else name
            for query, name in zip(queries, names)
        ]

    def query_batch(
        self,
        queries,
        scorer,
        algorithm="s-hop",
        with_durations: bool = False,
        session: EngineSession | None = None,
    ) -> list[DurableTopKResult]:
        """Answer a batch of queries under one scorer in a shared pass.

        Byte-identical to answering each query alone — same ids,
        durations and per-query :class:`QueryStats` — but the
        work is shared three ways: identical queries execute once (their
        twins get cloned results), all distinct queries run over one
        :class:`~repro.index.topk.BatchTopKMemo` so repeated durability
        windows are answered once, and the batch's opening windows are
        pre-answered in a single vectorised pass
        (:func:`~repro.index.topk.batched_window_topk`).

        ``algorithm`` is one name for the whole batch or a sequence with
        one name per query (``"auto"`` plans each query on its own).
        Look-ahead queries batch among themselves over the reversed
        engine. Results come back in input order.
        """
        scorer.validate_for(self.dataset.d)
        if session is not None and session.scorer is not scorer:
            raise ValueError(
                "session was opened for a different scoring function; "
                "open one per scorer via DurableTopKEngine.session()"
            )
        queries = list(queries)
        if not queries:
            return []
        algorithms = self._resolve_algorithms(queries, algorithm, scorer)
        results: list[DurableTopKResult | None] = [None] * len(queries)
        past = [
            (i, query, algorithms[i])
            for i, query in enumerate(queries)
            if query.direction is not Direction.FUTURE
        ]
        future = [
            (i, query, algorithms[i])
            for i, query in enumerate(queries)
            if query.direction is Direction.FUTURE
        ]
        if past:
            inner = session.index if session is not None else self._bound_index(scorer)
            # A serving backend may attach a cross-batch WindowMemo to the
            # session: bound to this batch's index/epoch, windows answered
            # by earlier batches seed this one (stale epochs are dropped
            # inside bind()). Placement is identical to the batch-scoped
            # memo, so outputs stay byte-identical.
            persistent = session.window_memo if session is not None else None
            plan = BatchPlan(past, self.dataset.n)
            memo = plan_index(plan, inner, persistent, self.dataset.version)
            for entry in plan.unique:
                results[entry.position] = self._query_past(
                    entry.query, scorer, entry.algorithm, with_durations, memo
                )
            for position, source in plan.duplicates.items():
                results[position] = clone_result(
                    results[source], query=queries[position]
                )
        if future:
            self._query_future_batch(future, scorer, with_durations, results)
        return results  # type: ignore[return-value]

    def _query_future_batch(self, items, scorer, with_durations, results) -> None:
        """Batch the look-ahead queries over the reversed engine.

        Each query runs as a look-back query on the time-reversed
        dataset; the whole group shares the reversed engine's batched
        pass, then ids (and durations) map back through ``t -> n - 1 - t``.
        """
        n = self.dataset.n
        engine = self._reversed()
        mirrored = [query.reversed(n) for _, query, _ in items]
        inner_results = engine.query_batch(
            mirrored,
            scorer,
            algorithm=[name for _, _, name in items],
            with_durations=with_durations,
        )
        for (position, query, name), inner in zip(items, inner_results):
            durations = (
                {n - 1 - t: d for t, d in inner.durations.items()}
                if inner.durations
                else None
            )
            results[position] = DurableTopKResult(
                ids=sorted(n - 1 - t for t in inner.ids),
                query=query,
                algorithm=name,
                stats=inner.stats,
                elapsed_seconds=inner.elapsed_seconds,
                durations=durations,
            )

    #: The paper's five algorithms (ablation variants are opt-in).
    PAPER_ALGORITHMS = ("t-base", "t-hop", "s-base", "s-band", "s-hop")

    def compare(
        self, query: DurableTopKQuery, scorer, algorithms: list[str] | None = None
    ) -> dict[str, DurableTopKResult]:
        """Run several algorithms on the same query (they must agree)."""
        names = algorithms or list(self.PAPER_ALGORITHMS)
        out: dict[str, DurableTopKResult] = {}
        for name in names:
            algo = get_algorithm(name)
            if algo.requires_monotone and not scorer.is_monotone:
                continue
            if name == "s-band" and not getattr(scorer, "is_strictly_monotone", False):
                continue
            out[name] = self.query(query, scorer, algorithm=name)
        return out


def durable_topk(
    dataset: Dataset,
    scorer,
    k: int,
    tau: int,
    interval: tuple[int, int] | None = None,
    direction: Direction = Direction.PAST,
    algorithm: str = "s-hop",
    with_durations: bool = False,
) -> DurableTopKResult:
    """One-shot convenience wrapper around :class:`DurableTopKEngine`.

    >>> import numpy as np
    >>> from repro.core.record import Dataset
    >>> from repro.scoring import LinearPreference
    >>> data = Dataset(np.array([[5.0], [1.0], [7.0], [2.0]]))
    >>> durable_topk(data, LinearPreference([1.0]), k=1, tau=2).ids
    [0, 2]
    """
    engine = DurableTopKEngine(dataset)
    query = DurableTopKQuery(k=k, tau=tau, interval=interval, direction=direction)
    return engine.query(query, scorer, algorithm=algorithm, with_durations=with_durations)
