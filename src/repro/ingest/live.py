"""The live dataset: appends, sealing, compaction, and exact queries.

:class:`LiveDataset` is the LSM-flavoured counterpart of the immutable
:class:`~repro.core.record.Dataset`:

* ``append``/``extend`` land rows in the mutable tail;
* a **sealer** (inline or the background maintenance thread) freezes the
  tail into an immutable :class:`~repro.ingest.segments.Segment`;
* a **compactor** merges runs of small adjacent segments so the segment
  count — and with it per-query merge fan-in — stays logarithmic-ish in
  the ingested volume;
* ``query`` answers durable top-k questions over a consistent snapshot,
  *exactly* equal to rebuilding one index over the frozen prefix;
* ``query_batch`` answers a same-preference batch over *one* pinned
  snapshot with shared memoised windows — every answer byte-identical
  to answering that query alone against that snapshot (``query`` is a
  batch of one).

Concurrency model (epoch/RCU-style): all mutable state lives in one
immutable ``_LiveState`` (segment tuple + tail buffer + base offset)
published through a single attribute store, which CPython makes atomic.
Readers grab the current state and never lock; writers serialise on the
append lock; seal/compact additionally serialise on the maintenance lock
(single-flighted builds, as everywhere else in this library) and publish
a fresh state. A query that started before a seal keeps answering over
the state it grabbed — append-only growth means that snapshot equals
``frozen_prefix(n)`` forever.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.algorithms.base import AlgorithmContext, get_algorithm
from repro.core.batch import BatchPlan, clone_result, plan_index
from repro.core.durability import attach_max_durations
from repro.core.query import Direction, DurableTopKQuery, DurableTopKResult, QueryStats
from repro.core.record import Dataset
from repro.index.topk import CountingTopKIndex
from repro.ingest.segments import Segment, SegmentedTopKIndex, TailBuffer, score_index
from repro.obs import add_span, global_registry, trace_span, tracing_active

__all__ = ["LiveDataset", "LiveSnapshot"]

#: Algorithms that touch data only through the top-k building block and
#: therefore run unchanged over the stitched index. The sort-based
#: S-algorithms need a materialised value matrix — freeze() first.
INDEX_ONLY_ALGORITHMS = ("t-base", "t-hop")


def _validate_live_algorithm(algorithm: str) -> None:
    if algorithm not in INDEX_ONLY_ALGORITHMS:
        raise ValueError(
            f"LiveDataset serves {INDEX_ONLY_ALGORITHMS}, not {algorithm!r}; "
            "freeze() the dataset for the sort-based algorithms"
        )


@dataclass(frozen=True)
class _LiveState:
    """One immutable publication of the dataset's structure."""

    segments: tuple[Segment, ...]
    tail: TailBuffer
    #: Global id of the first tail row (== number of sealed rows).
    base: int


@dataclass(frozen=True)
class LiveSnapshot:
    """A consistent point-in-time view of a :class:`LiveDataset`."""

    segments: tuple[Segment, ...]
    tail_values: np.ndarray  # (m, d) immutable view
    base: int
    version: int

    @property
    def n(self) -> int:
        """Records visible in this snapshot."""
        return self.base + len(self.tail_values)

    def stitched_index(self, scorer, reverse: bool = False) -> SegmentedTopKIndex:
        """The cross-part top-k block for this snapshot under ``scorer``.

        Builds no per-part index up front: each segment's index is
        fetched from its cache (or built) and the tail is scored only
        when a probe first lands in that part, so a query anchored at
        the growing end never indexes the segments its windows skip.
        ``reverse`` stitches the time-reversed parts for look-ahead.
        """
        tail = self.tail_values
        parts = [
            (seg.lo, len(seg), partial(seg.index_for, scorer, reverse)) for seg in self.segments
        ]
        if len(tail):
            parts.append((self.base, len(tail), partial(score_index, scorer, tail, reverse)))
        if reverse:
            n = self.n
            parts = [(n - base - length, length, build) for base, length, build in reversed(parts)]
        return SegmentedTopKIndex(parts)

    def values(self) -> np.ndarray:
        """Materialised ``(n, d)`` value matrix of the snapshot."""
        chunks = [seg.values for seg in self.segments]
        if len(self.tail_values):
            chunks.append(self.tail_values)
        if not chunks:
            d = self.tail_values.shape[1]
            return np.empty((0, d))
        return np.concatenate(chunks) if len(chunks) > 1 else chunks[0].copy()


class _SnapshotView:
    """Duck-typed stand-in for ``AlgorithmContext.dataset``.

    The index-only algorithms never touch it; anything reaching for
    ``values`` gets the materialised snapshot (lazily, once).
    """

    __slots__ = ("_snapshot", "_values")

    def __init__(self, snapshot: LiveSnapshot) -> None:
        self._snapshot = snapshot
        self._values = None

    @property
    def n(self) -> int:
        return self._snapshot.n

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self._snapshot.values()
        return self._values


class LiveDataset:
    """A growing dataset serving exact durable top-k queries while ingesting.

    Parameters
    ----------
    d:
        Number of ranking attributes.
    seal_rows:
        Tail size that triggers a seal (and the sealer's unit of work).
    compact_fanout:
        Merge a run of this many adjacent small segments into one.
    name:
        Dataset name used in frozen snapshots and reports.

    Call :meth:`start_maintenance` to run sealing/compaction on a
    background thread (the serving configuration); without it, call
    :meth:`seal`/:meth:`compact` explicitly (the deterministic test
    configuration). Appends never block on either beyond the brief
    append lock.
    """

    def __init__(
        self,
        d: int,
        seal_rows: int = 4096,
        compact_fanout: int = 8,
        name: str = "live",
    ) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if seal_rows < 1:
            raise ValueError(f"seal_rows must be >= 1, got {seal_rows}")
        if compact_fanout < 2:
            raise ValueError(f"compact_fanout must be >= 2, got {compact_fanout}")
        self.d = d
        self.seal_rows = seal_rows
        self.compact_fanout = compact_fanout
        self.name = name
        self._state = _LiveState((), TailBuffer(d, capacity=max(seal_rows, 16)), 0)
        self._append_lock = threading.Lock()
        self._maintenance_lock = threading.Lock()
        self._wake = threading.Condition(threading.Lock())
        self._thread: threading.Thread | None = None
        self._stop = False
        self.seals = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Records currently visible (sealed + tail)."""
        state = self._state
        return state.base + state.tail.count

    @property
    def version(self) -> int:
        """Monotone content stamp: the record count.

        The dataset is append-only, so its logical content is fully
        determined by ``n`` — seals and compactions reorganise storage
        without changing a single record. Deriving the version from the
        row count (rather than a separate counter) also makes every
        snapshot's ``(content, version)`` pair consistent by
        construction, with no cross-field read races.
        """
        return self.n

    @property
    def segment_count(self) -> int:
        """Number of sealed segments."""
        return len(self._state.segments)

    def append(self, row, timestamp=None, label: str | None = None) -> int:
        """Append one record; returns its global arrival index."""
        row = np.asarray(row, dtype=float).reshape(-1)
        if len(row) != self.d:
            raise ValueError(f"row has {len(row)} attributes, dataset has {self.d}")
        if not np.isfinite(row).all():
            raise ValueError("row values must be finite (no NaN/inf)")
        with self._append_lock:
            state = self._state
            t = state.base + state.tail.append(row, timestamp, label)
        if self._thread is not None and state.tail.count >= self.seal_rows:
            with self._wake:
                self._wake.notify()
        return t

    def extend(self, rows: np.ndarray) -> int:
        """Append many rows in one lock acquisition; returns the first id.

        The whole block is validated first, so a rejected call appends
        nothing.
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.d:
            raise ValueError(f"rows must be (m, {self.d}), got {rows.shape}")
        if not np.isfinite(rows).all():
            raise ValueError("row values must be finite (no NaN/inf)")
        with self._append_lock:
            state = self._state
            first = state.base + state.tail.extend(rows)
        if self._thread is not None and state.tail.count >= self.seal_rows:
            with self._wake:
                self._wake.notify()
        return first

    # ------------------------------------------------------------------
    # Maintenance: sealing and compaction
    # ------------------------------------------------------------------
    def seal(self, min_rows: int = 1) -> int:
        """Freeze the current tail into a segment; returns rows sealed.

        No-op (returns 0) when the tail holds fewer than ``min_rows``.
        """
        with self._maintenance_lock:
            with self._append_lock:
                state = self._state
                m = state.tail.count
                if m < max(1, min_rows):
                    return 0
                segment = Segment(
                    state.base,
                    state.tail.values_view(m).copy(),
                    timestamps=list(state.tail.timestamps[:m]),
                    labels=list(state.tail.labels[:m]),
                )
                self._state = _LiveState(
                    state.segments + (segment,),
                    TailBuffer(self.d, capacity=max(self.seal_rows, 16)),
                    state.base + m,
                )
                self.seals += 1
                registry = global_registry()
                registry.counter("ingest.seals").inc()
                registry.gauge("ingest.segments").set(len(self._state.segments))
        return m

    def _compaction_run(self, segments: tuple[Segment, ...]) -> tuple[int, int] | None:
        """The first window of ``compact_fanout`` adjacent merge-worthy segments.

        Size-tiered at every scale: a window merges when no single member
        holds half its rows — merging near-peers multiplies segment size
        by ~fanout per round (geometric, so total copy work stays
        ``O(n log n)``), while a window dominated by one big segment is
        skipped rather than re-copied behind a few stragglers.
        """
        w = self.compact_fanout
        if len(segments) < w:
            return None
        sizes = [len(seg) for seg in segments]
        for i in range(len(segments) - w + 1):
            window = sizes[i : i + w]
            if 2 * max(window) <= sum(window):
                return i, i + w
        return None

    def compact(self, force: bool = False) -> int:
        """Merge small adjacent segments; returns segments removed.

        ``force=True`` merges *all* segments into one regardless of the
        size policy (used by tests to exercise the swap path).
        """
        with self._maintenance_lock:
            segments = self._state.segments
            if force:
                if len(segments) < 2:
                    return 0
                run = (0, len(segments))
            else:
                found = self._compaction_run(segments)
                if found is None:
                    return 0
                run = found
            i, j = run
            victims = segments[i:j]
            # The expensive concatenation runs outside the append lock;
            # segments are immutable, so no state can shift underneath.
            merged = Segment(
                victims[0].lo,
                np.concatenate([s.values for s in victims]),
                timestamps=[t for s in victims for t in (s.timestamps or [None] * len(s))],
                labels=[lb for s in victims for lb in (s.labels or [None] * len(s))],
            )
            with self._append_lock:
                state = self._state
                self._state = _LiveState(
                    state.segments[:i] + (merged,) + state.segments[j:],
                    state.tail,
                    state.base,
                )
                self.compactions += 1
                registry = global_registry()
                registry.counter("ingest.compactions").inc()
                registry.gauge("ingest.segments").set(len(self._state.segments))
        return len(victims) - 1

    def start_maintenance(self, poll_seconds: float = 0.05) -> None:
        """Run the sealer/compactor on a background daemon thread."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop = False
        self._thread = threading.Thread(
            target=self._maintain_loop, args=(poll_seconds,),
            name="live-dataset-maintenance", daemon=True,
        )
        self._thread.start()

    def _maintain_loop(self, poll_seconds: float) -> None:
        while True:
            with self._wake:
                if not self._stop and self._state.tail.count < self.seal_rows:
                    self._wake.wait(timeout=poll_seconds)
                if self._stop:
                    return
            if self._state.tail.count >= self.seal_rows:
                self.seal(min_rows=self.seal_rows)
                self.compact()

    def close(self) -> None:
        """Stop the maintenance thread (the data stays queryable)."""
        if self._thread is None:
            return
        with self._wake:
            self._stop = True
            self._wake.notify_all()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "LiveDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def snapshot(self) -> LiveSnapshot:
        """A consistent lock-free view of the current records.

        The version is derived from the captured content (``base +
        count``), so it can never label a different epoch's rows."""
        state = self._state
        buf, count = state.tail.published
        return LiveSnapshot(
            segments=state.segments,
            tail_values=buf[:count],
            base=state.base,
            version=state.base + count,
        )

    def freeze(self, name: str | None = None) -> Dataset:
        """An immutable :class:`Dataset` of the current records.

        The frozen dataset carries ``version`` equal to the live
        dataset's content stamp (its row count), so derived-index caches
        keyed on the version can never serve a stale epoch.
        """
        state = self._state
        buf, tail_n = state.tail.published
        snap = LiveSnapshot(
            segments=state.segments,
            tail_values=buf[:tail_n],
            base=state.base,
            version=state.base + tail_n,
        )
        timestamps = [t for seg in snap.segments for t in (seg.timestamps or [None] * len(seg))]
        timestamps += list(state.tail.timestamps[:tail_n])
        labels = [lb for seg in snap.segments for lb in (seg.labels or [None] * len(seg))]
        labels += list(state.tail.labels[:tail_n])
        has_ts = any(t is not None for t in timestamps)
        has_labels = any(lb is not None for lb in labels)
        return Dataset(
            snap.values(),
            timestamps=timestamps if has_ts else None,
            labels=labels if has_labels else None,
            name=name or f"{self.name}@{snap.version}",
            version=snap.version,
        )

    def query(
        self,
        query: DurableTopKQuery,
        scorer,
        algorithm: str = "t-hop",
        with_durations: bool = False,
        snapshot: LiveSnapshot | None = None,
    ) -> DurableTopKResult:
        """Answer ``query`` over a snapshot, exactly as an offline rebuild.

        Only the index-only algorithms (``t-base``, ``t-hop``) run over
        the stitched block; they are also the natural serving algorithms.
        ``snapshot`` pins the view (defaults to the current one); the
        result's ``extra["snapshot_n"]``/``extra["snapshot_version"]``
        record what was served, which the freshness benchmark and the
        serial re-derivation gate rely on.
        """
        return self.query_batch([query], scorer, algorithm, with_durations, snapshot)[0]

    def _query_past(
        self, query, scorer, algorithm, with_durations, snap: LiveSnapshot, stitched, probe,
        reverse: bool = False,
    ) -> DurableTopKResult:
        """One look-back query over a pinned snapshot's stitched block.

        The query probes ``probe`` — ``stitched`` itself or the batch
        memo :meth:`query_batch` wraps around it — and charges its stats
        through its own counting wrapper. ``reverse`` marks a mirrored
        look-ahead query running over the reversed ``stitched`` block
        (the span then carries ``direction="future"``); :meth:`query_batch`
        maps its answer back. The span's ``parts_resolved`` counts the
        parts of ``stitched`` whose index has been fetched so far.
        """
        n = snap.n
        lo, hi = query.resolve_interval(n)
        stats = QueryStats()
        algo = get_algorithm(algorithm)
        with trace_span(
            "ingest.snapshot",
            algorithm=algorithm,
            **({"direction": "future"} if reverse else {}),
            snapshot_n=n,
            snapshot_version=snap.version,
            segments=len(snap.segments),
            tail_rows=len(snap.tail_values),
        ) as span:
            start = time.perf_counter()
            index = CountingTopKIndex(probe, stats, timed=tracing_active())
            ctx = AlgorithmContext(
                dataset=_SnapshotView(snap),  # type: ignore[arg-type]
                index=index,
                scorer=scorer,
                k=query.k,
                tau=query.tau,
                lo=lo,
                hi=hi,
                stats=stats,
            )
            ids = algo.run(ctx)
            elapsed = time.perf_counter() - start
            span.set(
                answers=len(ids),
                topk_queries=stats.topk_queries,
                parts_resolved=stitched.parts_resolved,
            )
            if index.timed and index.calls:
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
            extra={"snapshot_n": n, "snapshot_version": snap.version},
        )
        if with_durations:
            attach_max_durations(result, index)
        return result

    def query_batch(
        self,
        queries,
        scorer,
        algorithm="t-hop",
        with_durations: bool = False,
        snapshot: LiveSnapshot | None = None,
        window_memo=None,
        window_memo_reverse=None,
    ) -> list[DurableTopKResult]:
        """Answer a batch of queries over **one** snapshot in a shared pass.

        Byte-identical to answering each query alone against the same
        snapshot — same ids, durations, stats and ``extra`` stamps — with
        the batched economics of the engine's
        :meth:`~repro.core.engine.DurableTopKEngine.query_batch`: the
        stitched index is built once per direction, identical queries
        execute once (cloned results for their twins), and a shared
        :class:`~repro.index.topk.BatchTopKMemo` answers repeated
        durability windows once, primed by the segmented block's batched
        per-part pass. ``algorithm`` is one name or a per-query sequence.
        A whole batch sees a single consistent view: tail rows that land
        mid-batch wait for the next one.

        ``window_memo`` / ``window_memo_reverse`` optionally supply
        persistent :class:`~repro.cache.windows.WindowMemo` instances
        (forward / reversed) that are re-bound to this snapshot's
        stitched index and version, so windows answered by earlier
        batches seed this one across batch boundaries — the memo drops
        its entries whenever the snapshot version moved, which is what
        makes seeding safe under live ingest.
        """
        queries = list(queries)
        if isinstance(algorithm, str):
            algorithms = [algorithm] * len(queries)
        else:
            algorithms = [str(name) for name in algorithm]
            if len(algorithms) != len(queries):
                raise ValueError(
                    f"got {len(algorithms)} algorithms for {len(queries)} queries"
                )
        for name in algorithms:
            _validate_live_algorithm(name)
        scorer.validate_for(self.d)
        if not queries:
            return []
        snap = snapshot if snapshot is not None else self.snapshot()
        results: list[DurableTopKResult | None] = [None] * len(queries)

        n = snap.n
        # Look-ahead queries run as their mirrored look-back form over the
        # reversed stitched block — the engine's construction — and are
        # deduplicated on that form (what executes).
        for reverse, persistent in ((False, window_memo), (True, window_memo_reverse)):
            group = [
                (i, query.reversed(n) if reverse else query, algorithms[i])
                for i, query in enumerate(queries)
                if (query.direction is Direction.FUTURE) == reverse
            ]
            if not group:
                continue
            stitched = snap.stitched_index(scorer, reverse=reverse)
            plan = BatchPlan(group, n)
            probe = plan_index(plan, stitched, persistent, snap.version)
            for entry in plan.unique:
                result = self._query_past(
                    entry.query, scorer, entry.algorithm, with_durations, snap, stitched, probe,
                    reverse,
                )
                if reverse:
                    # Map the mirrored answer back through t -> n - 1 - t.
                    result.query = queries[entry.position]
                    result.ids = sorted(n - 1 - t for t in result.ids)
                    if result.durations is not None:
                        result.durations = {n - 1 - t: d for t, d in result.durations.items()}
                results[entry.position] = result
            for position, source in plan.duplicates.items():
                results[position] = clone_result(results[source], query=queries[position])
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self._state
        return (
            f"LiveDataset(name={self.name!r}, n={self.n}, d={self.d}, "
            f"segments={len(state.segments)}, tail={state.tail.count})"
        )
