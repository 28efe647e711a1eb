"""The exact tier: a semantic answer cache keyed on query structure.

Durable top-k answers are small, structured objects — Lemma 4 bounds the
expected answer size at ``E[|S|] = k|I|/(tau+1)`` records (validated in
``results/lemma4_answer_size.txt``) — and the serving workload is
Zipfian over a fixed catalogue of preferences whose hot query shapes
repeat verbatim. :class:`SemanticAnswerCache` exploits both facts: it
stores one completed :class:`~repro.core.query.DurableTopKResult` per
query *structure* — the request's ``query_key`` at one epoch,

    ``(dataset_version, (preference, algorithm, k, tau, I, direction))``

and replays an independent clone on an exact structural hit, skipping
the admission queue, the session pool and the execution backend
entirely.

Three properties the design pins down:

* **Staleness is impossible by construction.** The version is part of
  the key: lookups use the backend's *current* dataset/snapshot version,
  fills use the version the answer was actually computed at (the live
  backend's ``snapshot_version`` stamp). Versions only grow and a
  lookup always asks for the newest, so an entry of an older epoch can
  never match again: the first fill at a newer epoch drops every entry
  at once, and a fill computed at an older epoch than the newest seen
  is refused. Ingest therefore invalidates by epoch, never by scanning,
  and the cache only ever holds answers of one epoch.
* **Memory is bounded in bytes, with a Lemma-4 admission estimate.**
  The cache holds at most ``capacity_bytes`` of entries, each charged
  for the memory it was measured to hold; at admission a query with a
  known interval is sized by the lemma (``k|I|/(tau+1)`` ids) before
  its actual answer is weighed, and an entry estimated above
  ``max_entry_bytes`` is refused outright — one pathological
  full-domain query cannot wipe the working set.
* **A hit is a replay, not a reference.** Both fill and hit go through
  :func:`~repro.core.batch.clone_result`, so callers can mutate their
  response (and the service can stamp serving metadata) without
  aliasing the cached copy.

Lookup outcomes are counted per tier in the metrics registry
(``cache.lookups{tier=exact|miss}``), resident bytes ride the
``cache.bytes`` gauge, and every lookup opens a ``cache.lookup`` trace
span — the same one-boolean-check fast path as every other span when
tracing is off. Thread-safe: one lock around the LRU, held only for
dict operations (cloning happens outside it).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro.analysis.expected import expected_answer_size
from repro.core.batch import clone_result
from repro.core.query import DurableTopKResult
from repro.obs import MetricsRegistry, global_registry, trace_span

__all__ = ["SemanticAnswerCache"]

# Per-entry charges, fitted to the ``tracemalloc`` growth of a cache
# filled with 2,000 t-hop answers, in runs whose answers averaged 3, 225
# and 1,843 ids (CPython 3.11, 64-bit).
#: Fixed cost of one entry: its key tuples, the cloned result with its
#: query and stats objects, and the LRU slot (measured ~1,385 B).
ENTRY_OVERHEAD_BYTES = 1_400
#: One answer id: a list slot plus its int object (measured ~40 B).
ID_BYTES = 40
#: One ``durations`` entry: a dict slot plus two int objects (measured
#: ~92 B).
DURATION_BYTES = 96


@dataclass
class _Entry:
    """One cached answer with the bytes it is charged for."""

    result: DurableTopKResult
    bytes: int


def _result_bytes(result: DurableTopKResult) -> int:
    """Charge for one cached answer: fixed overhead plus its payload."""
    charged = ENTRY_OVERHEAD_BYTES + ID_BYTES * len(result.ids)
    if result.durations:
        charged += DURATION_BYTES * len(result.durations)
    return charged


class SemanticAnswerCache:
    """Byte-bounded LRU of durable top-k answers, keyed on structure.

    Parameters
    ----------
    capacity_bytes:
        Total charged entry bytes retained (LRU-evicted beyond it).
    max_entry_bytes:
        Admission ceiling for a single answer; defaults to an eighth of
        the capacity. Estimated via Lemma 4 when the query carries an
        explicit interval, else via the actual answer size.
    registry:
        Metrics registry for the lookup/bytes series; defaults to the
        process-wide :func:`~repro.obs.global_registry` so Prometheus
        export and ``repro top`` see cache traffic without wiring.
    """

    def __init__(
        self,
        capacity_bytes: int = 64 * 1024 * 1024,
        max_entry_bytes: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if capacity_bytes < 1:
            raise ValueError(f"capacity_bytes must be >= 1, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.max_entry_bytes = (
            max_entry_bytes if max_entry_bytes is not None else capacity_bytes // 8
        )
        self.registry = registry if registry is not None else global_registry()
        # Resolved once: ``registry.counter`` takes a lock and sorts the
        # labels on every call, and ``MetricsRegistry.reset`` zeroes a
        # series in place, so the objects stay the live series.
        self._lookups = {
            tier: self.registry.counter("cache.lookups", tier=tier)
            for tier in ("exact", "miss")
        }
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        # The newest epoch any admitted fill was computed at; every
        # resident entry belongs to it.
        self._version: int | None = None
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.admission_rejected = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _key(request, version: int) -> Hashable:
        """The structural identity of one request at one epoch: the
        request's :attr:`~repro.service.request.QueryRequest.query_key`
        (the same key the service single-flights on) pinned to
        ``version``."""
        return (version, request.query_key)

    @staticmethod
    def estimate_bytes(request) -> int | None:
        """Lemma-4 admission estimate; ``None`` without an explicit interval."""
        if request.interval is None:
            return None
        lo, hi = request.interval
        expected = expected_answer_size(request.k, abs(hi - lo) + 1, request.tau)
        return ENTRY_OVERHEAD_BYTES + int(ID_BYTES * expected)

    # ------------------------------------------------------------------
    def get(self, request, version: int) -> DurableTopKResult | None:
        """An independent clone of the cached answer, or ``None``.

        ``version`` must be the backend's *current* dataset/snapshot
        version — an entry filled at an older epoch can never match.
        """
        key = self._key(request, version)
        with trace_span(
            "cache.lookup",
            algorithm=request.algorithm,
            k=request.k,
            tau=request.tau,
        ) as span:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                else:
                    self.misses += 1
            tier = "exact" if entry is not None else "miss"
            span.set(tier=tier)
        self._lookups[tier].inc()
        if entry is None:
            return None
        return clone_result(entry.result, query=request.as_query())

    def put(self, request, version: int, result: DurableTopKResult) -> bool:
        """Admit one completed answer; returns whether it was cached.

        ``version`` is the epoch the answer was computed at (for live
        backends: the snapshot version stamped on the result). A fill
        older than the newest epoch seen is refused, since no lookup can
        reach it; a fill newer than it first drops every resident entry.
        """
        estimated = self.estimate_bytes(request)
        actual = _result_bytes(result)
        if max(estimated or 0, actual) > self.max_entry_bytes:
            with self._lock:
                self.admission_rejected += 1
            return False
        entry = _Entry(clone_result(result), actual)
        key = self._key(request, version)
        evicted = 0
        with self._lock:
            if self._version is not None and version < self._version:
                return False
            if version != self._version:
                self._entries.clear()
                self.bytes = 0
                self._version = version
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.bytes -= previous.bytes
            self._entries[key] = entry
            self.bytes += entry.bytes
            self.fills += 1
            while self.bytes > self.capacity_bytes and self._entries:
                _, old = self._entries.popitem(last=False)
                self.bytes -= old.bytes
                evicted += 1
            self.evictions += evicted
            resident = self.bytes
        if evicted:
            self.registry.counter("cache.evictions").inc(evicted)
        self.registry.gauge("cache.bytes").set(resident)
        return True

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict[str, float | int]:
        with self._lock:
            entries = len(self._entries)
            resident = self.bytes
        return {
            "entries": entries,
            "bytes": resident,
            "capacity_bytes": self.capacity_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "fills": self.fills,
            "evictions": self.evictions,
            "admission_rejected": self.admission_rejected,
        }

    def clear(self) -> None:
        """Drop every entry (counters survive; used by benches/tests)."""
        with self._lock:
            self._entries.clear()
            self.bytes = 0
        self.registry.gauge("cache.bytes").set(0)
