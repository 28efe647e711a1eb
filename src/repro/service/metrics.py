"""Latency and throughput accounting for the serving layer.

The collector answers the questions an SLO dashboard asks of a top-k
serving system: how many requests per second, what the p50/p95/p99
latency is, how often the session pool served a warm session, and how
many requests were turned away (and why).

Since the obs PR the collector is a facade over a
:class:`repro.obs.MetricsRegistry`: every service counter is a named
registry series (``service.requests.submitted``,
``service.rejected{reason=...}``, ``service.latency_seconds`` ...), so
the same numbers the snapshot reports are exposable as Prometheus text
via :func:`repro.obs.render_prometheus`. Each collector owns a private
registry by default — bench drivers create or reset one per measured
round — while process-wide series (WAL, pool evictions) live in the
obs global registry. The snapshot/report API is unchanged.

The service records a handful of events per *batch*; each touches a few
per-series locks, far off the per-query hot path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import MetricsRegistry
from repro.obs.slo import SLOMonitor
from repro.service.request import QueryResponse, RejectionReason

__all__ = ["MetricsCollector", "MetricsSnapshot", "percentile"]


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches numpy's default ("linear") method so reported figures agree
    with offline analysis — in particular, a p99 over fewer than 100
    samples interpolates between the two top order statistics instead of
    degrading to the sample maximum (nearest-rank behaviour), which
    matters for every short smoke run and warmup window. Returns 0.0 for
    an empty sample set; ``q`` is clamped into [0, 100].
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    q = min(max(q, 0.0), 100.0)
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class MetricsSnapshot:
    """A point-in-time copy of the service counters, plus derived rates."""

    elapsed_seconds: float
    submitted: int
    completed: int
    rejected: dict[str, int]
    batches: int
    pool_hits: int
    pool_misses: int
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_mean: float
    wait_p95: float
    service_p95: float
    extra: dict = field(default_factory=dict)
    #: Requests answered by another request's execution: submits that
    #: joined an identical request's open flight (single-flight).
    coalesced: int = 0
    #: Per-SLO burn-rate status (see :meth:`repro.obs.slo.SLOMonitor.status`);
    #: empty when the collector carries no SLO monitor.
    slo: dict[str, dict] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Completed requests per second over the measured window."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.completed / self.elapsed_seconds

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    @property
    def pool_hit_rate(self) -> float:
        checkouts = self.pool_hits + self.pool_misses
        return self.pool_hits / checkouts if checkouts else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.completed / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        out = {
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": dict(self.rejected),
            "throughput_rps": round(self.throughput, 1),
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "pool_hit_rate": round(self.pool_hit_rate, 4),
            "latency_ms": {
                "p50": round(self.latency_p50 * 1e3, 3),
                "p95": round(self.latency_p95 * 1e3, 3),
                "p99": round(self.latency_p99 * 1e3, 3),
                "mean": round(self.latency_mean * 1e3, 3),
            },
            "wait_p95_ms": round(self.wait_p95 * 1e3, 3),
            "service_p95_ms": round(self.service_p95 * 1e3, 3),
            "coalesced": self.coalesced,
        }
        if self.extra:
            out["extra"] = dict(self.extra)
        if self.slo:
            out["slo"] = {
                name: dict(status) for name, status in self.slo.items()
            }
        return out

    def report(self, title: str = "service metrics") -> str:
        """Human-readable multi-line summary (result-file friendly)."""
        rej = ", ".join(f"{k}={v}" for k, v in sorted(self.rejected.items())) or "none"
        lines = [
            title,
            f"  requests: submitted={self.submitted} completed={self.completed} "
            f"rejected=[{rej}]",
            f"  throughput: {self.throughput:.1f} req/s over {self.elapsed_seconds:.2f}s",
            f"  latency ms: p50={self.latency_p50 * 1e3:.2f} "
            f"p95={self.latency_p95 * 1e3:.2f} p99={self.latency_p99 * 1e3:.2f} "
            f"mean={self.latency_mean * 1e3:.2f}",
            f"  queue wait p95: {self.wait_p95 * 1e3:.2f} ms   "
            f"service p95: {self.service_p95 * 1e3:.2f} ms",
            f"  batching: {self.batches} batches, mean size {self.mean_batch_size:.2f}, "
            f"{self.coalesced} coalesced (flight joins)",
            f"  session pool: hit rate {self.pool_hit_rate:.1%} "
            f"({self.pool_hits} hits / {self.pool_misses} misses)",
        ]
        cache = self.extra.get("cache")
        if cache:
            lines.append(
                f"  answer cache: hit rate {cache.get('hit_rate', 0.0):.1%} "
                f"({cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses), "
                f"{cache.get('entries', 0)} entries, "
                f"{cache.get('bytes', 0)} bytes resident, "
                f"{cache.get('evictions', 0)} evicted"
            )
        for name, status in sorted(self.slo.items()):
            state = "BURNING" if status.get("burning") else "ok"
            lines.append(
                f"  slo {name}: {state} burn fast={status.get('fast_burn_rate', 0.0):.2f} "
                f"slow={status.get('slow_burn_rate', 0.0):.2f} "
                f"(bad {status.get('bad', 0)}/{status.get('events', 0)} "
                f"over {status.get('description', '')!r})"
            )
        return "\n".join(lines)


class MetricsCollector:
    """Thread-safe accumulator fed by the service (and readable any time).

    ``completed`` counts *answered* requests only — rejections live in
    ``rejected`` and never pollute the throughput or latency figures.
    Latency samples are kept in a bounded sliding window
    (``sample_window`` most recent responses), so a long-lived service
    reports recent percentiles at constant memory instead of growing a
    list per request forever.

    Every counter is a series in ``self.registry`` (private by default;
    pass one to share). ``add_source`` registers a callable polled at
    snapshot time for component-owned gauges — the answer cache reports
    its hit/miss/eviction counts this way, so the service snapshot
    surfaces them in ``extra`` without the service polling the cache.

    Pass an :class:`~repro.obs.slo.SLOMonitor` as ``slos`` to evaluate
    burn rates over the same event stream: every answered response feeds
    the latency (and, when the result carries ``staleness_rows``, the
    staleness) objective, every admission outcome feeds the rejection
    objective, and the monitor's gauges are published into this
    collector's registry so Prometheus export and ``repro top`` see
    them. The per-event cost is a few deque appends (about 2 µs per
    answered request, see :mod:`repro.obs.slo`).
    """

    def __init__(
        self,
        sample_window: int = 65_536,
        registry: MetricsRegistry | None = None,
        slos: SLOMonitor | None = None,
    ) -> None:
        if sample_window < 1:
            raise ValueError(f"sample_window must be >= 1, got {sample_window}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slos = slos
        if slos is not None:
            slos.bind_registry(self.registry)
        self._started = time.perf_counter()
        self._submitted = self.registry.counter("service.requests.submitted")
        self._completed = self.registry.counter("service.requests.completed")
        self._batches = self.registry.counter("service.batches")
        self._pool_hits = self.registry.counter("service.pool.hits")
        self._pool_misses = self.registry.counter("service.pool.misses")
        self._coalesced = self.registry.counter("service.coalesced")
        self._latency = self.registry.histogram(
            "service.latency_seconds", window=sample_window
        )
        self._wait = self.registry.histogram(
            "service.wait_seconds", window=sample_window
        )
        self._service = self.registry.histogram(
            "service.time_seconds", window=sample_window
        )
        self._sources: list[Callable[[], dict]] = []

    # -- back-compat attribute surface ----------------------------------
    @property
    def submitted(self) -> int:
        return self._submitted.value

    @property
    def completed(self) -> int:
        return self._completed.value

    @property
    def batches(self) -> int:
        return self._batches.value

    @property
    def pool_hits(self) -> int:
        return self._pool_hits.value

    @property
    def pool_misses(self) -> int:
        return self._pool_misses.value

    @property
    def coalesced(self) -> int:
        """Submits that joined an identical request's open flight."""
        return self._coalesced.value

    def _labeled(self, name: str, label: str) -> dict:
        out: dict = {}
        for series in self.registry.collect(kind="counter", prefix=name):
            labels = dict(series.labels)
            if label in labels:
                out[labels[label]] = series.value
        return out

    @property
    def rejected(self) -> dict[str, int]:
        return self._labeled("service.rejected", "reason")

    # -- recording hooks (called by DurableTopKService) -----------------
    def record_submit(self) -> None:
        self._submitted.inc()

    def record_rejection(self, reason: RejectionReason) -> None:
        self.registry.counter("service.rejected", reason=reason.value).inc()
        if self.slos is not None:
            self.slos.record("rejections", bad=True)

    def record_batch(self, pool_hit: bool) -> None:
        self._batches.inc()
        if pool_hit:
            self._pool_hits.inc()
        else:
            self._pool_misses.inc()

    def record_coalesced(self, n: int) -> None:
        """Count ``n`` requests that rode another identical request's
        execution by joining its flight."""
        self._coalesced.inc(n)

    def record_response(self, response: QueryResponse) -> None:
        if response.error is not None:
            return  # rejections are counted by record_rejection only
        self._completed.inc()
        self._latency.observe(response.total_seconds)
        self._wait.observe(response.wait_seconds)
        self._service.observe(response.service_seconds)
        if self.slos is not None:
            self.slos.observe("latency", response.total_seconds)
            self.slos.record("rejections", bad=False)
            staleness = None
            if response.result is not None:
                staleness = response.result.extra.get("staleness_rows")
            if staleness is not None:
                self.slos.observe("staleness", float(staleness))

    def add_source(self, source: Callable[[], dict]) -> None:
        """Poll ``source()`` at snapshot time for backend-owned counters.

        The returned dict lands in ``snapshot.extra``. Source failures are surfaced, not swallowed —
        a backend that registers a source promises it stays callable.
        """
        self._sources.append(source)

    def reset(self) -> None:
        """Full reset: clock, samples and every counter series.

        This is the post-warmup reset: percentiles, throughput and
        counters all start from zero. Snapshot sources stay registered
        (their counters are cumulative by design).
        """
        self.registry.reset()
        if self.slos is not None:
            self.slos.reset()
        self._started = time.perf_counter()

    # -- reading ---------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        latency = self._latency.samples()
        wait = self._wait.samples()
        service = self._service.samples()
        elapsed = time.perf_counter() - self._started
        sourced: dict = {}
        for source in self._sources:
            sourced.update(source())
        slo = self.slos.status() if self.slos is not None else {}
        return MetricsSnapshot(
            elapsed_seconds=elapsed,
            submitted=self.submitted,
            completed=self.completed,
            rejected=self.rejected,
            batches=self.batches,
            pool_hits=self.pool_hits,
            pool_misses=self.pool_misses,
            latency_p50=percentile(latency, 50),
            latency_p95=percentile(latency, 95),
            latency_p99=percentile(latency, 99),
            latency_mean=sum(latency) / len(latency) if latency else 0.0,
            wait_p95=percentile(wait, 95),
            service_p95=percentile(service, 95),
            extra=sourced,
            coalesced=self.coalesced,
            slo=slo,
        )
