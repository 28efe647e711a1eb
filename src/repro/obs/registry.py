"""Unified metrics registry: named counter/gauge/histogram series.

Series are created lazily and identified by a dotted name plus optional
labels, e.g. ``registry.counter("service.rejected", reason="timeout")``.
Every layer of the stack emits into the process-wide
:func:`global_registry` (WAL fsyncs, seal/compaction events, pool
evictions, answer-cache window seeds); the service-level
``MetricsCollector`` owns a private registry per collector so bench
rounds can reset without clobbering each other, and exposition merges
both (see :func:`repro.obs.export.render_prometheus`).

Updates take one per-series lock; series are low-frequency (per flush,
per seal, per batch — never per page or per index probe), so contention
and overhead are negligible even with tracing disabled.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
]

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Series:
    """Common identity for one named, labeled series."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()


class Counter(_Series):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()):
        super().__init__(name, labels)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge(_Series):
    """A value that goes up and down (segment counts, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()):
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram(_Series):
    """Count + sum + a bounded window of recent samples.

    The window (newest ``window`` observations) backs exact empirical
    quantiles, which is what the service snapshot reports; ``count`` and
    ``sum`` are exact over the series lifetime, matching the
    counter-style semantics Prometheus expects from a summary.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = (), window: int = 65536):
        super().__init__(name, labels)
        self._samples: deque[float] = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def samples(self) -> list[float]:
        with self._lock:
            return list(self._samples)

    def percentile(self, q: float) -> float:
        """Empirical q-quantile (q in [0, 100]) over the sample window."""

        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return 0.0
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def reset(self) -> None:
        with self._lock:
            self._samples.clear()
            self._count = 0
            self._sum = 0.0


class MetricsRegistry:
    """Get-or-create home for named series."""

    def __init__(self):
        self._lock = threading.Lock()
        self._series: dict[tuple[str, str, LabelKey], _Series] = {}

    def _get(self, cls, name: str, labels: dict, **kwargs) -> _Series:
        key = (cls.kind, name, _label_key(labels))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = cls(name, key[2], **kwargs)
                self._series[key] = series
            return series

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, window: int = 65536, **labels) -> Histogram:
        return self._get(Histogram, name, labels, window=window)

    def series(self) -> list[_Series]:
        with self._lock:
            return list(self._series.values())

    def collect(self, kind: str | None = None, prefix: str = "") -> list[_Series]:
        out = []
        for series in self.series():
            if kind is not None and series.kind != kind:
                continue
            if prefix and not series.name.startswith(prefix):
                continue
            out.append(series)
        return out

    def as_dict(self) -> dict:
        """Flat snapshot {name{labels}: value} for logs and tests."""

        out: dict[str, float] = {}
        for series in self.series():
            label_part = (
                "{" + ",".join(f"{k}={v}" for k, v in series.labels) + "}"
                if series.labels
                else ""
            )
            key = f"{series.name}{label_part}"
            if isinstance(series, Histogram):
                out[f"{key}.count"] = series.count
                out[f"{key}.sum"] = series.sum
            else:
                out[key] = series.value
        return out

    def reset(self) -> None:
        for series in self.series():
            series.reset()


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry lower layers emit into."""

    return _GLOBAL
