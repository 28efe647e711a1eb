"""Query specification, statistics and result types.

``DurTop(k, I, tau)`` returns the tau-durable records arriving inside the
query interval ``I`` (Section II). All of ``k``, ``I``, ``tau``, the scoring
function's preference vector and the window direction are query-time
parameters, matching the paper's emphasis on interactive exploration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.record import Dataset, Record

__all__ = ["Direction", "DurableTopKQuery", "QueryStats", "DurableTopKResult"]


class Direction(Enum):
    """Anchoring of the durability window relative to each record.

    ``PAST`` ("looking back"): the window ``[p.t - tau, p.t]`` ends at the
    record — "best in the past tau units". ``FUTURE`` ("looking ahead"):
    the window ``[p.t, p.t + tau]`` starts at the record — "stood for tau
    units before being beaten".
    """

    PAST = "past"
    FUTURE = "future"


@dataclass(frozen=True)
class DurableTopKQuery:
    """A durable top-k query ``DurTop(k, I, tau)``.

    Attributes
    ----------
    k:
        Rank threshold; a record must stay within the top ``k``.
    tau:
        Durability duration in time units (arrival slots).
    interval:
        Query interval ``I`` as an inclusive ``(lo, hi)`` pair of normalised
        arrival times, or ``None`` for the full time domain.
    direction:
        Window anchoring; see :class:`Direction`.
    """

    k: int
    tau: int
    interval: tuple[int, int] | None = None
    direction: Direction = Direction.PAST

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.interval is not None:
            lo, hi = self.interval
            if lo > hi:
                raise ValueError(f"empty query interval: lo={lo} > hi={hi}")
            if lo < 0:
                raise ValueError(f"interval lo must be >= 0, got {lo}")

    def resolve_interval(self, n: int) -> tuple[int, int]:
        """Clamp the query interval to a dataset of ``n`` records."""
        if n < 1:
            raise ValueError("dataset is empty")
        if self.interval is None:
            return 0, n - 1
        lo, hi = self.interval
        if lo >= n:
            raise ValueError(f"interval lo={lo} beyond dataset size {n}")
        return lo, min(hi, n - 1)

    def reversed(self, n: int) -> "DurableTopKQuery":
        """The equivalent look-back query over the time-reversed dataset."""
        lo, hi = self.resolve_interval(n)
        flipped = (n - 1 - hi, n - 1 - lo)
        direction = Direction.PAST if self.direction is Direction.FUTURE else Direction.FUTURE
        return DurableTopKQuery(self.k, self.tau, flipped, direction)


@dataclass(slots=True)
class QueryStats:
    """Instrumentation counters collected while answering one query.

    ``durability_topk_queries`` and ``candidate_topk_queries`` mirror the
    unshaded/shaded decomposition of the "#top-k queries" panels of
    Figures 8–11.
    """

    durability_topk_queries: int = 0
    candidate_topk_queries: int = 0
    false_checks: int = 0
    hops: int = 0
    hop_distance: int = 0
    blocked_skips: int = 0
    blocking_intervals: int = 0
    incremental_updates: int = 0
    heap_pushes: int = 0
    candidate_set_size: int = 0
    records_sorted: int = 0
    pages_read: int = 0
    pages_written: int = 0

    @property
    def topk_queries(self) -> int:
        """Total top-k building-block invocations."""
        return self.durability_topk_queries + self.candidate_topk_queries

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (for reports and aggregation)."""
        out = dict(zip(_STATS_FIELDS, _stats_values(self)))
        out["topk_queries"] = self.topk_queries
        return out

    def copy(self) -> "QueryStats":
        """An independent copy (every counter is an immutable number)."""
        return QueryStats(*_stats_values(self))

    def add(self, other: "QueryStats") -> None:
        """Accumulate another stats object into this one."""
        for name in _STATS_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


# Resolved once: ``dataclasses.fields`` walks the class on every call,
# and a cache hit copies and serialises one of these per answer.
_STATS_FIELDS = tuple(f.name for f in fields(QueryStats))
_stats_values = attrgetter(*_STATS_FIELDS)


@dataclass
class DurableTopKResult:
    """The answer to one durable top-k query plus run metadata.

    ``ids`` are normalised arrival times of the durable records, ascending.
    """

    ids: list[int]
    query: DurableTopKQuery
    algorithm: str
    stats: QueryStats = field(default_factory=QueryStats)
    elapsed_seconds: float = 0.0
    durations: dict[int, int] | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ids)

    def records(self, dataset: "Dataset") -> list["Record"]:
        """Materialise the answer as :class:`Record` objects."""
        return dataset.records(self.ids)

    def describe(self, dataset: "Dataset", scorer=None, limit: int = 20) -> str:
        """Human-readable summary, one line per durable record."""
        lines = [
            f"{self.algorithm}: {len(self.ids)} durable record(s) "
            f"(k={self.query.k}, tau={self.query.tau}, "
            f"{self.stats.topk_queries} top-k queries, "
            f"{self.elapsed_seconds * 1e3:.2f} ms)"
        ]
        for t in self.ids[:limit]:
            rec = dataset.record(t)
            stamp = rec.timestamp if rec.timestamp is not None else t
            label = f" {rec.label}" if rec.label else ""
            score = f" score={scorer.score_point(dataset.values[t]):.4f}" if scorer else ""
            duration = ""
            if self.durations and t in self.durations:
                duration = f" durable-for={self.durations[t]}"
            lines.append(f"  t={t} [{stamp}]{label}{score}{duration}")
        if len(self.ids) > limit:
            lines.append(f"  ... and {len(self.ids) - limit} more")
        return "\n".join(lines)
