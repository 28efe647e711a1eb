"""Request/response envelope of the concurrent durable top-k service.

A :class:`QueryRequest` is everything one client asks for: a scoring
function (the user-specified preference, Section II of the paper) plus
the durable top-k parameters ``k``/``tau``/interval/direction and the
algorithm to run. Requests from many client threads are funnelled into
:class:`repro.service.service.DurableTopKService`, which groups them by
*preference key* — requests under the same preference share a warm
:class:`~repro.core.session.QuerySession` and execute back-to-back as a
batch.

A :class:`QueryResponse` pairs the request with either a
:class:`~repro.core.query.DurableTopKResult` or a typed
:class:`QueryRejected` (admission-control refusals never raise inside the
service; they travel to the caller as data, so an open-loop load
generator can count rejections without unwinding its submit loop).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Hashable

from repro.core.query import Direction, DurableTopKQuery, DurableTopKResult

__all__ = [
    "QueryRequest",
    "QueryResponse",
    "QueryRejected",
    "RejectionReason",
    "preference_key",
]


def preference_key(scorer) -> Hashable:
    """Hashable identity of a scorer's preference.

    Mirrors the engine's LRU key: the preference *content* (``scorer.u``)
    when the scorer carries a weight vector, else the scorer object
    itself (held in the key, so a recycled ``id()`` can never alias two
    scorers). Two equal-weight scorers of the same type therefore share
    a session, exactly as they share a preference-bound index.
    """
    u = getattr(scorer, "u", None)
    if u is None:
        return (type(scorer).__name__, scorer)
    return (type(scorer).__name__, tuple(float(w) for w in u))


class RejectionReason(enum.Enum):
    """Why the service refused to answer a request."""

    #: The bounded admission queue was full at submit time.
    QUEUE_FULL = "queue_full"
    #: The request waited in the queue past its deadline.
    TIMEOUT = "timeout"
    #: The service was shut down before the request was served.
    SHUTDOWN = "shutdown"
    #: Below-normal-priority work dropped while an SLO's fast burn-rate
    #: window was on fire (degradation, not overload — see
    #: :mod:`repro.obs.slo`).
    SHED = "shed"


class QueryRejected(RuntimeError):
    """Typed admission-control rejection."""

    def __init__(self, reason: RejectionReason, message: str) -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class QueryRequest:
    """One durable top-k question, service-ready.

    ``timeout`` bounds the time a request may sit in the admission queue
    (seconds); a request picked up past its deadline is rejected with
    :attr:`RejectionReason.TIMEOUT` instead of executed. ``None`` waits
    indefinitely.

    ``priority`` only matters under duress: requests below 0 are the
    first to be shed when SLO burn-rate monitoring reports a fast burn
    (see :class:`repro.obs.slo.SLOMonitor`). It never reorders the
    queue — admission stays FIFO per preference.
    """

    scorer: Any
    k: int
    tau: int
    interval: tuple[int, int] | None = None
    direction: Direction = Direction.PAST
    algorithm: str = "s-hop"
    timeout: float | None = None
    priority: int = 0

    @property
    def key(self) -> Hashable:
        """The batching/session key (see :func:`preference_key`)."""
        return preference_key(self.scorer)

    @cached_property
    def query_key(self) -> tuple:
        """The request's structural identity: what makes two requests the
        *same* query.

        ``(preference key, algorithm, k, tau, interval, direction)`` —
        the answer cache keys on it (prefixed by the epoch) and the
        service's single-flight keys on it. The raw interval is used as
        given; ``timeout`` and ``priority`` are serving policy, not
        structure. Computed once per request object.
        """
        return (
            self.key,
            self.algorithm,
            self.k,
            self.tau,
            self.interval,
            self.direction,
        )

    def as_query(self) -> DurableTopKQuery:
        """The engine-level query object for this request."""
        return DurableTopKQuery(
            k=self.k, tau=self.tau, interval=self.interval, direction=self.direction
        )


@dataclass
class QueryResponse:
    """The service's answer to one request, with serving metadata.

    Attributes
    ----------
    result:
        The query result, or ``None`` when rejected.
    error:
        The typed rejection, or ``None`` on success.
    wait_seconds / service_seconds / total_seconds:
        Queue wait, execution time, and submit-to-completion latency.
    batch_size:
        Number of same-preference requests served in the same batch.
    pool_hit:
        Whether the serving session came warm from the pool.
    """

    request: QueryRequest
    result: DurableTopKResult | None = None
    error: QueryRejected | None = None
    wait_seconds: float = 0.0
    service_seconds: float = 0.0
    total_seconds: float = 0.0
    batch_size: int = 1
    pool_hit: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the request was answered (not rejected)."""
        return self.error is None

    def unwrap(self) -> DurableTopKResult:
        """The result, raising the typed rejection if there is one."""
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result
