"""Semantic answer caching for durable top-k serving.

Two tiers of structural reuse sit in front of execution, cheapest first:

* **exact** — :class:`SemanticAnswerCache`: a byte-bounded LRU of
  completed answers keyed on the version plus the request's
  :attr:`~repro.service.request.QueryRequest.query_key` (preference,
  algorithm, k, tau, I, direction). A hit replays a clone and skips the
  queue entirely. The cache invalidates by epoch (``Dataset.version`` /
  live snapshot version), never by scanning.
* **in-flight** — :class:`InFlightRegistry`: single-flight; a request
  identical to one already queued or executing joins that flight
  instead of executing.

Everything else is a **miss** and executes; the backends' batched paths
answer a batch's repeated queries and windows once.
"""

from repro.cache.answers import SemanticAnswerCache
from repro.cache.inflight import InFlight, InFlightRegistry

__all__ = [
    "InFlight",
    "InFlightRegistry",
    "SemanticAnswerCache",
]
