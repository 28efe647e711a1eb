"""Batch planning for same-preference durable top-k query batches.

The serving layer already groups Zipfian traffic by preference; this
module turns one such group into an execution plan the engine (and the
live dataset) can run in a single shared pass:

* **Deduplication** — identical ``(algorithm, k, tau, window, direction)``
  queries execute once; duplicates receive a cloned result. Valid because
  every algorithm in this library is deterministic given the dataset and
  preference.
* **Alignment** — distinct queries are sorted by ``(algorithm, tau, k)``
  and descending window, so same-``tau`` trajectories run back to back:
  T-Hop visits every durable record in its range, which means two
  same-parameter trajectories coincide from the first durable record
  below ``min(hi)`` on — and a shared
  :class:`~repro.index.topk.BatchTopKMemo` answers the overlap once.
* **Opening windows** — the first durability window of every T-Base /
  T-Hop query, which :meth:`BatchTopKMemo.prime` answers in one
  vectorised ``np.partition`` pass before the trajectories start.

The plan itself never executes anything: byte-identity of the batched
path reduces to "each distinct query runs exactly the same code over a
memo that only short-circuits repeated identical calls".
:func:`plan_index` is the one place that decides whether a plan's
queries probe a memo. The memo lives for one batch: nothing a batch
learns about windows outlives it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import DurableTopKQuery, DurableTopKResult
from repro.index.topk import BatchTopKMemo

__all__ = ["BatchEntry", "BatchPlan", "clone_result", "plan_index"]

#: Algorithms whose first building-block call is the durability window
#: ``topk(k, hi - tau, hi)`` — the windows worth priming vectorised.
_WINDOW_OPENERS = ("t-base", "t-hop")


@dataclass(frozen=True)
class BatchEntry:
    """One distinct query of a batch, with its resolved window."""

    position: int  #: index into the original batch
    query: DurableTopKQuery
    algorithm: str
    lo: int
    hi: int


class BatchPlan:
    """Dedupe and order a batch of same-preference queries.

    Parameters
    ----------
    items:
        ``(position, query, algorithm)`` triples; ``algorithm`` must
        already be resolved (no ``"auto"``).
    n:
        Dataset size, used to resolve query intervals — two queries whose
        raw intervals differ but resolve identically deduplicate.
    """

    def __init__(self, items, n: int) -> None:
        self.n = n
        first_of: dict[tuple, int] = {}
        #: Duplicate position -> the position whose result it clones.
        self.duplicates: dict[int, int] = {}
        unique: list[BatchEntry] = []
        for position, query, algorithm in items:
            lo, hi = query.resolve_interval(n)
            signature = (algorithm, query.k, query.tau, lo, hi, query.direction)
            source = first_of.get(signature)
            if source is not None:
                self.duplicates[position] = source
                continue
            first_of[signature] = position
            unique.append(BatchEntry(position, query, algorithm, lo, hi))
        # Same-tau trajectories share their suffix; running them
        # adjacent and highest-window-first maximises memo locality.
        unique.sort(key=lambda e: (e.algorithm, e.query.tau, e.query.k, -e.hi, -e.lo))
        self.unique = unique

    def __len__(self) -> int:
        return len(self.unique) + len(self.duplicates)

    def opening_windows(self) -> dict[int, list[tuple[int, int]]]:
        """Per-``k`` first durability windows of the T-family entries.

        These are exactly the first calls the trajectories will issue
        (``topk(k, hi - tau, hi)``), keyed the way the memo keys them —
        unclamped, as the algorithms pass them.
        """
        windows: dict[int, list[tuple[int, int]]] = {}
        seen: set[tuple[int, int, int]] = set()
        for entry in self.unique:
            if entry.algorithm not in _WINDOW_OPENERS:
                continue
            key = (entry.query.k, entry.hi - entry.query.tau, entry.hi)
            if key in seen:
                continue
            seen.add(key)
            windows.setdefault(entry.query.k, []).append((key[1], key[2]))
        return windows


def plan_index(plan: BatchPlan, index):
    """The top-k block ``plan``'s distinct queries probe.

    A plan with several distinct queries gets a batch-scoped
    :class:`~repro.index.topk.BatchTopKMemo` over ``index``, primed with
    the plan's opening windows; a plan with one distinct query runs
    straight over ``index`` — a lone query has no window to share, so a
    memo and a priming pass would only cost it time.
    """
    if len(plan.unique) < 2:
        return index
    memo = BatchTopKMemo(index)
    for k, windows in plan.opening_windows().items():
        memo.prime(k, windows)
    return memo


def clone_result(
    result: DurableTopKResult, query: DurableTopKQuery | None = None
) -> DurableTopKResult:
    """An independent copy of ``result`` for a deduplicated twin query.

    Everything observable is copied (ids, stats, durations, extra) so
    callers may mutate their response without aliasing the original;
    ``query`` substitutes the twin's own (equal-valued) query object.
    """
    return DurableTopKResult(
        ids=list(result.ids),
        query=query if query is not None else result.query,
        algorithm=result.algorithm,
        stats=result.stats.copy(),
        elapsed_seconds=result.elapsed_seconds,
        durations=None if result.durations is None else dict(result.durations),
        extra=dict(result.extra),
    )
