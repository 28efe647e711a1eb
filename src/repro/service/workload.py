"""Multi-client workload generation for the serving layer.

The paper's experiments average over randomly drawn preference vectors
(Section VI); a *serving* workload additionally needs a popularity
distribution over those preferences and an arrival process. This module
provides both:

* **Preference popularity** — Zipfian over a fixed catalogue of
  preference vectors, the standard model for interactive query traffic
  (a few hot preferences dominate, a long tail keeps the caches honest).
* **Query-parameter mix** — ``k``, ``tau`` and interval length drawn per
  request from configurable choice sets (fractions of the dataset size,
  mirroring the Table III sweeps), with an optional share of look-ahead
  (``FUTURE``-direction) queries.
* **Arrival model** — *pipelined*: each client thread submits its share
  up front, then collects.

Generation is deterministic given the spec's seed, so the equivalence
tests can replay the exact request stream serially.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.query import Direction
from repro.scoring import LinearPreference, random_preference
from repro.service.request import QueryRequest, QueryResponse

__all__ = [
    "WorkloadSpec",
    "WorkloadGenerator",
    "zipfian_probabilities",
    "run_pipelined",
]


def zipfian_probabilities(n: int, s: float = 1.1) -> np.ndarray:
    """Zipf(s) popularity over ranks ``1..n``, normalised to sum 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if s < 0:
        raise ValueError(f"zipf exponent must be >= 0, got {s}")
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    return weights / weights.sum()


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of a synthetic serving workload.

    ``tau_fractions`` and ``interval_fractions`` are fractions of the
    dataset size ``n``; intervals are placed uniformly at random inside
    the time domain. ``future_fraction`` is the share of look-ahead
    queries (keep 0 for the MiniDB backend, whose procedures are
    look-back only).

    ``shapes_per_preference``, when set, pins each preference to a fixed
    catalogue of that many pre-drawn query shapes (``k``/``tau``/
    interval/direction/algorithm) and draws the shape per request
    Zipfian(``shape_zipf_s``) — the dashboard-tile traffic model, where
    a preference's hot panels repeat verbatim and near-duplicates
    overlap heavily. That repetition is what single-flight coalescing
    and the batched shared-pass execution feed on; leave it ``None`` for
    fully independent draws.
    """

    n_preferences: int = 64
    d: int = 2
    zipf_s: float = 1.1
    k_choices: Sequence[int] = (5, 10)
    tau_fractions: Sequence[float] = (0.025, 0.05)
    interval_fractions: Sequence[float] = (0.05, 0.10)
    algorithms: Sequence[str] = ("t-hop",)
    future_fraction: float = 0.0
    timeout: float | None = None
    seed: int = 0
    shapes_per_preference: int | None = None
    shape_zipf_s: float = 1.0


class WorkloadGenerator:
    """Draws :class:`QueryRequest` streams for one dataset size.

    The preference catalogue is materialised once (scorer objects are
    shared across requests, so requests for the same rank share a
    preference key — the property batching and pooling exploit).
    """

    def __init__(self, spec: WorkloadSpec, n: int) -> None:
        if n < 2:
            raise ValueError(f"dataset size must be >= 2, got {n}")
        self.spec = spec
        self.n = n
        self._rng = np.random.default_rng(spec.seed)
        self.scorers = [
            LinearPreference(random_preference(self._rng, spec.d))
            for _ in range(spec.n_preferences)
        ]
        self.popularity = zipfian_probabilities(spec.n_preferences, spec.zipf_s)
        if spec.shapes_per_preference is not None:
            if spec.shapes_per_preference < 1:
                raise ValueError(
                    f"shapes_per_preference must be >= 1, got "
                    f"{spec.shapes_per_preference}"
                )
            # Per-preference shape catalogues: each preference repeats
            # its own small set of query shapes (Zipfian-hot).
            self.shape_popularity = zipfian_probabilities(
                spec.shapes_per_preference, spec.shape_zipf_s
            )
            self.shapes = [
                [self._draw_shape() for _ in range(spec.shapes_per_preference)]
                for _ in range(spec.n_preferences)
            ]
        else:
            self.shape_popularity = None
            self.shapes = None

    def _draw_shape(self) -> tuple:
        """One (k, tau, interval, direction, algorithm) draw."""
        spec, rng, n = self.spec, self._rng, self.n
        k = int(rng.choice(list(spec.k_choices)))
        tau = max(1, int(float(rng.choice(list(spec.tau_fractions))) * n))
        length = max(1, int(float(rng.choice(list(spec.interval_fractions))) * n))
        lo = int(rng.integers(0, max(1, n - length)))
        hi = min(n - 1, lo + length - 1)
        direction = (
            Direction.FUTURE
            if spec.future_fraction > 0 and rng.random() < spec.future_fraction
            else Direction.PAST
        )
        algorithm = str(rng.choice(list(spec.algorithms)))
        return k, tau, (lo, hi), direction, algorithm

    def _request_for(self, rank: int) -> QueryRequest:
        """One request under the preference at popularity ``rank``."""
        spec, rng = self.spec, self._rng
        if self.shapes is not None:
            shape_rank = int(
                rng.choice(len(self.shape_popularity), p=self.shape_popularity)
            )
            k, tau, interval, direction, algorithm = self.shapes[rank][shape_rank]
        else:
            k, tau, interval, direction, algorithm = self._draw_shape()
        return QueryRequest(
            scorer=self.scorers[rank],
            k=k,
            tau=tau,
            interval=interval,
            direction=direction,
            algorithm=algorithm,
            timeout=spec.timeout,
        )

    def request(self) -> QueryRequest:
        """One request drawn from the spec's distributions."""
        rng = self._rng
        return self._request_for(int(rng.choice(len(self.scorers), p=self.popularity)))

    def requests(self, count: int) -> list[QueryRequest]:
        """A deterministic batch of ``count`` requests."""
        return [self.request() for _ in range(count)]


def run_pipelined(
    submit: Callable[[QueryRequest], "object"],
    requests: Sequence[QueryRequest],
    clients: int = 8,
) -> list[QueryResponse]:
    """Each client submits its share up front, then collects responses.

    The pipelined model: clients tolerate response latency but not
    admission latency (think dashboard tiles fanning out panel queries).
    Because submits don't wait for completions, the service sees deep
    per-preference queues — the regime where request batching actually
    coalesces work. A lock-based service cannot be driven this way at
    all: its blocking call *is* the admission. Responses come back in
    request order.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    shards = [list(range(i, len(requests), clients)) for i in range(clients)]
    futures: list[object | None] = [None] * len(requests)
    errors: list[BaseException] = []

    def client(shard: list[int]) -> None:
        try:
            for i in shard:
                futures[i] = submit(requests[i])
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(shard,), name=f"pipelined-client-{i}")
        for i, shard in enumerate(shards)
        if shard
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [future.result() for future in futures]  # type: ignore[union-attr]

