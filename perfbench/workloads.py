"""Workload definitions: inputs drawn from the seed, frozen rates and windows.

Everything a run sends or loads is a pure function of ``(workload,
seed, seconds)``, so the load generator and the system under test (SUT)
draw identical inputs in two processes without exchanging them, and the
same seed replays the same run.

The offered rates below were set once, at no more than about 40% of the
``capacity_qps`` this benchmark measured when it was written, and are
frozen: a later change that makes the stack faster must not raise them,
or latency before and after would be measured at different loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.engine import DurableTopKEngine
from repro.core.query import Direction, DurableTopKQuery
from repro.core.record import Dataset
from repro.data import independent_uniform
from repro.scoring import LinearPreference, random_preference
from repro.service import QueryRequest, WorkloadGenerator, WorkloadSpec, zipfian_probabilities

WIRE_WORKLOADS = ("wire_hot_tiles", "wire_fresh_prefs", "wire_live_ingest")
WORKLOADS = WIRE_WORKLOADS + ("paper_sweep",)

#: Share of ``--seconds`` spent in the closed-window capacity phase; the
#: open-loop latency phase gets the rest.
CAPACITY_SHARE = 0.55

#: Stack set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: The API key the SUT registers and the generator authenticates with.
API_KEY = "perfbench-key"

@dataclass(frozen=True)
class Wire:
    """Frozen load parameters of one wire workload."""

    name: str
    #: Outstanding requests in the capacity phase, split over 2 connections.
    window: int
    #: Open-loop Poisson offered rate of the latency phase (req/s).
    rate: float
    #: Requests drawn per second of capacity phase (an upper bound).
    capacity_draw_qps: int


WIRE = {
    "wire_hot_tiles": Wire("wire_hot_tiles", window=32, rate=1000.0, capacity_draw_qps=20_000),
    "wire_fresh_prefs": Wire("wire_fresh_prefs", window=8, rate=40.0, capacity_draw_qps=1_000),
    "wire_live_ingest": Wire("wire_live_ingest", window=8, rate=16.0, capacity_draw_qps=1_000),
}

# -- engine-backed workloads (hot tiles, fresh preferences) ------------------
ENGINE_N = 60_000
K_CHOICES = (5, 10)
TAU_FRACTIONS = (0.05, 0.10)
INTERVAL_FRACTIONS = (0.02, 0.05)

HOT_PREFERENCES = 64
HOT_ZIPF = 1.1
HOT_SHAPES = 8
HOT_SHAPE_ZIPF = 1.2

FRESH_WARMUP = 32

# -- live ingest -------------------------------------------------------------
LIVE_N0 = 100_000
LIVE_ROWS_PER_S = 5_000
LIVE_BATCH_ROWS = 50  # one extend() every 10 ms
LIVE_PREFERENCES = 32
LIVE_TAU = 1_000
LIVE_LENGTHS = (2_000, 4_000)
#: Every fourth live request runs T-Base, the rest T-Hop: the median
#: then sits inside the T-Hop mode and p90 inside the T-Base mode
#: instead of on the boundary between them.
LIVE_T_BASE_EVERY = 4


def phase_seconds(seconds: float) -> tuple[float, float]:
    """``(capacity, latency)`` phase durations for a run of ``seconds``."""
    capacity = seconds * CAPACITY_SHARE
    return capacity, seconds - capacity


def live_rows(seconds: float) -> tuple[int, int]:
    """Rows the writer appends in the capacity and latency phases."""
    return tuple(round(LIVE_ROWS_PER_S * s) for s in phase_seconds(seconds))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------------------
# Data (both processes)
# ---------------------------------------------------------------------------
def engine_values(seed: int) -> np.ndarray:
    """The IND n=60k, d=2 table behind hot tiles and fresh preferences."""
    return independent_uniform(ENGINE_N, 2, seed=_rng(seed, 0)).values


def live_master(seed: int, seconds: float) -> np.ndarray:
    """Seed rows plus every row the writer will append, in arrival order."""
    return _rng(seed, 1).random((LIVE_N0 + sum(live_rows(seconds)), 2))


# ---------------------------------------------------------------------------
# Request streams (generator side)
# ---------------------------------------------------------------------------
@dataclass
class Streams:
    """A run's pre-drawn requests, one list per phase.

    For the live workload each request's ``interval`` only fixes its
    length, ``(0, length - 1)``; :func:`anchor_live` moves it to the
    growing end at send time.
    """

    warmup: list
    capacity: list
    latency: list
    arrivals: list  # latency-phase intended send offsets (seconds)


def poisson_offsets(rng: np.random.Generator, rate: float, duration: float) -> list[float]:
    """Open-loop Poisson arrival offsets in ``[0, duration)``.

    A Poisson process conditioned on ``rate * duration`` arrivals in the
    window places them iid uniformly, so the count (and with it the
    phase length and the offered rate) is the same on every seed.
    """
    count = max(1, round(rate * duration))
    return sorted(float(t) for t in rng.uniform(0.0, duration, size=count))


def _engine_shape(rng: np.random.Generator, n: int) -> tuple:
    k = int(rng.choice(K_CHOICES))
    tau = max(1, int(float(rng.choice(TAU_FRACTIONS)) * n))
    length = max(1, int(float(rng.choice(INTERVAL_FRACTIONS)) * n))
    lo = int(rng.integers(0, n - length))
    return k, tau, (lo, lo + length - 1)


def hot_catalogue(seed: int) -> list[QueryRequest]:
    """The 64 x 8 distinct dashboard tiles, preference-major."""
    spec = WorkloadSpec(
        n_preferences=HOT_PREFERENCES,
        d=2,
        zipf_s=HOT_ZIPF,
        k_choices=K_CHOICES,
        tau_fractions=TAU_FRACTIONS,
        interval_fractions=INTERVAL_FRACTIONS,
        algorithms=("t-hop",),
        seed=int(_rng(seed, 2).integers(2**31)),
        shapes_per_preference=HOT_SHAPES,
        shape_zipf_s=HOT_SHAPE_ZIPF,
    )
    generator = WorkloadGenerator(spec, ENGINE_N)
    return [
        QueryRequest(
            scorer=scorer, k=k, tau=tau, interval=interval, direction=direction,
            algorithm=algorithm,
        )
        for scorer, shapes in zip(generator.scorers, generator.shapes)
        for k, tau, interval, direction, algorithm in shapes
    ]


def _hot_draw(rng: np.random.Generator, catalogue: list, count: int) -> list:
    prefs = rng.choice(HOT_PREFERENCES, size=count, p=zipfian_probabilities(HOT_PREFERENCES, HOT_ZIPF))
    shapes = rng.choice(HOT_SHAPES, size=count, p=zipfian_probabilities(HOT_SHAPES, HOT_SHAPE_ZIPF))
    return [catalogue[p * HOT_SHAPES + s] for p, s in zip(prefs.tolist(), shapes.tolist())]


def _fresh_draw(rng: np.random.Generator, count: int) -> list:
    out = []
    for _ in range(count):
        scorer = LinearPreference(random_preference(rng, 2))
        k, tau, interval = _engine_shape(rng, ENGINE_N)
        out.append(QueryRequest(scorer=scorer, k=k, tau=tau, interval=interval, algorithm="t-hop"))
    return out


def _live_draw(rng: np.random.Generator, scorers: list, count: int) -> list:
    out = []
    for i in range(count):
        out.append(
            QueryRequest(
                scorer=scorers[int(rng.integers(len(scorers)))],
                k=int(rng.choice(K_CHOICES)),
                tau=LIVE_TAU,
                interval=(0, int(rng.choice(LIVE_LENGTHS)) - 1),
                algorithm="t-base" if i % LIVE_T_BASE_EVERY == LIVE_T_BASE_EVERY - 1 else "t-hop",
            )
        )
    return out


def draw_streams(workload: str, seed: int, seconds: float) -> Streams:
    """Every request a wire run sends, drawn in advance from ``seed``."""
    wire = WIRE[workload]
    capacity_s, latency_s = phase_seconds(seconds)
    rng = _rng(seed, 3)
    arrivals = poisson_offsets(_rng(seed, 4), wire.rate, latency_s)
    n_capacity = math.ceil(wire.capacity_draw_qps * capacity_s)
    if workload == "wire_hot_tiles":
        catalogue = hot_catalogue(seed)
        return Streams(
            warmup=list(catalogue),
            capacity=_hot_draw(rng, catalogue, n_capacity),
            latency=_hot_draw(rng, catalogue, len(arrivals)),
            arrivals=arrivals,
        )
    if workload == "wire_fresh_prefs":
        return Streams(
            warmup=_fresh_draw(rng, FRESH_WARMUP),
            capacity=_fresh_draw(rng, n_capacity),
            latency=_fresh_draw(rng, len(arrivals)),
            arrivals=arrivals,
        )
    scorers = [LinearPreference(random_preference(rng, 2)) for _ in range(LIVE_PREFERENCES)]
    warmup = [
        QueryRequest(
            scorer=scorer, k=K_CHOICES[0], tau=LIVE_TAU, interval=(0, LIVE_LENGTHS[0] - 1),
            algorithm=algorithm,
        )
        for scorer in scorers
        for algorithm in ("t-hop", "t-base")
    ]
    return Streams(
        warmup=warmup,
        capacity=_live_draw(rng, scorers, n_capacity),
        latency=_live_draw(rng, scorers, len(arrivals)),
        arrivals=arrivals,
    )


def anchor_live(request: QueryRequest, rows_visible: float) -> QueryRequest:
    """Move a live request's interval to end at the growing end.

    ``rows_visible`` is the row count the writer's schedule promises at
    the request's send time. If the writer runs behind, the service
    clamps ``hi`` to the snapshot it serves; the reference check uses
    the same snapshot.
    """
    lo, hi = request.interval
    end = max(hi, int(rows_visible) - 1)
    return QueryRequest(
        scorer=request.scorer, k=request.k, tau=request.tau,
        interval=(end - (hi - lo), end), algorithm=request.algorithm,
    )


# ---------------------------------------------------------------------------
# Reference answers (generator side, after the run)
# ---------------------------------------------------------------------------
def reference_answer(values: np.ndarray, n_visible: int, request: QueryRequest) -> list[int]:
    """The ids ``request`` answers over the first ``n_visible`` rows.

    Re-derived on a fresh in-process engine. A look-back durable top-k
    answer over ``[lo, hi]`` reads only rows ``[lo - tau, hi]`` (record
    ``t`` is durable iff it is in the top-k of ``[t - tau, t]``), so the
    engine is built over that slice of the prefix and its ids shifted
    back; the tests check this against an engine over the whole prefix.
    Only ids are compared: the benchmark's requests do not ask for
    durations, so the service sends none.
    """
    if request.direction is not Direction.PAST:
        raise ValueError("reference_answer handles look-back queries only")
    query = request.as_query()
    lo, hi = query.resolve_interval(n_visible)
    base = max(0, lo - request.tau)
    engine = DurableTopKEngine(Dataset(values[base : hi + 1]), skyband_k_max=None)
    result = engine.query(
        DurableTopKQuery(k=request.k, tau=request.tau, interval=(lo - base, hi - base)),
        request.scorer,
        algorithm=request.algorithm,
    )
    return [int(t) + base for t in result.ids]
