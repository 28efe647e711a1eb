"""The batched-execution benchmark (and its CLI/CI entry point).

Measures what one shared index traversal buys: the same same-preference
request batches run twice through one warm
:class:`~repro.core.engine.EngineSession` — once as a serial ``query``
loop, once through ``query_batch`` — and the per-query *CPU* time
(``time.process_time``) of the two sides is compared per batch size.
The workload draws each preference's queries from a small Zipfian-hot
shape catalogue (``WorkloadSpec.shapes_per_preference``), the
dashboard-tile traffic the serving layer actually batches: repeated
shapes dedupe onto one execution, near-duplicates share memoised
durability windows, and the batch's opening windows collapse into one
vectorised ``np.partition`` pass.

Because both sides execute anyway, the benchmark *always* checks the
batched answers byte-for-byte (ids and per-query ``QueryStats``)
against the serial loop — a timing figure over wrong answers is
worthless. ``verify=True`` (the ``--smoke`` gate) additionally drives a
pipelined round through ``DurableTopKService`` and re-derives every
response on a fresh reference engine, covering the service's
single-flight fan-out path end to end.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.engine import DurableTopKEngine
from repro.data import independent_uniform
from repro.experiments.report import format_table
from repro.experiments.resultstore import BenchMetric
from repro.service import (
    DurableTopKService,
    EngineBackend,
    WorkloadGenerator,
    WorkloadSpec,
    run_pipelined,
)

__all__ = ["BatchBenchResult", "batch_speedup_bench", "SMOKE_DEFAULTS"]

#: Scaled-down parameters for the CI smoke run (seconds, not minutes).
#: Size 1 keeps the no-batching baseline in the curve; 16 is the
#: acceptance point of the >= 3x per-query CPU claim.
SMOKE_DEFAULTS = {
    "n": 6_000,
    "batch_sizes": (1, 8, 16),
    "batches_per_size": 3,
    "n_preferences": 8,
    "service_requests": 120,
}


@dataclass
class BatchBenchResult:
    """Report text plus raw numbers (mirrors ``ServiceBenchResult``).

    ``metrics`` is the structured telemetry persisted as
    ``BENCH_<name>.json`` for ``repro perf-report`` / ``perf-gate``.
    """

    name: str
    report: str
    data: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.report


def _compare(batched, serial) -> int:
    """Mismatches between one batch's two executions (byte-identity)."""
    bad = 0
    for got, want in zip(batched, serial):
        if got.ids != want.ids or got.stats.as_dict() != want.stats.as_dict():
            bad += 1
    return bad


def batch_speedup_bench(
    n: int = 30_000,
    batch_sizes: Sequence[int] = (1, 4, 8, 16),
    batches_per_size: int = 8,
    n_preferences: int = 16,
    shapes_per_preference: int = 6,
    zipf_s: float = 1.1,
    shape_zipf_s: float = 1.2,
    future_fraction: float = 0.2,
    seed: int = 7,
    verify: bool = False,
    service_requests: int = 400,
    service_clients: int = 8,
    service_workers: int = 4,
) -> BatchBenchResult:
    """Per-query CPU, serial loop vs ``query_batch``, per batch size.

    Every batch is a same-preference group exactly as the service's
    per-preference batching produces them (``preference_batch``); both
    sides run against the same warm session, so the measured gap is the
    shared traversal, dedupe and vectorised priming — not cache warmth.
    """
    dataset = independent_uniform(n, 2, seed=seed)
    spec = WorkloadSpec(
        n_preferences=n_preferences,
        d=2,
        zipf_s=zipf_s,
        k_choices=(5, 10),
        tau_fractions=(0.04, 0.08),
        interval_fractions=(0.02, 0.04),
        algorithms=("t-hop",),
        future_fraction=future_fraction,
        seed=seed,
        shapes_per_preference=shapes_per_preference,
        shape_zipf_s=shape_zipf_s,
    )
    generator = WorkloadGenerator(spec, dataset.n)
    engine = DurableTopKEngine(dataset)

    mismatches = 0
    rows = []
    per_size: dict[int, dict] = {}
    sessions: dict = {}
    for size in batch_sizes:
        batches = [generator.preference_batch(size) for _ in range(batches_per_size)]
        serial_cpu = 0.0
        batched_cpu = 0.0
        queries = 0
        distinct = 0
        for batch in batches:
            key = id(batch[0].scorer)
            session = sessions.get(key)
            if session is None:
                session = engine.session(batch[0].scorer)
                sessions[key] = session
            queries_of = [request.as_query() for request in batch]
            algorithms = [request.algorithm for request in batch]
            # Untimed warmup: index build and first-touch allocations
            # belong to neither side.
            session.query_batch(queries_of, algorithm=algorithms)

            start = time.process_time()
            serial = [
                session.query(query, algorithm=name)
                for query, name in zip(queries_of, algorithms)
            ]
            serial_cpu += time.process_time() - start

            start = time.process_time()
            batched = session.query_batch(queries_of, algorithm=algorithms)
            batched_cpu += time.process_time() - start

            mismatches += _compare(batched, serial)
            queries += len(batch)
            distinct += len({request.query_key for request in batch})

        speedup = serial_cpu / batched_cpu if batched_cpu > 0 else float("inf")
        per_size[size] = {
            "serial_ms_per_query": round(serial_cpu / queries * 1e3, 4),
            "batched_ms_per_query": round(batched_cpu / queries * 1e3, 4),
            "speedup": round(speedup, 3),
            "queries": queries,
            "unique_fraction": round(distinct / queries, 3),
        }
        rows.append(
            {
                "batch": size,
                "serial ms/q": f"{serial_cpu / queries * 1e3:.3f}",
                "batched ms/q": f"{batched_cpu / queries * 1e3:.3f}",
                "speedup": f"{speedup:.2f}x",
                "unique": f"{distinct}/{queries}",
            }
        )
    for session in sessions.values():
        session.close()

    # ------------------------------------------------------------------
    # Service-level round: the same traffic shape through the batching,
    # single-flight service — measures what reaches the backend.
    # ------------------------------------------------------------------
    service_generator = WorkloadGenerator(spec, dataset.n)
    stream = service_generator.requests(service_requests)
    rejected = 0
    incorrect = 0
    verified = None
    with DurableTopKService(
        EngineBackend(engine),
        workers=service_workers,
        max_queue=max(4096, 4 * len(stream)),
        max_batch=max(batch_sizes),
        pool_capacity=max(64, n_preferences),
    ) as service:
        responses = run_pipelined(service.submit, stream, clients=service_clients)
        snapshot = service.metrics.snapshot()
    rejected = sum(1 for response in responses if not response.ok)
    if verify:
        verified = 0
        reference = DurableTopKEngine(dataset)
        for request, response in zip(stream, responses):
            if not response.ok:
                continue
            expected = reference.query(
                request.as_query(), request.scorer, request.algorithm
            )
            if response.result.ids == expected.ids:
                verified += 1
            else:
                incorrect += 1

    cores = os.cpu_count() or 1
    peak = max(batch_sizes)
    header = (
        f"batched execution: one traversal answers a whole batch "
        f"({cores} core(s), CPU time via process_time)\n"
        f"workload: n={n} d=2, {n_preferences} preferences (zipf s={zipf_s}), "
        f"{shapes_per_preference} shapes/preference (zipf s={shape_zipf_s}), "
        f"t-hop, tau~{spec.tau_fractions}, |I|~{spec.interval_fractions}, "
        f"future={future_fraction}\n"
        f"{batches_per_size} same-preference batches per size, both sides on "
        f"one warm session; byte-identity checked on every batch"
    )
    lines = [
        header,
        format_table(rows),
        f"per-query CPU drop at batch {peak}: "
        f"{per_size[peak]['speedup']:.2f}x   mismatches: {mismatches}",
        f"service round ({service_requests} pipelined requests): "
        f"{snapshot.throughput:.0f} req/s, mean batch "
        f"{snapshot.mean_batch_size:.2f}, {snapshot.coalesced} coalesced, "
        f"{rejected} rejected",
    ]
    if verified is not None:
        lines.append(
            f"serial verification (service round): {verified}/"
            f"{service_requests} identical, {incorrect} incorrect"
        )
    report = "\n".join(lines)
    return BatchBenchResult(
        name="batch_speedup",
        report=report,
        data={
            "batch_sizes": list(batch_sizes),
            "per_size": per_size,
            "speedup": {size: per_size[size]["speedup"] for size in batch_sizes},
            "mismatches": mismatches,
            "incorrect": incorrect,
            "rejected": rejected,
            "verified": verified,
            "requests": service_requests,
            "coalesced": snapshot.coalesced,
            "mean_batch_size": round(snapshot.mean_batch_size, 3),
            "throughput_rps": round(snapshot.throughput, 1),
            "cores": cores,
        },
        metrics=[
            # CPU-time ratio on one warm session: the cleanest
            # machine-independent number this bench produces.
            BenchMetric(
                "peak_speedup",
                round(per_size[peak]["speedup"], 3),
                "x",
                "higher",
                0.25,
                portable=True,
            ),
            BenchMetric(
                "throughput_rps",
                round(snapshot.throughput, 1),
                "req/s",
                "higher",
                0.25,
            ),
            BenchMetric(
                "mean_batch_size",
                round(snapshot.mean_batch_size, 3),
                "",
                "higher",
                0.30,
                portable=True,
            ),
            BenchMetric("mismatches", mismatches, "", "lower", 0.0, portable=True),
            BenchMetric("incorrect", incorrect, "", "lower", 0.0, portable=True),
        ],
    )
