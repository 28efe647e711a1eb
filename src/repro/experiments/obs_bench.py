"""The observability overhead benchmark (and its CLI/CI entry point).

Instrumentation that distorts the system it watches is worse than no
instrumentation, so this bench puts a number on both modes of
:mod:`repro.obs`:

* **disabled** (the default everywhere): every ``trace_span`` call site
  collapses to one module-global boolean check and a shared no-op
  context manager. The bench times that fast path directly (a tight
  no-op span loop), counts how many span call sites one request
  actually crosses, and derives a *worst-case* throughput overhead as
  if every call sat on the critical path. The CI smoke gate asserts
  this bound stays under 3% of per-request wall time.
* **enabled**: full span capture, slowest-N retention, span trees.
  Measured head-to-head — interleaved disabled/enabled drives of the
  same pipelined workload against one warm service, best round of each
  side — and reported as a throughput delta. This is the price of
  turning tracing on in production, recorded in
  ``results/obs_overhead.txt``.

Tracing must also never change an answer: the bench zips the enabled
and disabled rounds' responses and checks ids *and* per-query
``QueryStats`` are byte-identical, which the smoke gate enforces.

The report ends with the slowest enabled-round trace rendered as a
waterfall — the artifact ``repro trace`` produces on demand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.engine import DurableTopKEngine
from repro.data import independent_uniform
from repro.obs import (
    TRACES,
    disable,
    enable,
    format_waterfall,
    spans_started,
    trace_span,
)
from repro.obs.slo import SLOMonitor
from repro.experiments.resultstore import BenchMetric
from repro.service import (
    DurableTopKService,
    EngineBackend,
    MetricsCollector,
    MetricsSnapshot,
    WorkloadGenerator,
    WorkloadSpec,
    run_pipelined,
)

__all__ = [
    "ObsBenchResult",
    "SMOKE_DEFAULTS",
    "capture_traces",
    "noop_span_cost_ns",
    "obs_overhead_bench",
    "slo_record_cost_ns",
]

#: Scaled-down parameters for the CI smoke run (seconds, not minutes).
SMOKE_DEFAULTS = {
    "n": 6_000,
    "requests": 200,
    "clients": 4,
    "workers": 4,
    "n_preferences": 24,
    "rounds": 1,
}

#: The smoke gate: worst-case disabled-path overhead must stay under this.
DISABLED_OVERHEAD_BOUND = 0.03

#: The smoke gate for SLO burn-rate accounting: the per-request cost of
#: feeding the monitor must stay under 1% of per-request wall time.
SLO_OVERHEAD_BOUND = 0.01


@dataclass
class ObsBenchResult:
    """Report text plus raw numbers (mirrors ``FigureResult``).

    ``metrics`` is the structured telemetry persisted as
    ``BENCH_<name>.json`` for ``repro perf-report`` / ``perf-gate``.
    """

    name: str
    report: str
    data: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.report


def noop_span_cost_ns(iterations: int = 200_000) -> float:
    """Nanoseconds per disabled ``trace_span`` call (the always-paid path).

    Must run with tracing disabled; the caller (the bench) guarantees it.
    """
    start = time.perf_counter()
    for _ in range(iterations):
        with trace_span("obs.bench.noop"):
            pass
    return (time.perf_counter() - start) / iterations * 1e9


def slo_record_cost_ns(iterations: int = 100_000) -> float:
    """Nanoseconds of SLO accounting per *answered* request.

    One answered response feeds the monitor exactly twice — a latency
    observation and a good-outcome rejection event (staleness only when
    the result carries it) — so this times that pair against a live
    monitor with the stock SLO set. The deque timestamps all land inside
    one slow window, so nothing prunes: the measured cost is the
    steady-state append path, not amortised cleanup luck.
    """
    monitor = SLOMonitor()
    start = time.perf_counter()
    for _ in range(iterations):
        monitor.observe("latency", 0.001)
        monitor.record("rejections", bad=False)
    return (time.perf_counter() - start) / iterations * 1e9


def _workload(n: int, n_preferences: int, zipf_s: float, requests: int, seed: int):
    dataset = independent_uniform(n, 2, seed=seed)
    spec = WorkloadSpec(
        n_preferences=n_preferences,
        d=2,
        zipf_s=zipf_s,
        k_choices=(5, 10),
        tau_fractions=(0.05, 0.10),
        interval_fractions=(0.02, 0.05),
        algorithms=("t-hop",),
        seed=seed,
    )
    generator = WorkloadGenerator(spec, dataset.n)
    return dataset, spec, generator.requests(requests)


@dataclass
class _Round:
    """One timed pipelined drive with tracing either off or on."""

    snapshot: MetricsSnapshot
    responses: list
    wall_seconds: float
    spans: int  # spans started during this drive (0 when disabled)

    @property
    def rps(self) -> float:
        return len(self.responses) / self.wall_seconds


def _drive(service, stream, clients: int, traced: bool) -> _Round:
    service.metrics.reset()
    before = spans_started()
    if traced:
        enable()
    try:
        start = time.perf_counter()
        responses = run_pipelined(service.submit, stream, clients=clients)
        wall = time.perf_counter() - start
    finally:
        if traced:
            disable()
    return _Round(
        service.metrics.snapshot(), responses, wall, spans_started() - before
    )


def obs_overhead_bench(
    n: int = 60_000,
    requests: int = 1000,
    clients: int = 8,
    workers: int = 8,
    n_preferences: int = 64,
    zipf_s: float = 0.9,
    rounds: int = 2,
    seed: int = 7,
) -> ObsBenchResult:
    """Measure tracing overhead, disabled and enabled; see module docstring.

    One warm service serves every drive so the comparison is pool-warm
    on both sides; drives interleave disabled/enabled and the best round
    of each side is compared, which cancels warmup drift exactly like
    the service bench.
    """
    disable()  # the bench owns the tracing flag from here on
    dataset, spec, stream = _workload(n, n_preferences, zipf_s, requests, seed)
    off_rounds: list[_Round] = []
    on_rounds: list[_Round] = []
    TRACES.clear()
    # Every drive runs with SLO burn-rate monitoring live, so the
    # measured throughput already *includes* its cost on both sides; the
    # gated bound below is the micro-measured worst case on top.
    with DurableTopKService(
        EngineBackend(DurableTopKEngine(dataset)),
        workers=workers,
        max_queue=max(4096, 4 * len(stream)),
        max_batch=32,
        pool_capacity=n_preferences,
        metrics=MetricsCollector(slos=SLOMonitor()),
    ) as service:
        _drive(service, stream, clients, traced=False)  # warmup
        for _ in range(max(1, rounds)):
            off_rounds.append(_drive(service, stream, clients, traced=False))
            on_rounds.append(_drive(service, stream, clients, traced=True))
    off_best = max(off_rounds, key=lambda r: r.rps)
    on_best = max(on_rounds, key=lambda r: r.rps)

    # Measured enabled-mode cost: throughput lost by turning tracing on.
    enabled_overhead = 1.0 - on_best.rps / off_best.rps if off_best.rps else 0.0

    # Worst-case disabled-mode cost: no-op span cost times the call sites
    # one request crosses, charged entirely to the critical path. Span
    # counts come from the enabled rounds (the disabled path starts
    # none), so synthetic spans (queue wait, aggregated index.topk) are
    # counted too — overcounting only makes the bound more conservative.
    noop_ns = noop_span_cost_ns()
    spans_per_request = max(r.spans for r in on_rounds) / requests
    per_request_wall = off_best.wall_seconds / requests
    disabled_overhead = (noop_ns * 1e-9 * spans_per_request) / per_request_wall

    # SLO burn-rate accounting, same worst-case treatment: the measured
    # per-request monitor cost charged entirely to the critical path.
    slo_ns = slo_record_cost_ns()
    slo_overhead = (slo_ns * 1e-9) / per_request_wall
    slo_status = off_best.snapshot.slo

    # Tracing must observe, never participate: ids and per-query stats
    # from the enabled round must match the disabled round byte for byte.
    identical = 0
    rejected = 0
    for off, on in zip(off_best.responses, on_best.responses):
        if not (off.ok and on.ok):
            rejected += 1
            continue
        if (
            off.result.ids == on.result.ids
            and off.result.stats == on.result.stats
        ):
            identical += 1
    incorrect = requests - rejected - identical

    slowest = TRACES.slowest(1)
    waterfall = format_waterfall(slowest[0]) if slowest else "(no traces retained)"

    header = (
        f"observability overhead: {clients} clients, {workers} workers, "
        f"{requests} requests, best of {max(1, rounds)} interleaved round(s)\n"
        f"workload: n={n} d=2, {n_preferences} preferences (zipf s={zipf_s}), "
        f"t-hop, tau~{spec.tau_fractions}, |I|~{spec.interval_fractions}"
    )
    lines = [
        header,
        f"tracing disabled: {off_best.rps:.0f} req/s   "
        f"enabled: {on_best.rps:.0f} req/s   "
        f"measured enabled overhead: {enabled_overhead:+.1%}",
        f"disabled fast path: {noop_ns:.0f} ns/span call, "
        f"{spans_per_request:.1f} span call sites/request -> worst-case "
        f"overhead {disabled_overhead:.3%} of per-request wall "
        f"(gate: <{DISABLED_OVERHEAD_BOUND:.0%})",
        f"slo monitoring: {slo_ns:.0f} ns/request accounting -> worst-case "
        f"overhead {slo_overhead:.3%} of per-request wall "
        f"(gate: <{SLO_OVERHEAD_BOUND:.0%}); burn fast/slow: "
        + "  ".join(
            f"{name}={status['fast_burn_rate']:.2f}/{status['slow_burn_rate']:.2f}"
            for name, status in sorted(slo_status.items())
        ),
        f"byte-identity: {identical}/{requests} responses identical "
        f"(ids + stats) across enabled/disabled",
        "",
        "slowest enabled-round trace:",
        waterfall,
    ]
    return ObsBenchResult(
        name="obs_overhead",
        report="\n".join(lines),
        data={
            "off_rps": round(off_best.rps, 1),
            "on_rps": round(on_best.rps, 1),
            "enabled_overhead": round(enabled_overhead, 4),
            "disabled_overhead": round(disabled_overhead, 6),
            "disabled_overhead_bound": DISABLED_OVERHEAD_BOUND,
            "noop_ns": round(noop_ns, 1),
            "spans_per_request": round(spans_per_request, 2),
            "slo_ns": round(slo_ns, 1),
            "slo_overhead": round(slo_overhead, 6),
            "slo_overhead_bound": SLO_OVERHEAD_BOUND,
            "slo": slo_status,
            "identical": identical,
            "incorrect": incorrect,
            "rejected": rejected,
            "requests": requests,
            "off": off_best.snapshot.as_dict(),
            "on": on_best.snapshot.as_dict(),
        },
        metrics=[
            BenchMetric("off_rps", round(off_best.rps, 1), "req/s", "higher", 0.25),
            # Overhead fractions hover near zero and can dip negative in
            # noise; the additive floor is the honest band.
            BenchMetric(
                "enabled_overhead",
                round(enabled_overhead, 4),
                "frac",
                "lower",
                0.0,
                abs_noise=0.10,
            ),
            BenchMetric(
                "disabled_overhead",
                round(disabled_overhead, 6),
                "frac",
                "lower",
                0.0,
                abs_noise=0.01,
            ),
            BenchMetric(
                "slo_overhead",
                round(slo_overhead, 6),
                "frac",
                "lower",
                0.0,
                abs_noise=0.005,
            ),
            BenchMetric(
                "spans_per_request",
                round(spans_per_request, 2),
                "",
                "lower",
                0.25,
                portable=True,
            ),
            BenchMetric("incorrect", incorrect, "", "lower", 0.0, portable=True),
        ],
    )


def capture_traces(
    n: int = 12_000,
    requests: int = 120,
    clients: int = 4,
    workers: int = 4,
    n_preferences: int = 12,
    top: int = 5,
    seed: int = 7,
    zipf_s: float = 0.9,
) -> list:
    """Drive a traced workload and return the ``top`` slowest traces.

    Backs the ``repro trace`` CLI: an engine-backed service, so each
    returned tree runs from the service batch down to the index calls.
    """
    dataset, _, stream = _workload(n, n_preferences, zipf_s, requests, seed)
    TRACES.clear()
    enable()
    try:
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(dataset)),
            workers=workers,
            max_queue=max(4096, 4 * len(stream)),
            max_batch=16,
            pool_capacity=n_preferences,
        ) as service:
            run_pipelined(service.submit, stream, clients=clients)
    finally:
        disable()
    return TRACES.slowest(top)
