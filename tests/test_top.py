"""Tests for the `repro top` dashboard (`repro.experiments.top`).

The :class:`Dashboard` render is a pure string over a collector, a
registry and a trace buffer, so the tests fabricate those and assert on
frame content: request/latency/batching rows, frame-over-frame counter
rates, per-SLO burn rows, and the slowest-trace one-liner. The CLI
``--once`` path drives the real demo stack once, headless.
"""

from __future__ import annotations

import io
import re

import pytest

from repro.experiments.cli import main
from repro.experiments.top import Dashboard, run_top
from repro.obs import TRACES, MetricsRegistry, TraceBuffer, enable, trace_span
from repro.obs.slo import SLOMonitor
from repro.obs.trace import reset_for_tests
from repro.scoring import LinearPreference
from repro.service import (
    MetricsCollector,
    QueryRequest,
    QueryResponse,
    RejectionReason,
)


@pytest.fixture(autouse=True)
def _clean_tracer():
    reset_for_tests()
    yield
    reset_for_tests()


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def make_dashboard(clock=None, traces=None, slos=False):
    registry = MetricsRegistry()
    collector = MetricsCollector(
        registry=registry, slos=SLOMonitor(clock=clock) if slos else None
    )
    dashboard = Dashboard(
        collector,
        registry=registry,
        traces=traces if traces is not None else TraceBuffer(),
        clock=clock or FakeClock(),
    )
    return dashboard, collector, registry


def response(total_seconds: float = 0.01) -> QueryResponse:
    request = QueryRequest(scorer=LinearPreference([0.5, 0.5]), k=3, tau=30)
    return QueryResponse(request=request, total_seconds=total_seconds)


class TestDashboardFrame:
    def test_frame_shows_requests_latency_and_batching(self):
        clock = FakeClock(5.0)
        dashboard, collector, _ = make_dashboard(clock=clock)
        collector.record_response(response(0.010))
        collector.record_rejection(RejectionReason.QUEUE_FULL)
        clock.t = 6.0
        frame = dashboard.frame()
        assert "repro top" in frame
        assert "1 ok / 1 rejected" in frame
        assert "latency ms p50" in frame
        assert "batching" in frame
        assert "\x1b" not in frame  # pure text; ANSI only in the live loop

    def test_counter_rates_are_frame_over_frame(self):
        clock = FakeClock(10.0)
        dashboard, _, registry = make_dashboard(clock=clock)
        dashboard.frame()  # first frame: rates anchor at current totals
        registry.counter("wal.fsyncs").inc(10)
        clock.t = 12.0  # 10 fsyncs over 2 s -> 5.0/s
        frame = dashboard.frame()
        assert "wal fsync    5.0/s" in frame
        clock.t = 14.0  # no new fsyncs -> rate falls back to 0
        assert "wal fsync    0.0/s" in dashboard.frame()

    def test_idle_frame_shows_zero_throughput(self):
        # The requests row must be frame-over-frame: the collector's
        # lifetime average stays positive long after traffic stops, and
        # an idle dashboard showing yesterday's rate is a lie.
        clock = FakeClock(100.0)
        dashboard, collector, _ = make_dashboard(clock=clock)
        dashboard.frame()
        for _ in range(20):
            collector.record_response(response(0.005))
        clock.t = 102.0  # 20 completions over 2 s -> 10.0/s
        assert "throughput     10.0 req/s" in dashboard.frame()
        clock.t = 104.0  # idle frame: rate must drop to zero ...
        frame = dashboard.frame()
        assert "throughput      0.0 req/s" in frame
        # ... even though the lifetime average is still positive.
        assert collector.snapshot().throughput > 0.0

    def test_first_frame_reports_rates_since_the_dashboard_was_built(self):
        # `repro top --once` renders only this frame: anchoring the
        # counters on it instead would show 0.0 however much was served.
        clock = FakeClock(30.0)
        dashboard, collector, registry = make_dashboard(clock=clock)
        for _ in range(8):
            collector.record_response(response(0.005))
        registry.counter("ingest.seals").inc(2)
        clock.t = 32.0  # 8 completions and 2 seals over 2 s
        frame = dashboard.frame()
        assert "throughput      4.0 req/s" in frame
        assert "seals    1.0/s" in frame

    def test_gateway_row_rates_and_idle_reset(self):
        clock = FakeClock(50.0)
        dashboard, _, registry = make_dashboard(clock=clock)
        assert "gateway" not in dashboard.frame()
        registry.counter("gateway.connections_total").inc(2)
        registry.gauge("gateway.connections").inc(2)
        registry.counter("gateway.requests", tenant="acme", outcome="ok").inc(12)
        registry.counter("gateway.requests", tenant="acme", outcome="rate_limited").inc(4)
        registry.counter("gateway.bytes_in", tenant="acme").inc(4096)
        registry.counter("gateway.bytes_out", tenant="acme").inc(8192)
        clock.t = 52.0  # over 2 s: 6 ok/s, 2 rejected/s, 2/4 KiB/s
        frame = dashboard.frame()
        assert "gateway    conns 2" in frame
        assert "ok    6.0/s" in frame
        assert "rejected    2.0/s" in frame
        assert "in/out    2.0/   4.0 KiB/s" in frame
        clock.t = 54.0  # idle: every gateway rate falls back to zero
        frame = dashboard.frame()
        assert "ok    0.0/s" in frame
        assert "rejected    0.0/s" in frame
        assert "in/out    0.0/   0.0 KiB/s" in frame

    def test_cache_row_rates_flight_joins(self):
        clock = FakeClock(20.0)
        dashboard, collector, registry = make_dashboard(clock=clock)
        assert "cache " not in dashboard.frame()  # no lookups yet: no row
        registry.counter("cache.lookups", tier="exact").inc(3)
        registry.counter("cache.lookups", tier="miss").inc(1)
        collector.record_coalesced(6)
        clock.t = 22.0  # 6 joins over 2 s -> 3.0/s
        frame = dashboard.frame()
        assert "cache      hit  75.0% (3/4)" in frame
        assert "joins    3.0/s" in frame
        clock.t = 24.0  # no new joins -> the rate falls back to 0
        assert "joins    0.0/s" in dashboard.frame()

    def test_slo_rows_render_burning_state(self):
        clock = FakeClock(100.0)
        dashboard, collector, _ = make_dashboard(clock=clock, slos=True)
        for _ in range(30):
            collector.record_response(response(10.0))  # way over objective
        frame = dashboard.frame()
        assert "slo        latency     BURNING" in frame
        assert "slo        rejections  ok" in frame

    def test_slowest_trace_one_liner(self):
        enable()
        with trace_span("service.batch", batch_size=4):
            pass
        dashboard, _, _ = make_dashboard(traces=TRACES)
        frame = dashboard.frame()
        assert "slowest    service.batch" in frame
        assert "batch_size=4" in frame

    def test_empty_trace_buffer_says_so(self):
        dashboard, _, _ = make_dashboard()
        assert "no traces retained" in dashboard.frame()


class TestTopCLI:
    def test_run_top_once_renders_headless(self):
        buf = io.StringIO()
        frame = run_top(
            once=True,
            interval=0.2,
            n0=1_500,
            clients=1,
            workers=1,
            writers=1,
            n_preferences=4,
            request_rate=120.0,
            out=buf,
        )
        assert "repro top" in frame
        assert "slo        latency" in frame
        assert "ingest     segments" in frame
        assert "\x1b" not in buf.getvalue()  # --once never emits ANSI
        # The one frame's rates cover the settle interval, and traffic
        # starts after the dashboard is built: requests served in it show
        # as throughput, not as 0.0.
        served = int(re.search(r"requests\s+(\d+) ok", frame).group(1))
        throughput = float(re.search(r"throughput\s+([\d.]+) req/s", frame).group(1))
        assert (served > 0) == (throughput > 0)

    def test_cli_top_once(self, capsys):
        assert main(["top", "--once", "--interval", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "requests" in out
