"""Tests for the observability layer (`repro.obs`).

Covers the layer's contracts: thread-safe span stacks and registry
series under racing threads, slowest-N retention under churn,
near-zero disabled cost call sites, byte-identical traced answers, the
metrics fold (full ``reset()``, polled snapshot sources), and the
exporters (Prometheus text, JSON log lines, waterfalls).
"""

from __future__ import annotations

import io
import json
import threading

import numpy as np
import pytest

from repro.core.engine import DurableTopKEngine
from repro.core.query import DurableTopKQuery
from repro.core.record import Dataset
from repro.ingest import LiveDataset
from repro.minidb import MiniDB, t_hop_procedure
from repro.obs import (
    TRACES,
    MetricsRegistry,
    Span,
    Trace,
    TraceBuffer,
    configure_json_logging,
    current_context,
    disable,
    enable,
    format_waterfall,
    global_registry,
    render_prometheus,
    trace_span,
)
from repro.obs.trace import reset_for_tests
from repro.scoring import LinearPreference
from repro.service import (
    DurableTopKService,
    EngineBackend,
    MetricsCollector,
    QueryRequest,
    QueryResponse,
    WorkloadGenerator,
    WorkloadSpec,
    run_pipelined,
)
from repro.service.request import RejectionReason


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with a pristine tracer."""
    reset_for_tests()
    yield
    reset_for_tests()


# ----------------------------------------------------------------------
# Span stacks and traces
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_is_noop(self):
        disable()
        with trace_span("engine.query", k=3) as span:
            span.set(answers=1)
        assert len(TRACES) == 0

    def test_nesting_builds_one_tree(self):
        enable()
        with trace_span("service.batch", batch_size=2) as root:
            with trace_span("engine.query", k=3) as child:
                child.set(answers=7)
        traces = TRACES.slowest()
        assert len(traces) == 1
        trace = traces[0]
        assert trace.root.name == "service.batch"
        assert trace.root.parent_id is None
        (inner,) = trace.children_of(trace.root.span_id)
        assert inner.name == "engine.query"
        assert inner.attrs["answers"] == 7
        assert 0.0 <= inner.duration <= trace.root.duration
        assert root.attrs["batch_size"] == 2

    def test_current_context_names_the_innermost_open_span(self):
        assert current_context() is None
        enable()
        assert current_context() is None  # no span open
        with trace_span("service.batch") as root:
            assert current_context() == (root.trace_id, root.span_id)
            with trace_span("engine.query") as child:
                assert current_context() == (root.trace_id, child.span_id)
        assert current_context() is None

    def test_threads_get_independent_stacks(self):
        """Racing threads must never cross-link spans (thread-local stacks)."""
        enable()
        errors: list[str] = []
        barrier = threading.Barrier(8)

        def worker(tag: int):
            barrier.wait()
            for i in range(50):
                with trace_span("root", tag=tag, i=i) as root:
                    with trace_span("child", tag=tag) as child:
                        if child.parent_id != root.span_id:
                            errors.append("wrong parent")
                    if root.attrs["tag"] != tag:
                        errors.append("attr bleed")

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert TRACES.offered == 8 * 50
        for trace in TRACES.slowest():
            tags = {span.attrs["tag"] for span in trace.spans}
            assert len(tags) == 1  # one thread per trace, never mixed
            assert len(trace.spans) == 2

    def test_buffer_retains_slowest_under_churn(self):
        buffer = TraceBuffer(capacity=8)
        durations = [(i * 7919) % 1000 for i in range(200)]  # deterministic shuffle
        for i, ms in enumerate(durations):
            trace = Trace(f"t{i}")
            trace.add(
                Span(
                    trace_id=f"t{i}",
                    span_id=f"s{i}",
                    parent_id=None,
                    name="root",
                    start=0.0,
                    duration=ms / 1e3,
                )
            )
            buffer.offer(trace)
        kept = [t.duration for t in buffer.slowest()]
        expected = sorted((ms / 1e3 for ms in durations), reverse=True)[:8]
        assert kept == expected
        assert buffer.offered == 200
        buffer.clear()
        assert len(buffer) == 0


# ----------------------------------------------------------------------
# Layer attributes
# ----------------------------------------------------------------------
class TestLayerSpans:
    def test_engine_span_answers_match_result(self, small_ind):
        engine = DurableTopKEngine(small_ind)
        scorer = LinearPreference([0.5, 0.5])
        enable()
        result = engine.query(DurableTopKQuery(k=3, tau=100), scorer)
        (trace,) = TRACES.slowest()
        span = trace.root
        assert span.name == "engine.query"
        assert span.attrs["answers"] == len(result.ids)
        assert span.attrs["durability_topk"] == result.stats.durability_topk_queries
        (index,) = trace.children_of(span.span_id)
        assert index.name == "index.topk"

    def test_index_span_counts_every_topk_call_without_changing_answers(
        self, small_ind
    ):
        engine = DurableTopKEngine(small_ind)
        scorer = LinearPreference([0.6, 0.4])
        query = DurableTopKQuery(k=3, tau=120)
        untraced = engine.query(query, scorer, "t-hop")
        enable()
        traced = engine.query(query, scorer, "t-hop")
        disable()
        assert traced.ids == untraced.ids
        assert traced.stats.as_dict() == untraced.stats.as_dict()
        (trace,) = TRACES.slowest()
        (index,) = trace.children_of(trace.root.span_id)
        assert trace.root.attrs["durability_topk"] >= 1
        assert index.attrs["calls"] == trace.root.attrs["durability_topk"]
        assert index.attrs["candidates_scanned"] > 0

    def test_service_answers_identical_traced_and_untraced(self, small_ind):
        """Tracing observes, never participates: one pipelined stream
        served untraced, then traced, gives the same ids and
        ``QueryStats`` for every request."""
        spec = WorkloadSpec(
            n_preferences=6,
            d=small_ind.d,
            k_choices=(3, 5),
            tau_fractions=(0.05, 0.10),
            interval_fractions=(0.2, 0.5),
            algorithms=("t-hop", "t-base", "s-hop"),
            seed=29,
        )
        stream = WorkloadGenerator(spec, small_ind.n).requests(80)
        rounds = []
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)), workers=3, max_batch=8
        ) as service:
            for traced in (False, True):
                if traced:
                    enable()
                try:
                    rounds.append(run_pipelined(service.submit, stream, clients=4))
                finally:
                    disable()
        assert TRACES.slowest(), "the traced round opened no spans"
        for off, on in zip(*rounds):
            assert off.ok and on.ok
            assert on.result.ids == off.result.ids
            assert on.result.stats.as_dict() == off.result.stats.as_dict()

    def test_live_snapshot_span_reports_parts_resolved(self):
        live = LiveDataset(d=2)
        for chunk in np.random.default_rng(5).random((3, 100, 2)):
            live.extend(chunk)
            live.seal()
        live.extend(np.random.default_rng(6).random((20, 2)))
        scorer = LinearPreference([0.5, 0.5])
        enable()
        for interval in [(300, 319), (0, 319)]:
            live.query(DurableTopKQuery(k=2, tau=10, interval=interval), scorer)
        disable()
        spans = sorted(
            (span for trace in TRACES.slowest() for span in trace.spans
             if span.name == "ingest.snapshot"),
            key=lambda span: span.attrs["parts_resolved"],
        )
        assert [span.attrs["segments"] for span in spans] == [3, 3]
        assert all(span.attrs["parts_resolved"] <= span.attrs["segments"] + 1 for span in spans)
        # Tail-anchored: the tail, plus the last segment its windows reach.
        assert [span.attrs["parts_resolved"] for span in spans] == [2, 4]

    def test_live_snapshot_span_reports_window_rows(self):
        live = LiveDataset(d=2)
        live.extend(np.random.default_rng(7).random((200, 2)))
        live.seal()
        live.extend(np.random.default_rng(8).random((20, 2)))
        scorer = LinearPreference([0.5, 0.5])
        windowed = DurableTopKQuery(k=2, tau=10, interval=(150, 219))
        enable()
        live.query(windowed, scorer)  # rows [140, 219] in one window block
        live.query(DurableTopKQuery(k=1, tau=10, interval=(150, 219)), scorer)  # k = 1 descends
        live.query_batch([windowed, DurableTopKQuery(k=3, tau=5)], scorer)  # batch memo
        disable()
        rows = sorted(
            span.attrs["window_rows"] for trace in TRACES.slowest() for span in trace.spans
            if span.name == "ingest.snapshot"
        )
        assert rows == [0, 0, 0, 80]

    def test_minidb_span_reports_page_counts(self):
        rng = np.random.default_rng(11)
        db = MiniDB(Dataset(rng.random((1200, 2)), name="obs-test"), buffer_pages=16)
        try:
            u = np.array([0.6, 0.4])
            untraced = t_hop_procedure(db, u, 3, 200, 200, 999)
            enable()
            traced = t_hop_procedure(db, u, 3, 200, 200, 999)
            disable()
            assert traced.ids == untraced.ids
            assert traced.logical_reads == untraced.logical_reads
            (trace,) = TRACES.slowest()
            pages = next(s for s in trace.spans if s.name == "minidb.pages")
            assert pages.attrs["logical_reads"] == traced.logical_reads
            assert pages.attrs["physical_reads"] == traced.physical_reads
            assert pages.attrs["topk_queries"] == traced.topk_queries
        finally:
            db.close()


# ----------------------------------------------------------------------
# The metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_series_identity_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("wal.fsyncs")
        assert registry.counter("wal.fsyncs") is a
        b = registry.counter("rej", reason="timeout")
        assert registry.counter("rej", reason="queue_full") is not b
        a.inc()
        a.inc(4)
        assert a.value == 5
        gauge = registry.gauge("segments")
        gauge.set(3)
        gauge.dec()
        assert gauge.value == 2
        hist = registry.histogram("lat", window=4)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            hist.observe(v)
        assert hist.count == 5 and hist.sum == 15.0
        assert hist.samples() == [2.0, 3.0, 4.0, 5.0]  # bounded window
        assert hist.percentile(50) == 3.5

    def test_racing_threads_lose_no_increments(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            counter = registry.counter("hits")
            hist = registry.histogram("obs")
            for i in range(1000):
                counter.inc()
                hist.observe(float(i))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("hits").value == 8000
        assert registry.histogram("obs").count == 8000

    def test_reset_zeroes_every_series(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(1.0)
        registry.reset()
        assert registry.counter("c").value == 0
        assert registry.histogram("h").count == 0


# ----------------------------------------------------------------------
# The metrics fold (collector over registry)
# ----------------------------------------------------------------------
def _response(total=0.010, wait=0.002):
    result = type("R", (), {"ids": [1], "extra": {}})()
    request = QueryRequest(scorer=LinearPreference([0.5, 0.5]), k=3, tau=50)
    return QueryResponse(
        request=request,
        result=result,
        wait_seconds=wait,
        service_seconds=total - wait,
        total_seconds=total,
    )


class TestMetricsCollector:
    def test_service_counters_are_registry_series(self):
        collector = MetricsCollector()
        collector.record_submit()
        collector.record_batch(pool_hit=True)
        collector.record_rejection(RejectionReason.QUEUE_FULL)
        collector.record_response(_response())
        snap = collector.snapshot()
        assert snap.submitted == 1 and snap.completed == 1
        assert snap.rejected == {RejectionReason.QUEUE_FULL.value: 1}
        flat = collector.registry.as_dict()
        assert flat["service.requests.submitted"] == 1

    def test_reset_clears_samples_and_counters(self):
        """The satellite fix: reset() drops warmup samples, not just the clock."""
        collector = MetricsCollector()
        for _ in range(5):
            collector.record_submit()
            collector.record_response(_response(total=0.5))
        collector.reset()
        snap = collector.snapshot()
        assert snap.submitted == 0 and snap.completed == 0
        assert snap.latency_p95 == 0.0  # warmup latencies are gone
        collector.record_submit()
        collector.record_response(_response(total=0.001))
        assert collector.snapshot().latency_p95 <= 0.001 + 1e-9

    def test_snapshot_folds_sources_into_extra(self):
        collector = MetricsCollector()
        collector.add_source(lambda: {"other": 9})
        snap = collector.snapshot()
        assert snap.extra["other"] == 9


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("wal.fsyncs").inc(3)
        registry.gauge("ingest.segments").set(4)
        registry.histogram("lat", window=8).observe(0.5)
        text = render_prometheus(registry)
        assert "# TYPE repro_wal_fsyncs_total counter" in text
        assert "repro_wal_fsyncs_total 3" in text
        assert "repro_ingest_segments 4" in text
        assert "repro_lat_count 1" in text
        assert 'quantile="0.99"' in text

    def test_json_log_lines_and_trace_hook(self):
        stream = io.StringIO()
        configure_json_logging(stream=stream)
        enable()
        with trace_span("service.batch", batch_size=3):
            pass
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        events = [line["event"] for line in lines]
        assert "trace.complete" in events
        complete = lines[events.index("trace.complete")]
        assert complete["root"] == "service.batch"
        assert complete["spans"] == 1

    def test_waterfall_contains_offsets_and_attrs(self, small_ind):
        engine = DurableTopKEngine(small_ind)
        enable()
        engine.query(DurableTopKQuery(k=3, tau=100), LinearPreference([0.5, 0.5]))
        disable()
        (trace,) = TRACES.slowest()
        art = format_waterfall(trace)
        assert "engine.query" in art and "index.topk" in art
        assert "candidates_scanned=" in art
        assert "layers:" in art


# ----------------------------------------------------------------------
# Disabled-mode guarantees
# ----------------------------------------------------------------------
class TestDisabledPath:
    def test_lower_layers_never_emit_when_disabled(self, small_ind):
        disable()
        engine = DurableTopKEngine(small_ind)
        engine.query(DurableTopKQuery(k=3, tau=100), LinearPreference([0.5, 0.5]))
        assert len(TRACES) == 0

    def test_global_registry_collects_without_tracing(self, small_ind):
        """Always-on metrics are independent of the tracing flag."""
        disable()
        before = global_registry().counter("service.pool.evictions").value
        from repro.service.pool import SessionPool

        engine = DurableTopKEngine(small_ind)
        pool = SessionPool(capacity=1)
        for i, u in enumerate(([0.5, 0.5], [0.7, 0.3])):
            scorer = LinearPreference(u)
            session, _ = pool.checkout(i, lambda s=scorer: engine.session(s))
            pool.checkin(i, session)
        pool.close()
        assert global_registry().counter("service.pool.evictions").value == before + 1
