"""``repro top`` — a live terminal dashboard over the observability stack.

The observatory's human face: one refreshing ANSI frame that polls the
service's :class:`~repro.service.metrics.MetricsCollector` snapshot, the
process-wide :func:`~repro.obs.global_registry` (WAL fsyncs, segment
counts, seals/compactions, pool evictions) and the
:data:`~repro.obs.TRACES` slowest-N buffer — the same sources the
Prometheus export reads, rendered for a terminal instead of a scraper.

Counter *rates* (WAL fsyncs/s, seals/s) are frame-over-frame deltas, so
the :class:`Dashboard` keeps the previous readings, taken first when it
is built (the first frame reports rates since then); everything else is
point-in-time. :func:`Dashboard.frame` is a pure string — the render
smoke test and the non-tty ``--once`` mode print it without touching
the terminal, while the live loop repaints it with an ANSI home+clear.

The CLI drives a self-contained demo serving stack (a
:class:`~repro.ingest.live.LiveDataset` behind the pooled service, with
background writers and query clients) so the dashboard always has a
live system to watch; point :class:`Dashboard` at your own collector to
watch a real one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np

from repro.obs import TRACES, MetricsRegistry, enable, disable, global_registry
from repro.obs.slo import SLOMonitor
from repro.service import (
    DurableTopKService,
    LiveBackend,
    MetricsCollector,
    WorkloadGenerator,
    WorkloadSpec,
)

__all__ = ["Dashboard", "run_top"]

#: ANSI: cursor home + clear-to-end-of-screen (repaint without scrollback
#: spam; full 2J clears cause visible flicker on slow terminals).
_REPAINT = "\x1b[H\x1b[J"


def _fmt_labels(labels) -> str:
    return ",".join(f"{k}={v}" for k, v in labels)


class Dashboard:
    """Renders one observability frame; remembers counters for rates."""

    def __init__(
        self,
        collector: MetricsCollector,
        registry: MetricsRegistry | None = None,
        traces=TRACES,
        clock=time.perf_counter,
    ) -> None:
        self.collector = collector
        self.registry = registry if registry is not None else global_registry()
        self.traces = traces
        self._clock = clock
        self._started = clock()
        self._last_time = self._started
        self._last_counts = self._counter_totals(collector.snapshot())

    def _counter_total(self, prefix: str) -> float:
        return sum(
            series.value for series in self.registry.collect(kind="counter", prefix=prefix)
        )

    def _gauge_total(self, prefix: str) -> float:
        return sum(
            series.value for series in self.registry.collect(kind="gauge", prefix=prefix)
        )

    def _counter_totals(self, snap) -> dict[str, float]:
        """Every counter the frame reports a rate for, at its current total."""
        gw_ok = gw_rejected = 0.0
        for series in self.registry.collect(kind="counter", prefix="gateway.requests"):
            if dict(series.labels).get("outcome") == "ok":
                gw_ok += series.value
            else:
                gw_rejected += series.value
        return {
            "service.completed": float(snap.completed),
            "service.coalesced": float(snap.coalesced),
            "wal.fsyncs": self._counter_total("wal.fsyncs"),
            "ingest.seals": self._counter_total("ingest.seals"),
            "gateway.ok": gw_ok,
            "gateway.rejected": gw_rejected,
            "gateway.bytes_in": self._counter_total("gateway.bytes_in"),
            "gateway.bytes_out": self._counter_total("gateway.bytes_out"),
        }

    def frame(self, width: int = 78) -> str:
        """One dashboard frame as plain text (no cursor control)."""
        now = self._clock()
        dt = now - self._last_time
        self._last_time = now
        snap = self.collector.snapshot()

        # Frame-over-frame, not the collector's lifetime average: the
        # lifetime figure decays instead of dropping when traffic stops,
        # so an idle system would keep showing the previous load forever.
        # Every rate is taken every frame, rendered or not: otherwise the
        # frame a row first appears would report a delta accumulated over
        # many frames as if it happened in one.
        totals = self._counter_totals(snap)
        rate = {
            name: (total - self._last_counts[name]) / dt if dt > 0 else 0.0
            for name, total in totals.items()
        }
        self._last_counts = totals
        segments = self._gauge_total("ingest.segments")
        compactions = self._counter_total("ingest.compactions")
        evictions = self._counter_total("service.pool.evictions")

        title = "repro top — durable top-k observatory"
        uptime = f"uptime {now - self._started:7.1f}s"
        lines = [
            f"{title}{' ' * max(1, width - len(title) - len(uptime))}{uptime}",
            "─" * width,
            f"requests   {snap.completed} ok / {snap.rejected_total} rejected"
            f"   throughput {rate['service.completed']:8.1f} req/s"
            f"   queued wait p95 {snap.wait_p95 * 1e3:6.2f} ms",
            f"latency ms p50 {snap.latency_p50 * 1e3:7.2f}"
            f"   p95 {snap.latency_p95 * 1e3:7.2f}"
            f"   p99 {snap.latency_p99 * 1e3:7.2f}"
            f"   mean {snap.latency_mean * 1e3:7.2f}",
            f"batching   mean size {snap.mean_batch_size:5.2f}"
            f"   coalesced {snap.coalesced}"
            f"   pool hit {snap.pool_hit_rate:6.1%}   evictions {evictions:.0f}",
        ]
        tiers: dict[str, float] = {}
        for series in self.registry.collect(kind="counter", prefix="cache.lookups"):
            tier = dict(series.labels).get("tier", "?")
            tiers[tier] = tiers.get(tier, 0.0) + series.value
        lookups = sum(tiers.values())
        if lookups:
            hits = tiers.get("exact", 0.0)
            resident = self._gauge_total("cache.bytes")
            lines.append(
                f"cache      hit {hits / lookups:6.1%} ({hits:.0f}/{lookups:.0f})"
                f"   joins {rate['service.coalesced']:6.1f}/s"
                f"   resident {resident / 1024:7.1f} KiB"
            )
        if self._counter_total("gateway.connections_total"):
            lines.append(
                f"gateway    conns {self._gauge_total('gateway.connections'):.0f}"
                f"   ok {rate['gateway.ok']:6.1f}/s"
                f"   rejected {rate['gateway.rejected']:6.1f}/s"
                f"   in/out {rate['gateway.bytes_in'] / 1024:6.1f}"
                f"/{rate['gateway.bytes_out'] / 1024:6.1f} KiB/s"
            )
        lines.append(
            f"ingest     segments {segments:.0f}   seals {rate['ingest.seals']:6.1f}/s"
            f"   compactions {compactions:.0f}   wal fsync {rate['wal.fsyncs']:6.1f}/s"
        )
        for name, status in sorted(snap.slo.items()):
            state = "BURNING" if status["burning"] else "ok     "
            lines.append(
                f"slo        {name:<11} {state}"
                f" burn fast {status['fast_burn_rate']:6.2f} / slow "
                f"{status['slow_burn_rate']:6.2f}"
                f"   bad {status['bad']}/{status['events']}"
            )
        slowest = self.traces.slowest(1)
        if slowest and slowest[0].root is not None:
            trace = slowest[0]
            root = trace.root
            attrs = ", ".join(f"{k}={v}" for k, v in sorted(root.attrs.items()))
            line = (
                f"slowest    {root.name} {trace.duration * 1e3:.1f} ms · "
                f"{len(trace.spans)} spans · {attrs}"
            )
            lines.append(line[:width])
        else:
            lines.append("slowest    (no traces retained — tracing off or idle)")
        lines.append("─" * width)
        return "\n".join(lines)


def run_top(
    duration: float = 30.0,
    interval: float = 1.0,
    once: bool = False,
    n0: int = 8_000,
    clients: int = 2,
    workers: int = 2,
    writers: int = 1,
    n_preferences: int = 12,
    request_rate: float = 200.0,
    seed: int = 7,
    out=None,
) -> str:
    """Drive the demo serving stack and repaint the dashboard until *duration*.

    ``once`` renders exactly one frame after a short settle (the non-tty
    smoke mode: no ANSI codes, returns after ~one interval). Returns the
    final frame so callers/tests can assert on it. ``out`` defaults to
    ``sys.stdout``.
    """
    import sys

    out = out if out is not None else sys.stdout
    rng = np.random.default_rng(seed)
    d = 2

    from repro.ingest.live import LiveDataset

    live = LiveDataset(d, seal_rows=2048, name="top-demo")
    live.extend(rng.random((n0, d)))
    live.seal()
    live.start_maintenance()

    spec = WorkloadSpec(
        n_preferences=n_preferences,
        d=d,
        zipf_s=0.9,
        k_choices=(5, 10),
        tau_fractions=(0.05, 0.10),
        interval_fractions=(0.02, 0.05),
        algorithms=("t-hop",),
        # Shape catalogues give the demo verbatim query repetition, so
        # the dashboard's cache row shows real exact-tier traffic (the
        # background writers keep advancing the epoch, so it never
        # degenerates to 100% either).
        shapes_per_preference=6,
        shape_zipf_s=1.2,
        seed=seed,
    )
    from repro.cache import SemanticAnswerCache

    collector = MetricsCollector(slos=SLOMonitor())
    stop = threading.Event()

    TRACES.clear()
    enable()  # the dashboard's slowest-trace row needs live capture
    try:
        with DurableTopKService(
            LiveBackend(live),
            workers=workers,
            max_queue=4096,
            max_batch=16,
            pool_capacity=n_preferences,
            metrics=collector,
            cache=SemanticAnswerCache(),
        ) as service:

            def client(c: int) -> None:
                # Each client owns a generator (they are stateful), with
                # its own seed so clients do not mirror each other.
                generator = WorkloadGenerator(replace(spec, seed=seed + c), n0)
                pace = clients / max(request_rate, 1.0)
                due = time.perf_counter()
                while not stop.is_set():
                    batch = generator.requests(8)
                    futures = [service.submit(request) for request in batch]
                    for future in futures:
                        future.result()
                    due += pace * len(batch)
                    delay = due - time.perf_counter()
                    if delay > 0:
                        stop.wait(delay)

            def writer(w: int) -> None:
                # Every extend advances the dataset epoch and makes the
                # answer cache's filled entries unreachable; batch the
                # demo's appends into ~2 epochs/s so the cache row shows
                # exact-tier hits between advances instead of a cache
                # that can never catch up to the version counter.
                wrng = np.random.default_rng(seed + 500 + w)
                while not stop.is_set():
                    live.extend(wrng.random((640, d)))
                    stop.wait(0.5)

            threads = [
                threading.Thread(target=client, args=(c,), name=f"top-client-{c}")
                for c in range(clients)
            ] + [
                threading.Thread(target=writer, args=(w,), name=f"top-writer-{w}")
                for w in range(writers)
            ]
            # Built before the traffic starts, so a --once frame reports
            # its rates over the whole settle interval.
            dashboard = Dashboard(collector)
            for thread in threads:
                thread.start()

            frame = ""
            try:
                deadline = time.perf_counter() + (interval if once else duration)
                while True:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    time.sleep(min(interval, max(remaining, 0.01)))
                    frame = dashboard.frame()
                    if once:
                        break
                    out.write(_REPAINT + frame + "\n")
                    out.flush()
                if once:
                    out.write(frame + "\n")
                    out.flush()
            except KeyboardInterrupt:  # pragma: no cover - interactive exit
                pass
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
    finally:
        disable()
        live.close()
    return frame
