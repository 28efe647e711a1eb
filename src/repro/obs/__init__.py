"""repro.obs — low-overhead tracing + metrics for the whole stack.

Two halves:

- :mod:`repro.obs.trace`: per-query trace spans on a thread-local
  stack and a bounded slowest-N trace buffer.  Off by default; the
  disabled fast path is one boolean check per call site.
- :mod:`repro.obs.registry`: named counter/gauge/histogram series.  The
  process-wide :func:`global_registry` collects low-frequency events
  from every layer (WAL fsyncs, seals, evictions, compactions); the
  service ``MetricsCollector`` folds its counters into a private
  registry per collector.

Exporters live in :mod:`repro.obs.export`: Prometheus text exposition,
JSON log lines (``repro --log-json``), and trace waterfalls
(``repro trace``).

:mod:`repro.obs.slo` turns the raw series into decisions: declarative
SLOs evaluated as multi-window burn rates, with gauges published back
into the registry and a degradation hook the service consults at
admission.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.trace import (
    TRACES,
    Span,
    Trace,
    TraceBuffer,
    add_span,
    current_context,
    current_span,
    disable,
    enable,
    is_enabled,
    trace_span,
    tracing_active,
)
from repro.obs.export import (
    configure_json_logging,
    format_waterfall,
    log_event,
    render_prometheus,
)
from repro.obs.slo import SLO, SLOMonitor, default_slos

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "TRACES",
    "Span",
    "Trace",
    "TraceBuffer",
    "trace_span",
    "add_span",
    "current_span",
    "current_context",
    "tracing_active",
    "enable",
    "disable",
    "is_enabled",
    "configure_json_logging",
    "render_prometheus",
    "format_waterfall",
    "log_event",
    "SLO",
    "SLOMonitor",
    "default_slos",
]
