"""Exporters: Prometheus text exposition, JSON log lines, waterfalls.

Three consumers of the obs state, all read-only:

- :func:`render_prometheus` walks one or more registries and emits the
  ``# TYPE``-annotated text format (counters as ``_total``, histograms
  as summary ``_count``/``_sum`` plus quantile lines).
- :func:`configure_json_logging` attaches a stdlib :mod:`logging`
  handler whose formatter emits one JSON object per line, and registers
  a trace-completion hook so every finished trace becomes a structured
  log record.  Opt-in via ``repro --log-json``.
- :func:`format_waterfall` renders one trace as an indented per-layer
  waterfall with offset/duration bars — what ``repro trace`` prints.
"""

from __future__ import annotations

import json
import logging
import sys
import time

from repro.obs.registry import Histogram, MetricsRegistry, global_registry
from repro.obs.trace import Span, Trace, add_completion_hook

__all__ = [
    "render_prometheus",
    "configure_json_logging",
    "log_event",
    "format_waterfall",
]

LOGGER_NAME = "repro.obs"


# --------------------------------------------------------------------------
# Prometheus-style text exposition
# --------------------------------------------------------------------------


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels, extra: dict | None = None) -> str:
    pairs = [f'{_prom_name(k)}="{v}"' for k, v in labels]
    for k, v in (extra or {}).items():
        pairs.append(f'{_prom_name(k)}="{v}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(
    *registries: MetricsRegistry, prefix: str = "repro"
) -> str:
    """Text exposition of every series in *registries*.

    With no arguments, exposes the process-wide global registry.  Pass
    extra registries (e.g. a service collector's private registry) to
    merge them into one page.
    """

    if not registries:
        registries = (global_registry(),)
    lines: list[str] = []
    seen_types: set[str] = set()
    for registry in registries:
        for series in sorted(registry.series(), key=lambda s: (s.name, s.labels)):
            base = f"{prefix}_{_prom_name(series.name)}"
            if isinstance(series, Histogram):
                if base not in seen_types:
                    lines.append(f"# TYPE {base} summary")
                    seen_types.add(base)
                labels = series.labels
                lines.append(f"{base}_count{_prom_labels(labels)} {series.count}")
                lines.append(f"{base}_sum{_prom_labels(labels)} {series.sum:.9g}")
                for q in (0.5, 0.95, 0.99):
                    value = series.percentile(q * 100.0)
                    lines.append(
                        f"{base}{_prom_labels(labels, {'quantile': q})} {value:.9g}"
                    )
            elif series.kind == "counter":
                name = f"{base}_total"
                if name not in seen_types:
                    lines.append(f"# TYPE {name} counter")
                    seen_types.add(name)
                lines.append(f"{name}{_prom_labels(series.labels)} {series.value}")
            else:
                if base not in seen_types:
                    lines.append(f"# TYPE {base} gauge")
                    seen_types.add(base)
                lines.append(f"{base}{_prom_labels(series.labels)} {series.value:.9g}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# JSON structured logging
# --------------------------------------------------------------------------


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record; extras ride in a ``fields`` attr."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(time.time(), 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if fields:
            payload.update(fields)
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str)


def _trace_hook(trace: Trace) -> None:
    root = trace.root
    logging.getLogger(LOGGER_NAME).info(
        "trace.complete",
        extra={
            "fields": {
                "trace_id": trace.trace_id,
                "root": root.name if root else None,
                "duration_seconds": round(trace.duration, 6),
                "spans": len(trace.spans),
                "layers": {
                    k: round(v, 6) for k, v in sorted(trace.by_layer().items())
                },
            }
        },
    )


def configure_json_logging(
    stream=None, level: int = logging.INFO, traces: bool = True
) -> logging.Logger:
    """Route ``repro.obs`` records to *stream* as JSON lines.

    Idempotent: reconfiguring replaces the previous handler.  When
    *traces* is true, every completed trace is also logged (summary
    only — span ids and per-layer totals, not full span dumps).
    """

    logger = logging.getLogger(LOGGER_NAME)
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLineFormatter())
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    if traces:
        add_completion_hook(_trace_hook)
    return logger


def log_event(event: str, **fields) -> None:
    """Emit one structured log line (no-op unless logging configured)."""

    logger = logging.getLogger(LOGGER_NAME)
    if logger.handlers:
        logger.info(event, extra={"fields": fields})


# --------------------------------------------------------------------------
# waterfall rendering
# --------------------------------------------------------------------------

_BAR_WIDTH = 24


def _format_attrs(span: Span) -> str:
    if not span.attrs:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
    return f"  {{{inner}}}"


def _render_span(
    span: Span, trace: Trace, t0: float, total: float, depth: int, lines: list[str]
) -> None:
    offset = max(span.start - t0, 0.0)
    duration = max(span.duration, 0.0)
    if total > 0:
        lead = int(round(_BAR_WIDTH * offset / total))
        fill = max(1, int(round(_BAR_WIDTH * duration / total)))
        lead = min(lead, _BAR_WIDTH - 1)
        fill = min(fill, _BAR_WIDTH - lead)
    else:  # pragma: no cover - zero-length trace
        lead, fill = 0, _BAR_WIDTH
    bar = " " * lead + "█" * fill + " " * (_BAR_WIDTH - lead - fill)
    lines.append(
        f"  [{bar}] {offset * 1e3:8.3f}ms +{duration * 1e3:8.3f}ms  "
        f"{'  ' * depth}{span.name}{_format_attrs(span)}"
    )
    for child in trace.children_of(span.span_id):
        _render_span(child, trace, t0, total, depth + 1, lines)


def format_waterfall(trace: Trace) -> str:
    """Render one trace as an indented per-layer waterfall."""

    root = trace.root
    if root is None:
        return f"trace {trace.trace_id}: <empty>"
    total = max(root.duration, 0.0)
    layers = ", ".join(
        f"{name}={seconds * 1e3:.3f}ms" for name, seconds in sorted(trace.by_layer().items())
    )
    lines = [
        f"trace {trace.trace_id}  {root.name}  {total * 1e3:.3f}ms  "
        f"({len(trace.spans)} spans)",
        f"  layers: {layers}",
    ]
    _render_span(root, trace, root.start, total, 0, lines)
    return "\n".join(lines)
