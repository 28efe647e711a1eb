"""Per-query trace spans.

The tracer is a thread-local span stack.  ``trace_span(name)`` opens a
span; the first span on an empty stack starts a new *trace*, and when
that root span closes the finished trace is offered to a bounded buffer
that retains the slowest-N complete traces (``TRACES``).  Spans carry
``perf_counter`` timestamps plus arbitrary layer attributes (pages read,
candidates scanned, batch size, snapshot version, ...).

Tracing is off by default and must stay near-zero-cost that way: the
only price an instrumented call site pays is one module-global boolean
check, after which ``trace_span`` returns a shared no-op context
manager.  Flip it with :func:`enable` / :func:`disable` (or the
``enabled(True)`` context manager style helper :func:`tracing`).

A trace is built by the one thread that opened its root span, so a
trace never mixes spans from two threads.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field
from time import perf_counter

__all__ = [
    "Span",
    "Trace",
    "TraceBuffer",
    "TRACES",
    "enable",
    "disable",
    "is_enabled",
    "tracing_active",
    "trace_span",
    "add_span",
    "current_span",
    "current_context",
]

# --------------------------------------------------------------------------
# ids and global state
# --------------------------------------------------------------------------

_enabled = False
_tls = threading.local()
_span_seq = itertools.count(1)
_trace_seq = itertools.count(1)
# Callbacks fired with each completed Trace (JSON log exporter hooks in
# here).  Mutated only from configure paths; read on the hot path.
_completion_hooks: list = []


def _new_id(seq: itertools.count) -> str:
    # pid-qualified so ids stay unique across processes whose JSON log
    # lines are read together.
    return f"{os.getpid():x}-{next(seq):x}"


def enable() -> None:
    """Turn tracing on process-wide."""

    global _enabled
    _enabled = True


def disable() -> None:
    """Turn tracing off process-wide (the default)."""

    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


def add_completion_hook(hook) -> None:
    """Call ``hook(trace)`` whenever a trace completes."""

    if hook not in _completion_hooks:
        _completion_hooks.append(hook)


def remove_completion_hook(hook) -> None:
    if hook in _completion_hooks:
        _completion_hooks.remove(hook)


# --------------------------------------------------------------------------
# spans and traces
# --------------------------------------------------------------------------


@dataclass
class Span:
    """One timed region of one trace.

    ``start`` is a raw ``perf_counter`` reading; waterfalls render
    offsets relative to the trace root.  ``duration`` is seconds, -1.0
    while the span is still open.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    duration: float = -1.0
    attrs: dict = field(default_factory=dict)

    def set(self, **attrs) -> "Span":
        """Attach layer attributes (pages read, candidates, ...)."""

        self.attrs.update(attrs)
        return self


class Trace:
    """A completed-or-in-flight tree of spans sharing one trace id."""

    __slots__ = ("trace_id", "spans")

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []

    def add(self, span: Span) -> None:
        self.spans.append(span)

    @property
    def root(self) -> Span | None:
        for span in self.spans:
            if span.parent_id is None:
                return span
        return self.spans[0] if self.spans else None

    @property
    def duration(self) -> float:
        root = self.root
        return root.duration if root is not None else 0.0

    def children_of(self, span_id: str | None) -> list[Span]:
        return sorted(
            (s for s in self.spans if s.parent_id == span_id),
            key=lambda s: s.start,
        )

    def by_layer(self) -> dict[str, float]:
        """Aggregate span self-declared durations by name prefix."""

        layers: dict[str, float] = {}
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + max(span.duration, 0.0)
        return layers


class TraceBuffer:
    """Bounded buffer retaining the slowest-N complete traces.

    Offers are O(log N) against a min-heap keyed on root duration; under
    churn the fastest trace is evicted first, so the buffer converges on
    the N slowest traces seen since the last :meth:`clear`.
    """

    def __init__(self, capacity: int = 32):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._heap: list[tuple[float, int, Trace]] = []
        self._seq = itertools.count()
        self.offered = 0

    def offer(self, trace: Trace) -> None:
        import heapq

        entry = (trace.duration, next(self._seq), trace)
        with self._lock:
            self.offered += 1
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, entry)
            elif entry[0] > self._heap[0][0]:
                heapq.heapreplace(self._heap, entry)

    def slowest(self, n: int | None = None) -> list[Trace]:
        with self._lock:
            traces = sorted(self._heap, key=lambda e: e[0], reverse=True)
        picked = traces if n is None else traces[:n]
        return [entry[2] for entry in picked]

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()
            self.offered = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)


TRACES = TraceBuffer()


# --------------------------------------------------------------------------
# the thread-local span stack
# --------------------------------------------------------------------------


class _NoopSpan:
    """Fast path when tracing is disabled: every method is a no-op."""

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NOOP = _NoopSpan()


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


class _SpanContext:
    """Context manager pushing a live span onto the thread-local stack."""

    __slots__ = ("_name", "_attrs", "_start", "span")

    def __init__(self, name: str, attrs: dict, start: float | None):
        self._name = name
        self._attrs = attrs
        self._start = start
        self.span: Span | None = None

    def __enter__(self) -> Span:
        stack = _stack()
        if stack:
            parent_id = stack[-1].span_id
            trace = _tls.trace
        else:
            parent_id = None
            trace = Trace(_new_id(_trace_seq))
            _tls.trace = trace
        span = Span(
            trace_id=trace.trace_id,
            span_id=_new_id(_span_seq),
            parent_id=parent_id,
            name=self._name,
            start=perf_counter() if self._start is None else self._start,
            attrs=self._attrs,
        )
        trace.add(span)
        stack.append(span)
        self.span = span
        return span

    def __exit__(self, *exc) -> None:
        span = self.span
        span.duration = perf_counter() - span.start
        stack = _stack()
        # Pop our span; tolerate a corrupted stack rather than raise.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - defensive
            stack.remove(span)
        if not stack:
            trace = _tls.trace
            _tls.trace = None
            TRACES.offer(trace)
            for hook in _completion_hooks:
                try:
                    hook(trace)
                except Exception:  # pragma: no cover - exporter bugs
                    pass


def trace_span(name: str, _start: float | None = None, **attrs):
    """Open a span named *name*; no-op unless tracing is enabled.

    ``_start`` overrides the span start (a ``perf_counter`` reading) so
    callers can open a span that conceptually began earlier — e.g. the
    service roots a batch trace at the earliest enqueue time so trace
    duration equals end-to-end latency including queue wait.
    """

    if not _enabled:
        return _NOOP
    return _SpanContext(name, attrs, _start)


def add_span(name: str, start: float, duration: float, **attrs) -> None:
    """Record an already-timed (synthetic or aggregated) span.

    Used for regions whose boundaries are known post-hoc — queue wait —
    and for aggregates like ``index.topk``, which sums hundreds of
    individual index calls into one span instead of flooding the trace.
    """

    if not _enabled:
        return
    stack = _stack()
    if not stack:
        return
    trace = _tls.trace
    if trace is None:  # pragma: no cover - defensive
        return
    trace.add(
        Span(
            trace_id=trace.trace_id,
            span_id=_new_id(_span_seq),
            parent_id=stack[-1].span_id,
            name=name,
            start=start,
            duration=duration,
            attrs=attrs,
        )
    )


def current_span() -> Span | None:
    """The innermost open span on this thread, if any."""

    if not _enabled:
        return None
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


def tracing_active() -> bool:
    """True when this thread is inside an open span.

    Gates per-call timing (e.g. the index wrapper) that is worth paying
    for only when there is a trace to attach the result to.
    """

    return _enabled and bool(getattr(_tls, "stack", None))


def current_context() -> tuple[str, str] | None:
    """(trace_id, span_id) of the innermost open span, for log joins."""

    span = current_span()
    if span is None:
        return None
    return (span.trace_id, span.span_id)


def reset_for_tests() -> None:
    """Clear all tracer state (tests only)."""

    global _enabled
    _enabled = False
    _tls.stack = []
    _tls.trace = None
    TRACES.clear()
    _completion_hooks.clear()
