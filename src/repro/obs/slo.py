"""Declarative SLOs evaluated as multi-window burn rates.

An :class:`SLO` states an objective ("p95 latency under 250 ms",
"reject fewer than 1% of requests", "answers no staler than 2000 rows")
as a per-event *badness* threshold plus an error budget: the fraction of
events allowed to be bad. The :class:`SLOMonitor` classifies each event
as it is recorded and keeps a time-stamped ring of outcomes per SLO, so
at any instant it can answer the Google-SRE question: *how fast is the
error budget burning?*

Burn rate over a window is ``bad_fraction / budget`` — 1.0 means the
budget is being consumed exactly as provisioned, 10.0 means ten times
too fast. Alerting on one window either pages late (long window) or
flaps (short window), so the monitor evaluates **two** windows — a fast
one (default 5 s) that reacts, and a slow one (default 60 s) that
confirms the problem is real — and declares an SLO *burning* only when
both exceed their thresholds. The same multi-window shape guards the
degradation hooks: :class:`~repro.service.service.DurableTopKService`
consults :meth:`SLOMonitor.fast_burning` at admission and sheds
lowest-priority work while the fast window burns, shielding the latency
objective *before* the queue fills and QUEUE_FULL takes over.

Recording is one deque append plus amortised pruning — about 2 µs per
answered request on a 2-vCPU VM, far below the cost of the request it
describes (EXPERIMENTS.md, "Wall-clock claims of the deleted drivers"). Evaluation publishes per-SLO gauges
(``slo.burn_rate{slo=...,window=...}``, ``slo.burning{slo=...}``) into
the bound :class:`~repro.obs.registry.MetricsRegistry`, so burn rates
ride the Prometheus export and ``repro top`` for free.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

__all__ = ["SLO", "SLOMonitor", "default_slos"]


@dataclass(frozen=True)
class SLO:
    """One service-level objective, stated declaratively.

    ``objective`` is the per-event threshold: an event with
    ``value > objective`` is *bad* (for pure good/bad event streams —
    rejections — record outcomes directly and leave ``objective`` 0).
    ``budget`` is the tolerated bad fraction; burn rate divides the
    observed bad fraction by it. ``fast_burn``/``slow_burn`` are the
    rates at which each window is considered on fire — the defaults are
    the SRE-workbook page thresholds scaled to seconds-long windows.
    """

    name: str
    description: str = ""
    objective: float = 0.0
    unit: str = ""
    budget: float = 0.05
    fast_window: float = 5.0
    slow_window: float = 60.0
    fast_burn: float = 14.0
    slow_burn: float = 6.0

    def __post_init__(self) -> None:
        if not 0.0 < self.budget <= 1.0:
            raise ValueError(f"budget must be in (0, 1], got {self.budget}")
        if self.fast_window <= 0 or self.slow_window < self.fast_window:
            raise ValueError(
                f"need 0 < fast_window <= slow_window, got "
                f"{self.fast_window}/{self.slow_window}"
            )


def default_slos(
    latency_target: float = 0.25,
    rejection_budget: float = 0.01,
    staleness_rows: float = 2000.0,
) -> list[SLO]:
    """The serving stack's stock SLO set (latency, rejections, staleness)."""
    return [
        SLO(
            name="latency",
            description=f"p95 total latency under {latency_target * 1e3:.0f} ms",
            objective=latency_target,
            unit="s",
            budget=0.05,
        ),
        SLO(
            name="rejections",
            description=f"fewer than {rejection_budget:.0%} requests rejected",
            budget=rejection_budget,
        ),
        SLO(
            name="staleness",
            description=f"answers no staler than {staleness_rows:.0f} rows",
            objective=staleness_rows,
            unit="rows",
            budget=0.05,
        ),
    ]


class _EventWindow:
    """Time-stamped good/bad outcomes, prunable to any lookback window."""

    __slots__ = ("events", "bad")

    def __init__(self) -> None:
        self.events: deque[tuple[float, bool]] = deque()
        self.bad = 0  # bad entries currently in `events`

    def add(self, t: float, bad: bool, horizon: float) -> None:
        self.events.append((t, bad))
        self.bad += bad
        # Amortised prune: anything older than the longest window is
        # dead weight for every consumer.
        cutoff = t - horizon
        while self.events and self.events[0][0] < cutoff:
            _, was_bad = self.events.popleft()
            self.bad -= was_bad

    def fraction(self, now: float, window: float) -> tuple[int, int]:
        """(events, bad) within the trailing *window* seconds."""
        cutoff = now - window
        total = bad = 0
        for t, was_bad in reversed(self.events):
            if t < cutoff:
                break
            total += 1
            bad += was_bad
        return total, bad


class SLOMonitor:
    """Classifies events against SLOs and reports multi-window burn rates.

    ``clock`` is injectable for tests (burn-rate fixtures hand-place
    events on a fake timeline). ``degradation hooks`` registered with
    :meth:`add_burn_hook` fire on every burning-state *transition* of
    any SLO — the pluggable half of load shedding; the service's default
    policy only needs :meth:`fast_burning`.
    """

    def __init__(
        self,
        slos: list[SLO] | None = None,
        registry=None,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self._slos: dict[str, SLO] = {s.name: s for s in (slos if slos is not None else default_slos())}
        self._windows: dict[str, _EventWindow] = {name: _EventWindow() for name in self._slos}
        self._lock = threading.Lock()
        self._clock = clock
        self._registry = registry
        self._burning: dict[str, bool] = {name: False for name in self._slos}
        self._hooks: list[Callable[[SLO, bool], None]] = []

    @property
    def slos(self) -> list[SLO]:
        return list(self._slos.values())

    def bind_registry(self, registry) -> None:
        """Publish burn gauges into *registry* from now on (idempotent)."""
        self._registry = registry

    def add_burn_hook(self, hook: Callable[[SLO, bool], None]) -> None:
        """Call ``hook(slo, burning)`` whenever an SLO's state flips."""
        self._hooks.append(hook)

    # -- recording -------------------------------------------------------
    def observe(self, name: str, value: float, t: float | None = None) -> None:
        """Record a measured value; bad iff it exceeds the SLO objective."""
        slo = self._slos.get(name)
        if slo is None:
            return
        self._record(slo, value > slo.objective, t)

    def record(self, name: str, bad: bool, t: float | None = None) -> None:
        """Record a pre-classified good/bad event (rejections)."""
        slo = self._slos.get(name)
        if slo is None:
            return
        self._record(slo, bad, t)

    def _record(self, slo: SLO, bad: bool, t: float | None) -> None:
        now = self._clock() if t is None else t
        with self._lock:
            self._windows[slo.name].add(now, bad, slo.slow_window)

    # -- evaluation ------------------------------------------------------
    def burn_rates(self, name: str, t: float | None = None) -> tuple[float, float]:
        """(fast, slow) burn rates for one SLO at time *t* (default: now)."""
        slo = self._slos[name]
        now = self._clock() if t is None else t
        with self._lock:
            window = self._windows[name]
            fast_n, fast_bad = window.fraction(now, slo.fast_window)
            slow_n, slow_bad = window.fraction(now, slo.slow_window)
        fast = (fast_bad / fast_n / slo.budget) if fast_n else 0.0
        slow = (slow_bad / slow_n / slo.budget) if slow_n else 0.0
        return fast, slow

    def burning(self, name: str, t: float | None = None) -> bool:
        """Multi-window verdict: both windows past their thresholds."""
        slo = self._slos[name]
        fast, slow = self.burn_rates(name, t)
        return fast >= slo.fast_burn and slow >= slo.slow_burn

    def fast_burning(self, t: float | None = None) -> bool:
        """True when any SLO's *fast* window burns past its threshold.

        This is the shed signal: it reacts within ``fast_window``
        seconds, before the slow window confirms — degradation is cheap
        and reversible, unlike paging a human.
        """
        for name, slo in self._slos.items():
            fast, _ = self.burn_rates(name, t)
            if fast >= slo.fast_burn:
                return True
        return False

    def status(self, t: float | None = None) -> dict[str, dict]:
        """Per-SLO snapshot; also refreshes gauges and fires burn hooks."""
        now = self._clock() if t is None else t
        out: dict[str, dict] = {}
        for name, slo in self._slos.items():
            fast, slow = self.burn_rates(name, now)
            burning = fast >= slo.fast_burn and slow >= slo.slow_burn
            with self._lock:
                window = self._windows[name]
                events, bad = window.fraction(now, slo.slow_window)
                was = self._burning[name]
                self._burning[name] = burning
            if burning != was:
                for hook in self._hooks:
                    hook(slo, burning)
            if self._registry is not None:
                self._registry.gauge("slo.burn_rate", slo=name, window="fast").set(fast)
                self._registry.gauge("slo.burn_rate", slo=name, window="slow").set(slow)
                self._registry.gauge("slo.burning", slo=name).set(float(burning))
            out[name] = {
                "description": slo.description,
                "objective": slo.objective,
                "budget": slo.budget,
                "events": events,
                "bad": bad,
                "fast_burn_rate": round(fast, 3),
                "slow_burn_rate": round(slow, 3),
                "fast_threshold": slo.fast_burn,
                "slow_threshold": slo.slow_burn,
                "burning": burning,
            }
        return out

    def reset(self) -> None:
        """Drop all recorded events (post-warmup reset, like the collector)."""
        with self._lock:
            for window in self._windows.values():
                window.events.clear()
                window.bad = 0
