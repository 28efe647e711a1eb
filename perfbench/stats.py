"""Percentile, lateness and spread arithmetic shared by the benchmark."""

from __future__ import annotations

import math
import statistics
from time import perf_counter

INF = float("inf")


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile; ``+inf`` entries sort last.

    Failed requests enter latency samples as ``+inf``, so a phase with
    more than ``100 - q`` percent failures reports an infinite
    percentile rather than a flattering one.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def lateness(intended, actual) -> dict:
    """Generator lateness: actual minus intended send time, in ms."""
    late = [(a - i) * 1e3 for i, a in zip(intended, actual)]
    return {"p50_ms": percentile(late, 50), "p99_ms": percentile(late, 99)}


def backlog(intended, received) -> int:
    """Requests still unanswered at the last intended send time.

    Unanswered requests carry ``received = None``.
    """
    end = max(intended)
    return sum(1 for r in received if r is None or r > end)


def cpu_ticks() -> tuple[int, int]:
    """``(stolen, total)`` CPU ticks of the machine so far (``/proc/stat``).

    Stolen ticks are time the hypervisor ran another guest while this
    one had work; ``(0, 0)`` where the file is unavailable.
    """
    try:
        with open("/proc/stat") as stat:
            ticks = [int(v) for v in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    if len(ticks) < 8:
        return 0, 0
    return ticks[7], sum(ticks)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the machine's CPU time stolen between two readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def calibration_ms(iterations: int = 200_000) -> float:
    """Wall time of a fixed pure-Python loop: slow host, not slow program."""
    start = perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    elapsed = perf_counter() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1e3
