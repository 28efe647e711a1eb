"""Persisting query results, experiment rows and bench telemetry as JSON.

Experiment record-keeping: results can be saved with full provenance
(query parameters, algorithm, counters, library version) and reloaded for
later comparison — the harness uses this to diff runs across machines.

Since the performance-observatory PR this module is also the structured
bench-telemetry layer: every bench emits a schema'd
``BENCH_<name>.json`` record (:class:`BenchRecord`) alongside its
free-text report. A record is a list of :class:`BenchMetric` — metric
name, value, unit, better-direction and a per-metric noise band — plus
an environment fingerprint (cpu count, python version, git sha,
wall/process clocks) so every artifact is self-describing and two runs
can be diffed mechanically (``repro perf-report`` / ``repro perf-gate``).
``save_bench_record`` also appends one compact line per run to
``BENCH_HISTORY.jsonl``, the append-mode perf trajectory of the repo.
"""

from __future__ import annotations

import datetime
import functools
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.query import Direction, DurableTopKQuery, DurableTopKResult, QueryStats

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "BenchMetric",
    "BenchRecord",
    "BENCH_SCHEMA_VERSION",
    "HISTORY_FILE",
    "environment_fingerprint",
    "fingerprint_header",
    "save_bench_record",
    "load_bench_record",
    "load_bench_dir",
    "validate_bench_payload",
]


def result_to_dict(result: DurableTopKResult) -> dict[str, Any]:
    """A JSON-serialisable representation with full provenance."""
    import repro

    return {
        "library_version": repro.__version__,
        "algorithm": result.algorithm,
        "query": {
            "k": result.query.k,
            "tau": result.query.tau,
            "interval": list(result.query.interval) if result.query.interval else None,
            "direction": result.query.direction.value,
        },
        "ids": list(result.ids),
        "stats": result.stats.as_dict(),
        "elapsed_seconds": result.elapsed_seconds,
        "durations": (
            {str(t): d for t, d in result.durations.items()} if result.durations else None
        ),
    }


def result_from_dict(payload: dict[str, Any]) -> DurableTopKResult:
    """Inverse of :func:`result_to_dict` (provenance fields are checked
    for presence, not equality)."""
    for field in ("algorithm", "query", "ids", "stats"):
        if field not in payload:
            raise ValueError(f"result payload missing field {field!r}")
    query_payload = payload["query"]
    query = DurableTopKQuery(
        k=query_payload["k"],
        tau=query_payload["tau"],
        interval=tuple(query_payload["interval"]) if query_payload.get("interval") else None,
        direction=Direction(query_payload.get("direction", "past")),
    )
    stats = QueryStats()
    for key, value in payload["stats"].items():
        if hasattr(stats, key) and key != "topk_queries":
            setattr(stats, key, value)
    durations = payload.get("durations")
    return DurableTopKResult(
        ids=list(payload["ids"]),
        query=query,
        algorithm=payload["algorithm"],
        stats=stats,
        elapsed_seconds=payload.get("elapsed_seconds", 0.0),
        durations={int(t): d for t, d in durations.items()} if durations else None,
    )


def save_result(result: DurableTopKResult, path: str | Path) -> Path:
    """Write a result (with provenance) to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(result_to_dict(result), indent=2) + "\n")
    return path


def load_result(path: str | Path) -> DurableTopKResult:
    """Load a result previously written by :func:`save_result`."""
    return result_from_dict(json.loads(Path(path).read_text()))


# --------------------------------------------------------------------------
# structured bench telemetry
# --------------------------------------------------------------------------

BENCH_SCHEMA_VERSION = 1

#: The append-mode perf trajectory: one JSON line per bench run.
HISTORY_FILE = "BENCH_HISTORY.jsonl"


@functools.lru_cache(maxsize=1)
def _git_sha() -> str:
    """Short sha of the working tree, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_fingerprint() -> dict[str, Any]:
    """Where and when a measurement was taken, machine-readably.

    ``wall_time`` is the unix epoch at emission and ``process_time`` the
    CPU seconds this process had consumed — together they let a reader
    of the history file order runs and spot wall-vs-CPU skew (a loaded
    box) without trusting the filesystem.
    """
    import repro

    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": sys.platform,
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "library_version": repro.__version__,
        "wall_time": round(time.time(), 3),
        "process_time": round(time.process_time(), 3),
    }


def fingerprint_header(env: dict | None = None) -> str:
    """Comment lines stamping a ``results/*.txt`` artifact as self-describing.

    Artifacts from a 1-core box (flat thread-scaling curves and the like)
    carry their own caveat this way instead of needing one in a doc.
    """
    env = env or environment_fingerprint()
    stamp = datetime.datetime.fromtimestamp(
        env["wall_time"], tz=datetime.timezone.utc
    ).strftime("%Y-%m-%dT%H:%M:%SZ")
    return (
        f"# env: cores={env['cpu_count']} python={env['python']} "
        f"platform={env['platform']}/{env['machine']} git={env['git_sha']} "
        f"repro={env['library_version']}\n"
        f"# clocks: wall={stamp} process={env['process_time']:.1f}s"
    )


@dataclass(frozen=True)
class BenchMetric:
    """One measured number with enough context to diff it later.

    ``noise`` is the relative band (fraction of the baseline value)
    inside which run-to-run movement is indistinguishable from noise;
    ``abs_noise`` is an additive floor for metrics that live near (or
    cross) zero, where a relative band degenerates. ``portable`` marks
    metrics whose value is machine-independent (ratios, deterministic
    counts) and therefore comparable across differing environment
    fingerprints — machine-bound metrics (wall times, throughputs) are
    only gated when the fingerprints match.
    """

    name: str
    value: float
    unit: str = ""
    better: str = "lower"  # "lower" | "higher"
    noise: float = 0.10
    abs_noise: float = 0.0
    portable: bool = False

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "better": self.better,
            "noise": self.noise,
            "abs_noise": self.abs_noise,
            "portable": self.portable,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "BenchMetric":
        return cls(
            name=payload["name"],
            value=float(payload["value"]),
            unit=payload.get("unit", ""),
            better=payload.get("better", "lower"),
            noise=float(payload.get("noise", 0.10)),
            abs_noise=float(payload.get("abs_noise", 0.0)),
            portable=bool(payload.get("portable", False)),
        )


@dataclass
class BenchRecord:
    """One bench run: named metrics plus the environment that produced them."""

    name: str
    metrics: list[BenchMetric]
    environment: dict[str, Any] = field(default_factory=environment_fingerprint)
    meta: dict[str, Any] = field(default_factory=dict)
    schema_version: int = BENCH_SCHEMA_VERSION

    def metric(self, name: str) -> BenchMetric | None:
        for metric in self.metrics:
            if metric.name == name:
                return metric
        return None

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "environment": dict(self.environment),
            "meta": dict(self.meta),
            "metrics": [m.as_dict() for m in self.metrics],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "BenchRecord":
        errors = validate_bench_payload(payload)
        if errors:
            raise ValueError(
                f"invalid bench record {payload.get('name')!r}: " + "; ".join(errors)
            )
        return cls(
            name=payload["name"],
            metrics=[BenchMetric.from_dict(m) for m in payload["metrics"]],
            environment=dict(payload["environment"]),
            meta=dict(payload.get("meta") or {}),
            schema_version=int(payload["schema_version"]),
        )


def validate_bench_payload(payload: dict[str, Any]) -> list[str]:
    """Schema check for one ``BENCH_*.json`` payload; returns problems found."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    for key in ("schema_version", "name", "environment", "metrics"):
        if key not in payload:
            errors.append(f"missing field {key!r}")
    if errors:
        return errors
    if payload["schema_version"] != BENCH_SCHEMA_VERSION:
        errors.append(
            f"schema_version {payload['schema_version']} != {BENCH_SCHEMA_VERSION}"
        )
    env = payload["environment"]
    if not isinstance(env, dict):
        errors.append("environment is not an object")
    else:
        for key in ("cpu_count", "python", "git_sha", "wall_time", "process_time"):
            if key not in env:
                errors.append(f"environment missing {key!r}")
    metrics = payload["metrics"]
    if not isinstance(metrics, list) or not metrics:
        errors.append("metrics must be a non-empty list")
        return errors
    seen: set[str] = set()
    for i, metric in enumerate(metrics):
        if not isinstance(metric, dict):
            errors.append(f"metrics[{i}] is not an object")
            continue
        name = metric.get("name")
        if not name or not isinstance(name, str):
            errors.append(f"metrics[{i}] has no name")
            continue
        if name in seen:
            errors.append(f"duplicate metric {name!r}")
        seen.add(name)
        value = metric.get("value")
        if not isinstance(value, (int, float)) or value != value:  # NaN check
            errors.append(f"metric {name!r} value is not a finite number")
        if metric.get("better", "lower") not in ("lower", "higher"):
            errors.append(f"metric {name!r} better must be 'lower' or 'higher'")
        noise = metric.get("noise", 0.10)
        if not isinstance(noise, (int, float)) or noise < 0:
            errors.append(f"metric {name!r} noise must be >= 0")
    return errors


def save_bench_record(
    record: BenchRecord, out_dir: str | Path, history: bool = True
) -> Path:
    """Write ``BENCH_<name>.json`` (and append the history line) under *out_dir*.

    The per-bench file always holds the latest run — the diffable
    current state; the history file accumulates one compact line per run
    so the perf trajectory survives overwrites.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = record.as_dict()
    errors = validate_bench_payload(payload)
    if errors:
        raise ValueError(f"refusing to save invalid record: {'; '.join(errors)}")
    path = out_dir / f"BENCH_{record.name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if history:
        line = {
            "name": record.name,
            "git_sha": record.environment.get("git_sha"),
            "wall_time": record.environment.get("wall_time"),
            "cpu_count": record.environment.get("cpu_count"),
            "python": record.environment.get("python"),
            "metrics": {m.name: m.value for m in record.metrics},
        }
        with (out_dir / HISTORY_FILE).open("a") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def load_bench_record(path: str | Path) -> BenchRecord:
    """Load and schema-check one ``BENCH_*.json`` file."""
    return BenchRecord.from_dict(json.loads(Path(path).read_text()))


def load_bench_dir(path: str | Path) -> dict[str, BenchRecord]:
    """All ``BENCH_*.json`` records in *path*, keyed by bench name."""
    out: dict[str, BenchRecord] = {}
    for file in sorted(Path(path).glob("BENCH_*.json")):
        record = load_bench_record(file)
        out[record.name] = record
    return out
