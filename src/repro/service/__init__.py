"""Concurrent durable top-k serving layer.

Turns the single-caller :class:`~repro.core.engine.DurableTopKEngine` /
:class:`~repro.minidb.database.MiniDB` stack into a thread-safe,
multi-client service: bounded admission, per-preference request
batching, a warm session pool, pluggable execution backends, synthetic
workload generation and SLO metrics. See ``README.md`` ("The serving
layer").
"""

from repro.service.backends import (
    EngineBackend,
    LiveBackend,
    MiniDBBackend,
)
from repro.service.metrics import MetricsCollector, MetricsSnapshot, percentile
from repro.service.pool import SessionPool
from repro.service.request import (
    QueryRejected,
    QueryRequest,
    QueryResponse,
    RejectionReason,
    preference_key,
)
from repro.service.service import DurableTopKService, shed_low_priority
from repro.service.workload import (
    WorkloadGenerator,
    WorkloadSpec,
    run_pipelined,
    zipfian_probabilities,
)

__all__ = [
    "DurableTopKService",
    "EngineBackend",
    "LiveBackend",
    "MetricsCollector",
    "MetricsSnapshot",
    "MiniDBBackend",
    "QueryRejected",
    "QueryRequest",
    "QueryResponse",
    "RejectionReason",
    "SessionPool",
    "WorkloadGenerator",
    "WorkloadSpec",
    "percentile",
    "preference_key",
    "run_pipelined",
    "shed_low_priority",
    "zipfian_probabilities",
]
