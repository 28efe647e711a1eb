"""The shard worker: one process, one engine, one ownership span.

A worker is deliberately boring — that is the point of the design. It
maps the shared dataset, builds an unmodified
:class:`~repro.core.engine.DurableTopKEngine` over it, keeps warm
per-preference sessions in its own
:class:`~repro.service.pool.SessionPool`, and answers sub-queries whose
interval the coordinator has already clipped to the worker's span. No
sharding logic runs here: every answer the worker produces is exactly
what a single-process engine would produce for the same sub-interval,
which is what makes the coordinator's merge a pure concatenation.

The wire protocol is one request/response pair per message over a
``multiprocessing`` pipe::

    (seq, op, payload[, trace_ctx])          coordinator -> worker
    (seq, "ok", result_payload[, spans])     worker -> coordinator
    (seq, "err", (kind, message, traceback)[, spans])

``trace_ctx`` is an optional ``(trace_id, parent_span_id)`` pair: when
present the worker collects its spans (engine/index work under a
``shard.worker`` root) under that id and ships them back as the fourth
response element, so the coordinator can stitch one trace tree spanning
both processes. Plain 3-tuples remain valid in both directions.

Ops: ``"query_batch"`` (the workhorse: a batch of clipped sub-queries
for one preference in one message — a lone query is a batch of one —
answered through the session's shared-pass ``query_batch``), ``"ping"``
(health check), ``"stats"`` (pool/served counters), ``"exit"`` (clean
shutdown). Errors are caught per message and shipped back as data — a
bad request must fail *that request*, never the worker.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import fields
from typing import Any

from repro.core.engine import DurableTopKEngine
from repro.core.query import Direction, DurableTopKQuery, QueryStats
from repro.obs import begin_remote, end_remote, trace_span
from repro.service.pool import SessionPool
from repro.service.request import preference_key
from repro.shard.dataset import ShardSpan, SharedDatasetHandle

__all__ = ["pack_stats", "shard_worker_main", "unpack_stats"]


def pack_stats(stats: QueryStats) -> dict[str, int]:
    """A :class:`QueryStats` as a plain field dict (wire-friendly)."""
    return {f.name: getattr(stats, f.name) for f in fields(QueryStats)}


def unpack_stats(data: dict[str, int]) -> QueryStats:
    """Rebuild a :class:`QueryStats` from :func:`pack_stats` output.

    Unknown keys are ignored so coordinator and worker builds can skew
    by one release without breaking the wire format.
    """
    names = {f.name for f in fields(QueryStats)}
    return QueryStats(**{key: int(value) for key, value in data.items() if key in names})


def _answer_query_batch(engine: DurableTopKEngine, pool: SessionPool, payload: dict) -> list[dict]:
    """Run one batched sub-request: many clipped windows, one preference.

    The coordinator ships all of a batch's sub-queries for this span in a
    single message; the pooled session's
    :meth:`~repro.core.engine.EngineSession.query_batch` answers them in
    one shared pass (memoised windows, deduplicated twins), byte-identical
    to answering each sub-query alone. Answers come back aligned with
    ``payload["queries"]``.
    """
    scorer = payload["scorer"]
    entries = payload["queries"]
    queries = [
        DurableTopKQuery(
            k=entry["k"],
            tau=entry["tau"],
            interval=(entry["lo"], entry["hi"]),
            direction=Direction(entry["direction"]),
        )
        for entry in entries
    ]
    key = preference_key(scorer)
    session, pool_hit = pool.checkout(key, lambda: engine.session(scorer))
    try:
        results = session.query_batch(
            queries,
            algorithm=[entry["algorithm"] for entry in entries],
            with_durations=payload["with_durations"],
        )
    finally:
        pool.checkin(key, session)
    return [
        {
            "ids": result.ids,
            "durations": result.durations,
            "stats": pack_stats(result.stats),
            "elapsed": result.elapsed_seconds,
            "algorithm": result.algorithm,
            "pool_hit": pool_hit,
        }
        for result in results
    ]


def shard_worker_main(
    conn: Any,
    handle: SharedDatasetHandle,
    span: ShardSpan,
    pool_capacity: int = 64,
) -> None:
    """Process entry point: serve ``conn`` until ``"exit"`` or EOF."""
    dataset, shm = handle.attach()
    engine = DurableTopKEngine(dataset)
    pool = SessionPool(pool_capacity)
    served = 0
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            seq, op, payload = message[0], message[1], message[2]
            trace_ctx = message[3] if len(message) > 3 else None
            remote = begin_remote(trace_ctx) if trace_ctx is not None else None
            spans: list[dict] | None = None
            try:
                if op == "query_batch":
                    with trace_span("shard.worker", shard=span.shard, op=op, pid=os.getpid()):
                        out = _answer_query_batch(engine, pool, payload)
                    served += len(payload["queries"])
                elif op == "ping":
                    out = {
                        "shard": span.shard,
                        "pid": os.getpid(),
                        "span": (span.lo, span.hi),
                        "n": dataset.n,
                        "served": served,
                    }
                elif op == "stats":
                    out = {
                        "shard": span.shard,
                        "served": served,
                        "pool": pool.stats(),
                    }
                elif op == "exit":
                    break
                else:
                    raise ValueError(f"unknown shard worker op: {op!r}")
            except Exception as exc:
                if remote is not None:
                    spans = end_remote(remote)
                detail = (type(exc).__name__, str(exc), traceback.format_exc())
                try:
                    conn.send((seq, "err", detail, spans))
                except (BrokenPipeError, OSError):
                    break
                continue
            if remote is not None:
                spans = end_remote(remote)
            try:
                conn.send((seq, "ok", out, spans))
            except (BrokenPipeError, OSError):
                break
    finally:
        pool.close()
        try:
            conn.close()
        except OSError:
            pass
        shm.close()
