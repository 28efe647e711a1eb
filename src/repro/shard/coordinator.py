"""Scatter-gather coordination over shard worker processes.

:class:`ShardCoordinator` owns one :class:`ShardWorkerHandle` per
ownership span. A durable top-k query is answered in three moves:

1. **Scatter** — resolve the query interval, clip it against each span,
   and submit one sub-query per intersecting shard (all pipes written
   before any response is awaited, so shards run genuinely in
   parallel — in separate processes, outside this interpreter's GIL).
2. **Gather** — await the per-shard answers; a crashed worker fails its
   future with :class:`ShardCrashed`, which triggers a restart and one
   resubmit of exactly the lost sub-queries.
3. **Merge** — concatenate per-span ids in span order (see
   :func:`~repro.shard.dataset.merge_shard_answers`), union the
   max-duration maps, and sum the per-shard :class:`QueryStats`
   counters. Per-shard fanout detail lands in ``result.extra`` so the
   serving metrics can account for it.

Handles multiplex one pipe among many coordinator-side threads: writers
tag requests with a sequence number under a send lock, and a dedicated
reader thread per handle resolves response futures by tag — so the
service's worker threads scatter concurrently without ever blocking each
other on a shard round-trip.
"""

from __future__ import annotations

import itertools
import multiprocessing
import sys
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any

from repro.core.query import DurableTopKResult, QueryStats
from repro.core.record import Dataset
from repro.obs import absorb_remote_spans, current_context, global_registry, trace_span
from repro.service.request import QueryRequest, preference_key
from repro.shard.dataset import ShardedDataset, ShardSpan, merge_shard_answers
from repro.shard.worker import shard_worker_main, unpack_stats

__all__ = ["ShardCoordinator", "ShardCrashed", "ShardRemoteError", "ShardWorkerHandle"]


class ShardCrashed(RuntimeError):
    """A shard worker process died (or its pipe broke) mid-request."""


class ShardRemoteError(RuntimeError):
    """An exception raised inside a shard worker, re-surfaced here."""

    def __init__(self, kind: str, message: str, remote_traceback: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.remote_traceback = remote_traceback


class ShardWorkerHandle:
    """Coordinator-side endpoint of one worker: process + multiplexed pipe."""

    def __init__(self, span: ShardSpan, process, conn) -> None:
        self.span = span
        self.process = process
        self.conn = conn
        self.alive = True
        self._closed = False
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._pending: dict[int, "Future[Any]"] = {}
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"shard-{span.shard}-reader",
            daemon=True,
        )
        self._reader.start()

    def submit(
        self, op: str, payload: Any, trace_ctx: tuple[str, str] | None = None
    ) -> "Future[Any]":
        """Send one request; the returned future resolves off-thread.

        ``trace_ctx`` is a ``(trace_id, parent_span_id)`` pair piggybacked
        on the seq-tagged message; the worker collects its spans under it
        and ships them back on the response, where the reader thread
        stitches them into the coordinator-side trace.
        """
        future: "Future[Any]" = Future()
        with self._lock:
            if not self.alive:
                raise ShardCrashed(f"shard {self.span.shard} worker is down")
            seq = next(self._seq)
            self._pending[seq] = future
            try:
                self.conn.send((seq, op, payload, trace_ctx))
            except (BrokenPipeError, OSError) as exc:
                self._pending.pop(seq, None)
                self.alive = False
                raise ShardCrashed(f"shard {self.span.shard} pipe broke: {exc}") from exc
            except Exception:
                # e.g. an unpicklable payload: nothing reached the pipe,
                # so the worker is fine — fail only this request.
                self._pending.pop(seq, None)
                raise
        return future

    def _read_loop(self) -> None:
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                break
            except Exception:
                break
            seq, status, payload = message[0], message[1], message[2]
            if len(message) > 3 and message[3]:
                # Stitch worker-process spans into the in-flight trace
                # *before* the future resolves, so they are in place by
                # the time the querying thread closes its scatter span.
                absorb_remote_spans(message[3])
            with self._lock:
                future = self._pending.pop(seq, None)
            if future is None:
                continue
            if status == "ok":
                future.set_result(payload)
            else:
                future.set_exception(ShardRemoteError(*payload))
        with self._lock:
            self.alive = False
            pending = list(self._pending.values())
            self._pending.clear()
        crash = ShardCrashed(f"shard {self.span.shard} worker died mid-request")
        for future in pending:
            future.set_exception(crash)

    def close(self, graceful: bool = True, timeout: float = 5.0) -> None:
        """Stop the worker: ask nicely, then escalate. Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if graceful:
            with self._lock:
                if self.alive:
                    try:
                        self.conn.send((-1, "exit", None))
                    except (BrokenPipeError, OSError):
                        pass
            self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=timeout)
        try:
            self.conn.close()
        except OSError:
            pass
        self._reader.join(timeout=timeout)
        self.process.close()


class ShardCoordinator:
    """Scatter durable top-k queries across shard workers; merge exactly.

    Parameters
    ----------
    dataset:
        A :class:`~repro.core.record.Dataset` (a fresh
        :class:`ShardedDataset` is built and owned) or an existing
        :class:`ShardedDataset` (caller keeps ownership of its shared
        memory).
    n_shards:
        Number of workers when ``dataset`` is a plain dataset.
    pool_capacity:
        Per-worker session-pool size; size it at or above the distinct
        preferences in flight so warm indexes survive between requests.
    request_timeout:
        Seconds to wait for one shard's sub-answer before giving up.
    start_method:
        ``multiprocessing`` start method; ``None`` picks ``"fork"``
        where available (fast spawns, nothing re-imported) and falls
        back to the platform default.
    """

    def __init__(
        self,
        dataset: "Dataset | ShardedDataset",
        n_shards: int | None = None,
        pool_capacity: int = 64,
        request_timeout: float = 60.0,
        start_method: str | None = None,
    ) -> None:
        if isinstance(dataset, ShardedDataset):
            if n_shards is not None and n_shards != dataset.n_shards:
                raise ValueError(
                    f"dataset is already partitioned into {dataset.n_shards} "
                    f"shards; n_shards={n_shards} conflicts"
                )
            self.sharded = dataset
            self._owns_dataset = False
        else:
            if n_shards is None:
                raise ValueError("n_shards is required when passing a plain Dataset")
            self.sharded = ShardedDataset(dataset, n_shards)
            self._owns_dataset = True
        if start_method is None and sys.platform == "linux":
            # Fast spawns, nothing re-imported. Linux only: on macOS fork
            # from a threaded process (restarts happen while reader and
            # service threads are live) can abort in the ObjC runtime, so
            # other platforms keep their default (spawn) — the handle is
            # picklable and the worker entry is a module-level function,
            # so spawn works everywhere.
            start_method = "fork"
        self._ctx = multiprocessing.get_context(start_method)
        self.pool_capacity = pool_capacity
        self.request_timeout = request_timeout
        self._handle_token = self.sharded.handle()
        self._restart_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._closed = False
        self.queries = 0
        self.subqueries: dict[int, int] = {span.shard: 0 for span in self.spans}
        self.fanout: dict[int, int] = {}
        self.restarts = 0
        self.revivals = 0
        self._handles: list[ShardWorkerHandle] = [self._spawn(span) for span in self.spans]

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[ShardSpan]:
        return self.sharded.spans

    @property
    def n_shards(self) -> int:
        return self.sharded.n_shards

    @property
    def dataset(self) -> Dataset:
        return self.sharded.dataset

    def _spawn(self, span: ShardSpan) -> ShardWorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(child_conn, self._handle_token, span, self.pool_capacity),
            name=f"shard-worker-{span.shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return ShardWorkerHandle(span, process, parent_conn)

    def _restart(
        self, shard: int, failed: ShardWorkerHandle, revival: bool = False
    ) -> ShardWorkerHandle:
        """Replace a crashed handle (first caller wins; others reuse it).

        ``revival`` marks restarts initiated by :meth:`health_check`
        finding a worker dead *between* requests, as opposed to a crash
        surfacing mid-request; both count as restarts.
        """
        with self._restart_lock:
            if self._closed:
                raise ShardCrashed(f"shard {shard}: coordinator is closed")
            current = self._handles[shard]
            if current is failed:
                current.close(graceful=False, timeout=1.0)
                current = self._spawn(self.spans[shard])
                self._handles[shard] = current
                with self._stats_lock:
                    self.restarts += 1
                    if revival:
                        self.revivals += 1
                global_registry().counter("shard.worker.restarts", shard=shard).inc()
                if revival:
                    global_registry().counter("shard.worker.revivals", shard=shard).inc()
            return current

    def _call(
        self, shard: int, op: str, payload: Any, trace_ctx: tuple[str, str] | None = None
    ) -> Any:
        """One sub-request with submit-side and gather-side crash retry."""
        handle = self._handles[shard]
        try:
            future = handle.submit(op, payload, trace_ctx)
        except ShardCrashed:
            handle = self._restart(shard, handle)
            future = handle.submit(op, payload, trace_ctx)
        try:
            return future.result(timeout=self.request_timeout)
        except ShardCrashed:
            retry = self._restart(shard, handle)
            return retry.submit(op, payload, trace_ctx).result(timeout=self.request_timeout)
        except FutureTimeoutError as exc:
            raise TimeoutError(
                f"shard {shard} did not answer within {self.request_timeout}s"
            ) from exc

    def health_check(self, restart_dead: bool = True) -> list[dict]:
        """Ping every shard; optionally restart any dead worker first.

        Returns one info dict per shard (pid, span, served count). With
        ``restart_dead`` the check is also the repair: a worker whose
        process died between requests is respawned before the ping, and
        a crash *during* the ping triggers the usual restart-and-retry.
        """
        infos = []
        for shard, handle in enumerate(self._handles):
            if restart_dead and not handle.alive:
                self._restart(shard, handle, revival=True)
            infos.append(self._call(shard, "ping", None))
        return infos

    def worker_stats(self) -> list[dict]:
        """Per-worker served counts and session-pool stats."""
        return [self._call(shard, "stats", None) for shard in range(self.n_shards)]

    def stats(self) -> dict:
        """Coordinator-side counters: fanout histogram, restarts, shares."""
        with self._stats_lock:
            return {
                "queries": self.queries,
                "subqueries": dict(self.subqueries),
                "fanout": dict(self.fanout),
                "restarts": self.restarts,
                "revivals": self.revivals,
                "shards": self.n_shards,
            }

    def close(self) -> None:
        """Stop every worker; release the shared block if this side owns it."""
        with self._restart_lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
        for handle in handles:
            handle.close()
        if self._owns_dataset:
            self.sharded.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The scatter-gather query path
    # ------------------------------------------------------------------
    def query(self, request: QueryRequest, with_durations: bool = False) -> DurableTopKResult:
        """Answer one request, byte-identical to a single-process run.

        Sub-queries carry the scorer (a small picklable object), the
        clipped interval and the query parameters; the dataset itself
        never travels. The merged result's ``stats`` are the per-shard
        counters summed, and ``extra`` records which shards served the
        request (``shards``), the fanout width, and each shard's top-k
        query share. A batch of one: see :meth:`query_batch`.
        """
        return self.query_batch([request], with_durations)[0]

    def query_batch(
        self, requests: list[QueryRequest], with_durations: bool = False
    ) -> list[DurableTopKResult]:
        """Answer a same-preference batch with one sub-request per shard.

        Instead of one pipe round-trip per ``(request, shard)`` pair, the
        batch's clipped sub-queries are grouped by intersecting span and
        shipped as a single seq-tagged ``"query_batch"`` message per
        shard; each worker answers its group through one warm session's
        shared batched pass. Gathered answers are regrouped per original
        request and merged: ids concatenated in span order, durations
        unioned, stats summed — results are byte-identical to answering
        each request alone, in input order. All requests must share one
        preference (the service's batching key).
        """
        requests = list(requests)
        if not requests:
            return []
        key = preference_key(requests[0].scorer)
        for request in requests[1:]:
            if preference_key(request.scorer) != key:
                raise ValueError(
                    "query_batch serves one preference per batch; got requests "
                    f"keyed {key} and {preference_key(request.scorer)}"
                )
        n = self.sharded.n
        queries = [request.as_query() for request in requests]
        per_shard_entries: dict[int, list[dict]] = {}
        per_shard_positions: dict[int, list[int]] = {}
        targets_per_query: list[list[int]] = []
        for i, (request, query) in enumerate(zip(requests, queries)):
            lo, hi = query.resolve_interval(n)
            touched: list[int] = []
            for span in self.spans:
                clipped = span.intersect(lo, hi)
                if clipped is None:
                    continue
                per_shard_entries.setdefault(span.shard, []).append(
                    {
                        "k": request.k,
                        "tau": request.tau,
                        "lo": clipped[0],
                        "hi": clipped[1],
                        "direction": request.direction.value,
                        "algorithm": request.algorithm,
                    }
                )
                per_shard_positions.setdefault(span.shard, []).append(i)
                touched.append(span.shard)
            targets_per_query.append(touched)

        shards = sorted(per_shard_entries)
        with trace_span(
            "shard.scatter",
            op="query_batch",
            batch_size=len(requests),
            fanout=len(shards),
            shards=list(shards),
        ):
            start = time.perf_counter()
            shard_answers = self._scatter(
                "query_batch",
                [
                    (
                        shard,
                        {
                            "scorer": requests[0].scorer,
                            "queries": per_shard_entries[shard],
                            "with_durations": with_durations,
                        },
                    )
                    for shard in shards
                ],
            )
            elapsed = time.perf_counter() - start
        answer_of: dict[tuple[int, int], dict] = {}
        for shard, answers in zip(shards, shard_answers):
            for position, answer in zip(per_shard_positions[shard], answers):
                answer_of[(shard, position)] = answer

        with self._stats_lock:
            self.queries += len(requests)
            for touched in targets_per_query:
                width = len(touched)
                self.fanout[width] = self.fanout.get(width, 0) + 1
                for shard in touched:
                    self.subqueries[shard] += 1

        results: list[DurableTopKResult] = []
        for i, (request, query) in enumerate(zip(requests, queries)):
            touched = targets_per_query[i]
            answers = [answer_of[(shard, i)] for shard in touched]
            stats = QueryStats()
            durations: dict[int, int] = {}
            shard_topk: dict[int, int] = {}
            for shard, answer in zip(touched, answers):
                shard_stats = unpack_stats(answer["stats"])
                shard_topk[shard] = shard_stats.topk_queries
                stats.add(shard_stats)
                if answer["durations"]:
                    durations.update(answer["durations"])
            results.append(
                DurableTopKResult(
                    ids=merge_shard_answers([answer["ids"] for answer in answers]),
                    query=query,
                    algorithm=request.algorithm,
                    stats=stats,
                    elapsed_seconds=elapsed,
                    durations=durations if with_durations else None,
                    extra={
                        "shards": list(touched),
                        "shard_fanout": len(touched),
                        "shard_topk_queries": shard_topk,
                        "shard_elapsed_max": max(answer["elapsed"] for answer in answers),
                    },
                )
            )
        return results

    def _scatter(self, op: str, items: list[tuple[int, Any]]) -> list[Any]:
        """Submit one payload per shard, then gather (restarting crashes).

        All pipes are written before any response is awaited, so shards
        run genuinely in parallel; a crash triggers a restart and one
        resubmit of exactly the lost payloads.
        """
        trace_ctx = current_context()
        inflight: list[tuple[int, Any, ShardWorkerHandle | None, "Future[Any] | None"]] = []
        for shard, payload in items:
            handle = self._handles[shard]
            try:
                inflight.append(
                    (shard, payload, handle, handle.submit(op, payload, trace_ctx))
                )
            except ShardCrashed:
                inflight.append((shard, payload, None, None))  # restart at gather time
        answers = []
        for shard, payload, handle, future in inflight:
            if future is None:
                answers.append(self._call(shard, op, payload, trace_ctx))
                continue
            try:
                answers.append(future.result(timeout=self.request_timeout))
            except ShardCrashed:
                retry = self._restart(shard, handle)
                answers.append(
                    retry.submit(op, payload, trace_ctx).result(timeout=self.request_timeout)
                )
            except FutureTimeoutError as exc:
                raise TimeoutError(
                    f"shard {shard} did not answer within {self.request_timeout}s"
                ) from exc
        return answers
