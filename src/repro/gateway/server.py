"""The asyncio TCP gateway in front of :class:`DurableTopKService`.

One event loop in a dedicated thread accepts persistent connections and
speaks the length-prefixed JSON protocol of :mod:`repro.gateway.protocol`.
The loop thread never executes a query: each admitted request is handed
to the threaded service via ``service.submit``, and what happens next
depends on whether the returned :class:`concurrent.futures.Future` is
already done:

* **Done when submit returns** — an exact answer-cache hit, or a typed
  service rejection, both settled inside ``submit`` on the loop thread.
  The loop serialises and writes the answer at once: no queue slot, no
  done-callback, no ``call_soon_threadsafe`` wake-up of its own
  self-pipe.
* **Pending** — a miss (or a request riding an in-flight twin). The
  future carries a done-callback that serialises the response on the
  worker thread that completed it, then hops back onto the loop with
  ``call_soon_threadsafe`` to write the frame, so the loop that every
  connection shares spends no time on that response's JSON.

Every answer the loop produces while dispatching one read's frames
(hits, rejections, pongs, errors) goes to the connection's outbox, which
is flushed with one transport write when the read's frames are done —
also when a frame closes the connection — so a pipelined burst of hits
costs one ``send`` rather than one per frame. Answers arriving from
worker threads are written one by one as they land. No per-request
asyncio task, no future wrapping, no write lock — every write happens
on the loop thread, which serialises frames by construction. Responses
therefore return in completion order (the client matches them by echoed
``id``), slow queries never stall the accept/read path, and
same-preference requests from different connections land in the same
service batch while identical in-flight queries coalesce — the gateway
inherits the whole batching, single-flight and cache stack for free.

Admission on the loop thread, in order, cheapest first:

1. **auth** — ``sha256(key)`` + one dict get against the pre-hashed
   registry, *re-done per request* so a revocation is effective on the
   next frame, not the next connection;
2. **rate limit** — the tenant's token bucket (``rate_limited``);
3. **queue quota** — the tenant's in-service request ceiling
   (``queue_full``), bounding how much of the shared admission queue
   one tenant can own;
4. **drain check** — a draining gateway answers ``shutdown``.

Only then does the request cost a service queue slot; service-side
rejections (queue_full/timeout/shed/shutdown) come back as data on the
future and cross the wire as the same typed codes.

Shutdown is a graceful drain: the listener closes (new connections
refused), queries already inside the service run to completion and
their responses are flushed, then connections are torn down and the
loop exits. ``close(drain=False)`` abandons in-flight work instead.

Writes are buffered by the transport and not awaited (a reply frame is
a few hundred bytes; flow control for a client that never reads is the
kernel's socket buffer plus the drain timeout, not the request path).
Queries answered on the loop never hold a drain-barrier slot: only a
pending future counts toward ``_open`` and the tenant's queue quota.

Observability: per-tenant counters in the metrics registry
(``gateway.requests{tenant,outcome}``, ``gateway.bytes_in/out``,
``gateway.connections`` gauge + ``gateway.connections_total``) feed the
Prometheus export and the ``repro top`` gateway row; resolved Counter
objects are memoised because the registry's label-key handling is too
slow for a per-request path. ``gateway.bytes_out`` is counted per
transport write, under the connection's tenant at the time of the write.
Each completed request retro-records a ``gateway.request`` span (rooted
at arrival time via the ``_start`` override, with a ``gateway.service``
child for the submit→resolve region) into the trace tree — opened and
closed synchronously after completion, because the tracer's span stack
is thread-local and holding a span across an ``await`` would interleave
concurrent requests' trees.
"""

from __future__ import annotations

import asyncio
import threading
from time import perf_counter

from repro.obs import MetricsRegistry, global_registry
from repro.obs.trace import add_span, trace_span
from repro.scoring import LinearPreference

from .auth import ApiKeyRegistry, Tenant, TokenBucket, hash_key
from .protocol import (
    MAX_FRAME_BYTES,
    ErrorCode,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    error_frame,
    request_from_wire,
    response_to_wire,
)

__all__ = ["DurableTopKGateway"]

_READ_CHUNK = 1 << 16


class _Connection:
    """Per-connection state: auth, decoder, writer, outbox."""

    __slots__ = ("writer", "decoder", "digest", "tenant", "outbox")

    def __init__(self, writer: asyncio.StreamWriter, max_frame_bytes: int) -> None:
        self.writer = writer
        self.decoder = FrameDecoder(max_frame_bytes)
        self.digest: str | None = None
        self.tenant: Tenant | None = None
        #: Frames answered while one read's frames are dispatched; ``None``
        #: outside a dispatch, when a frame goes straight to the writer.
        self.outbox: list[bytes] | None = None

    @property
    def tenant_label(self) -> str:
        return self.tenant.name if self.tenant is not None else "-"


class DurableTopKGateway:
    """Serve a :class:`DurableTopKService` over TCP.

    Parameters
    ----------
    service:
        The (already started) service to front. The gateway does not
        own it: closing the gateway leaves the service running.
    keys:
        An :class:`ApiKeyRegistry`, or a plain ``{plaintext_key:
        Tenant}`` dict to load into a fresh one. The registry object
        stays live — ``add``/``revoke``/``load`` on it take effect on
        the next request with no gateway restart.
    port:
        ``0`` (the default) binds an OS-assigned port, published as
        ``self.port`` once :meth:`start` returns.
    """

    def __init__(
        self,
        service,
        keys: ApiKeyRegistry | dict[str, Tenant],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        registry: MetricsRegistry | None = None,
        drain_timeout: float = 10.0,
    ) -> None:
        self.service = service
        self.keys = keys if isinstance(keys, ApiKeyRegistry) else ApiKeyRegistry(keys)
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.registry = registry if registry is not None else global_registry()
        self.drain_timeout = drain_timeout
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._draining = False
        self._drain = True
        self._closed = False
        # Requests currently inside the service across all tenants (the
        # drain barrier), plus per-tenant admission state shared across
        # that tenant's connections. Loop thread only.
        self._open = 0
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight: dict[str, int] = {}
        self._connections: set[_Connection] = set()
        # Hot preferences resolve to one shared scorer object per
        # process (the service batches by preference *content*, so this
        # is an allocation saving, not a correctness requirement).
        self._scorers: dict[tuple, LinearPreference] = {}
        # Registry series are resolved through a lock plus label-key
        # sorting; at gateway request rates that shows up, so resolved
        # Counter objects are memoised per label set (loop thread only).
        self._request_counters: dict[tuple[str, str], object] = {}
        self._byte_counters: dict[tuple[str, str], object] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "DurableTopKGateway":
        """Bind and serve in a background thread; returns once bound."""
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        self._thread = threading.Thread(
            target=self._run, name="gateway-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failure path
            self._startup_error = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._idle = asyncio.Event()
        server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        await self._stop.wait()
        # Drain: refuse new connections first, then let queries already
        # inside the service finish and write their responses.
        server.close()
        await server.wait_closed()
        if self._drain and self._open > 0:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=self.drain_timeout)
            except asyncio.TimeoutError:  # pragma: no cover - stuck service
                pass
        # Flush buffered responses, then tear the connections down.
        connections = list(self._connections)
        for conn in connections:
            conn.writer.close()
        await asyncio.gather(
            *(conn.writer.wait_closed() for conn in connections),
            return_exceptions=True,
        )

    def close(self, drain: bool = True) -> None:
        """Stop serving. ``drain`` lets in-flight requests complete."""
        if self._thread is None or self._closed:
            return
        self._closed = True
        self._draining = True
        self._drain = drain
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout=self.drain_timeout + 10.0)

    def __enter__(self) -> "DurableTopKGateway":
        return self.start() if self._thread is None else self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # connection handling (all on the loop thread)
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            writer.close()
            return
        conn = _Connection(writer, self.max_frame_bytes)
        self._connections.add(conn)
        self.registry.counter("gateway.connections_total").inc()
        self.registry.gauge("gateway.connections").inc()
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                self._count_bytes("in", conn.tenant_label, len(data))
                conn.outbox = []
                error: ProtocolError | None = None
                try:
                    try:
                        frames = conn.decoder.feed(data)
                    except ProtocolError as exc:
                        frames, error = exc.frames, exc
                    if not all(self._dispatch(conn, frame) for frame in frames):
                        break
                    if error is not None:
                        # A desynchronised stream cannot be recovered:
                        # answer the frames ahead of the bad one, then
                        # the error, then hang up.
                        self._send(conn, error_frame(error.code, str(error)))
                        break
                finally:
                    self._flush(conn)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(conn)
            self.registry.gauge("gateway.connections").dec()
            writer.close()

    def _dispatch(self, conn: _Connection, frame: dict) -> bool:
        """Handle one frame; False closes the connection."""
        op = frame.get("op")
        id = frame.get("id")
        if op == "query" and conn.digest is not None:
            return self._admit(conn, frame, id)
        if op == "ping":
            self._send(conn, {"op": "pong", "id": id})
            return True
        if op == "auth":
            return self._auth(conn, frame)
        if conn.digest is None:
            self._send(
                conn,
                error_frame(
                    ErrorCode.AUTH_REQUIRED, "first frame must be an auth", id=id
                ),
            )
            return False
        self._send(
            conn, error_frame(ErrorCode.BAD_REQUEST, f"unknown op {op!r}", id=id)
        )
        return True

    def _auth(self, conn: _Connection, frame: dict) -> bool:
        key = frame.get("key")
        digest = hash_key(key) if isinstance(key, str) else ""
        tenant = self.keys.lookup_hashed(digest)
        if tenant is None:
            self._count("-", "auth_failed")
            self._send(
                conn,
                error_frame(
                    ErrorCode.AUTH_FAILED, "unknown API key", id=frame.get("id")
                ),
            )
            return False
        conn.digest = digest
        conn.tenant = tenant
        self._send(
            conn, {"op": "hello", "id": frame.get("id"), "tenant": tenant.name}
        )
        return True

    def _admit(self, conn: _Connection, frame: dict, id) -> bool:
        t0 = perf_counter()
        # Re-resolve the tenant on every request: one dict get, and the
        # price of making revocation immediate rather than per-connection.
        tenant = self.keys.lookup_hashed(conn.digest)
        if tenant is None:
            self._count(conn.tenant_label, "auth_failed")
            self._send(
                conn, error_frame(ErrorCode.AUTH_FAILED, "API key revoked", id=id)
            )
            return False
        conn.tenant = tenant
        name = tenant.name
        bucket = self._buckets.get(name)
        if bucket is None or bucket.rate != tenant.rate or bucket.burst != tenant.burst:
            bucket = self._buckets[name] = TokenBucket(tenant.rate, tenant.burst)
        if not bucket.try_acquire():
            self._count(name, "rate_limited")
            self._send(
                conn,
                error_frame(
                    ErrorCode.RATE_LIMITED, f"tenant {name} over rate limit", id=id
                ),
            )
            return True
        if self._inflight.get(name, 0) >= tenant.max_inflight:
            self._count(name, "queue_full")
            self._send(
                conn,
                error_frame(
                    ErrorCode.QUEUE_FULL,
                    f"tenant {name} queue quota ({tenant.max_inflight}) exhausted",
                    id=id,
                ),
            )
            return True
        if self._draining:
            self._count(name, "shutdown")
            self._send(
                conn, error_frame(ErrorCode.SHUTDOWN, "gateway draining", id=id)
            )
            return True
        try:
            request = request_from_wire(
                frame, self._scorer_of, default_priority=tenant.priority
            )
        except ProtocolError as exc:
            self._count(name, "bad_request")
            self._send(conn, error_frame(exc.code, str(exc), id=id))
            return True
        try:
            future = self.service.submit(request)
        except Exception as exc:
            self._count(name, "internal")
            self._send(conn, error_frame(ErrorCode.INTERNAL, repr(exc), id=id))
            return True
        if future.done():
            # An exact cache hit or a typed rejection settled inside
            # submit: answer it now, with no queue slot and no hop
            # through the loop's self-pipe.
            self._deliver(conn, name, t0, *self._encode(future, id, t0))
            return True
        self._inflight[name] = self._inflight.get(name, 0) + 1
        self._open += 1
        future.add_done_callback(
            lambda f, conn=conn, id=id, name=name, t0=t0: self._resolved(
                conn, id, name, f, t0
            )
        )
        return True

    def _encode(self, future, id, t0: float) -> tuple[str, bytes, float]:
        """A done future's answer: ``(outcome, frame bytes, service seconds)``."""
        try:
            response = future.result()
            outcome = "ok" if response.ok else response.error.reason.value
            data = encode_frame(response_to_wire(response, id=id))
            return outcome, data, response.total_seconds
        except BaseException as exc:
            # The service stores whatever a batch raised in the future,
            # BaseException included; it becomes this request's answer.
            data = encode_frame(error_frame(ErrorCode.INTERNAL, repr(exc), id=id))
            return "internal", data, perf_counter() - t0

    def _resolved(self, conn: _Connection, id, name: str, future, t0: float) -> None:
        """Future done-callback (any thread): serialise the response on the
        thread that completed it, then hop onto the loop to write it."""
        loop = self._loop
        if loop is None or loop.is_closed():  # pragma: no cover - late completion
            return
        answer = self._encode(future, id, t0)
        try:
            loop.call_soon_threadsafe(self._complete, conn, name, t0, *answer)
        except RuntimeError:  # pragma: no cover - loop shut down mid-call
            pass

    def _complete(
        self,
        conn: _Connection,
        name: str,
        t0: float,
        outcome: str,
        data: bytes,
        service_seconds: float,
    ) -> None:
        """Write one response a worker thread finished (loop thread)."""
        try:
            self._deliver(conn, name, t0, outcome, data, service_seconds)
        finally:
            self._inflight[name] = max(0, self._inflight.get(name, 0) - 1)
            self._open -= 1
            if self._open <= 0 and self._draining and self._idle is not None:
                self._idle.set()

    def _deliver(
        self,
        conn: _Connection,
        name: str,
        t0: float,
        outcome: str,
        data: bytes,
        service_seconds: float,
    ) -> None:
        """Trace, count and write one serialised response (loop thread)."""
        self._trace(name, outcome, t0, service_seconds)
        self._count(name, outcome)
        self._write(conn, data)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _send(self, conn: _Connection, payload: dict) -> None:
        self._write(conn, encode_frame(payload))

    def _write(self, conn: _Connection, data: bytes) -> None:
        if conn.outbox is not None:
            conn.outbox.append(data)
            return
        try:
            conn.writer.write(data)
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            return
        self._count_bytes("out", conn.tenant_label, len(data))

    def _flush(self, conn: _Connection) -> None:
        """Write one read's answers with a single transport write."""
        outbox, conn.outbox = conn.outbox, None
        if outbox:
            self._write(conn, b"".join(outbox))

    def _count(self, tenant: str, outcome: str) -> None:
        counter = self._request_counters.get((tenant, outcome))
        if counter is None:
            counter = self._request_counters[(tenant, outcome)] = self.registry.counter(
                "gateway.requests", tenant=tenant, outcome=outcome
            )
        counter.inc()

    def _count_bytes(self, direction: str, tenant: str, amount: int) -> None:
        counter = self._byte_counters.get((direction, tenant))
        if counter is None:
            counter = self._byte_counters[(direction, tenant)] = self.registry.counter(
                f"gateway.bytes_{direction}", tenant=tenant
            )
        counter.inc(amount)

    def _trace(self, name: str, outcome: str, t0: float, service_seconds: float) -> None:
        # Retro-recorded: opened *after* completion with the arrival
        # time as ``_start`` (the tracer's stack is thread-local, so a
        # span held across an await would interleave with concurrent
        # requests). No awaits between open and close.
        with trace_span("gateway.request", _start=t0, tenant=name, outcome=outcome):
            add_span("gateway.service", t0, service_seconds)

    def _scorer_of(self, weights: tuple) -> LinearPreference:
        scorer = self._scorers.get(weights)
        if scorer is None:
            if len(self._scorers) > 4096:
                self._scorers.clear()
            scorer = self._scorers[weights] = LinearPreference(list(weights))
        return scorer
