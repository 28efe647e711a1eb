"""Wire protocol of the network gateway: length-prefixed JSON frames.

A *frame* is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON — one object per frame. Length-prefix framing (not
newline-delimited, not request-per-connection) is what lets one
persistent connection carry an arbitrary pipeline of requests and
out-of-order responses: the continuous-serving model of Vouzoukidou et
al. (PAPERS.md), where clients hold a connection open and stream queries
over it, rather than paying a TCP+auth handshake per query.

Frame kinds (the ``op`` field):

* ``auth``   → ``hello`` — first client frame on a connection; carries
  the tenant API key. Everything before a successful auth is refused
  with ``auth_required``.
* ``query``  → ``result`` | ``error`` — one durable top-k question.
  Queries carry a client-chosen ``id`` that the response echoes, so a
  pipelined client can match out-of-order completions.
* ``ping``   → ``pong`` — liveness, allowed pre-auth.

Responses to rejected work are typed: the ``code`` field carries one of
:class:`ErrorCode`, whose values deliberately include the service's
:class:`~repro.service.request.RejectionReason` values verbatim —
admission-control refusals (queue_full/timeout/shed/shutdown) cross the
wire unchanged, and gateway-level refusals (auth, rate limit, framing)
extend the same namespace.

Oversized frames are a protocol violation, not a request error: a peer
announcing a frame beyond ``max_frame_bytes`` gets one
``frame_too_large`` error and the connection is closed (the stream can
no longer be trusted to be in sync).
"""

from __future__ import annotations

import enum
import json
import operator
import struct
from dataclasses import dataclass

from repro.core.query import Direction
from repro.service.request import QueryRequest, RejectionReason

__all__ = [
    "MAX_FRAME_BYTES",
    "ErrorCode",
    "FrameDecoder",
    "FrameTooLarge",
    "ProtocolError",
    "WireResult",
    "encode_frame",
    "error_frame",
    "rejection_code",
    "request_from_wire",
    "request_to_wire",
    "response_to_wire",
]

#: Default ceiling on one frame's JSON body. Durable top-k answers are
#: id lists plus counters — even a 10k-id answer with durations is well
#: under 1 MiB — so anything larger is a broken or hostile peer.
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">I")

#: One compact encoder for every frame: ``json.dumps`` with non-default
#: separators builds a fresh ``JSONEncoder`` per call; this one encodes
#: to the same bytes.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class ErrorCode(enum.Enum):
    """Typed wire error codes (a superset of the service's reasons)."""

    #: The first frame was not a successful ``auth``.
    AUTH_REQUIRED = "auth_required"
    #: Unknown or revoked API key.
    AUTH_FAILED = "auth_failed"
    #: Malformed frame body or query parameters.
    BAD_REQUEST = "bad_request"
    #: Announced frame length beyond the gateway's ceiling.
    FRAME_TOO_LARGE = "frame_too_large"
    #: The tenant's token bucket is empty (per-tenant rate limit).
    RATE_LIMITED = "rate_limited"
    #: Admission refused: the tenant's queue quota or the service's
    #: bounded queue is full (RejectionReason.QUEUE_FULL on the wire).
    QUEUE_FULL = "queue_full"
    #: The request waited in the queue past its deadline.
    TIMEOUT = "timeout"
    #: Below-normal-priority work dropped during SLO fast burn.
    SHED = "shed"
    #: The gateway (or service) is draining; no new work accepted.
    SHUTDOWN = "shutdown"
    #: The query raised inside the execution backend.
    INTERNAL = "internal"


def rejection_code(reason: RejectionReason) -> ErrorCode:
    """The wire code for a service admission rejection (values align)."""
    return ErrorCode(reason.value)


class ProtocolError(ValueError):
    """A frame that cannot be honoured, with its wire error code.

    Raised by :meth:`FrameDecoder.feed`, ``frames`` holds the frames it
    decoded from the same chunk ahead of the bad one, in order.
    """

    def __init__(self, code: ErrorCode, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.frames: list[dict] = []


class FrameTooLarge(ProtocolError):
    """Announced frame length beyond the decoder's ceiling."""

    def __init__(self, length: int, limit: int) -> None:
        super().__init__(
            ErrorCode.FRAME_TOO_LARGE,
            f"frame of {length} bytes exceeds the {limit}-byte limit",
        )
        self.length = length
        self.limit = limit


def encode_frame(payload: dict) -> bytes:
    """One wire frame: 4-byte big-endian length + compact JSON body."""
    body = _ENCODER.encode(payload).encode("utf-8")
    return _HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame decoder for an arbitrarily-chunked byte stream.

    TCP preserves order, not boundaries: one ``recv`` may deliver half a
    header, or three frames and the first byte of a fourth. ``feed``
    accepts whatever arrived and returns every *complete* frame it can
    decode, keeping the remainder buffered. Raises :class:`FrameTooLarge`
    the moment a header announces a body beyond ``max_frame_bytes`` —
    before buffering any of it — and :class:`ProtocolError` for a body
    that is not a JSON object; it raises nothing else. The error carries
    the frames decoded ahead of the bad one (``exc.frames``), so requests
    pipelined before it can still be answered.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        self._buffer.extend(data)
        frames: list[dict] = []
        try:
            while True:
                if len(self._buffer) < _HEADER.size:
                    return frames
                (length,) = _HEADER.unpack_from(self._buffer)
                if length > self.max_frame_bytes:
                    raise FrameTooLarge(length, self.max_frame_bytes)
                if len(self._buffer) < _HEADER.size + length:
                    return frames
                body = bytes(self._buffer[_HEADER.size : _HEADER.size + length])
                del self._buffer[: _HEADER.size + length]
                try:
                    payload = json.loads(body)
                except (ValueError, RecursionError) as exc:
                    # RecursionError: nesting deeper than the parser's
                    # stack (a body of 200 KB of "[" is enough).
                    raise ProtocolError(
                        ErrorCode.BAD_REQUEST, f"frame body is not valid JSON: {exc}"
                    ) from exc
                if not isinstance(payload, dict):
                    raise ProtocolError(
                        ErrorCode.BAD_REQUEST, "frame body must be a JSON object"
                    )
                frames.append(payload)
        except ProtocolError as exc:
            exc.frames = frames
            raise


# --------------------------------------------------------------------------
# query serialisation
# --------------------------------------------------------------------------


def request_to_wire(request: QueryRequest, id: int | None = None) -> dict:
    """The ``query`` frame for one service-level request."""
    payload: dict = {
        "op": "query",
        "u": [float(w) for w in request.scorer.u],
        "k": int(request.k),
        "tau": int(request.tau),
    }
    if id is not None:
        payload["id"] = id
    if request.interval is not None:
        payload["interval"] = [int(request.interval[0]), int(request.interval[1])]
    if request.direction is not Direction.PAST:
        payload["direction"] = request.direction.value
    payload["algorithm"] = request.algorithm
    if request.timeout is not None:
        payload["timeout"] = float(request.timeout)
    if request.priority:
        payload["priority"] = int(request.priority)
    return payload


def _wire_int(value, name: str) -> int:
    """An integer field of a ``query`` frame.

    JSON numbers arrive as ``int`` or ``float``; a float is accepted only
    when it is integral, and booleans (an ``int`` subclass in Python) are
    refused, so ``10.9`` or ``true`` never silently become ``10`` or ``1``.
    """
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            if isinstance(value, float) and value.is_integer():
                return int(value)
    raise ProtocolError(
        ErrorCode.BAD_REQUEST, f"{name} must be an integer, got {value!r}"
    )


def request_from_wire(
    payload: dict, scorer_of, default_priority: int = 0
) -> QueryRequest:
    """Parse one ``query`` frame into a :class:`QueryRequest`.

    ``scorer_of`` maps a preference-weight tuple to a scorer — the
    server passes a memoised constructor so hot preferences reuse one
    scorer object per process instead of allocating per request.
    Raises :class:`ProtocolError` (``bad_request``) on anything the
    service would crash on; validation here keeps garbage off the
    worker threads.
    """
    u = payload.get("u")
    if not isinstance(u, (list, tuple)) or not u:
        raise ProtocolError(ErrorCode.BAD_REQUEST, "query needs a weight vector 'u'")
    try:
        weights = tuple(float(w) for w in u)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(ErrorCode.BAD_REQUEST, f"bad weight vector: {exc}") from exc
    interval = payload.get("interval")
    if interval is not None:
        if not isinstance(interval, (list, tuple)) or len(interval) != 2:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, "interval must be a [lo, hi] pair"
            )
        interval = (
            _wire_int(interval[0], "interval"),
            _wire_int(interval[1], "interval"),
        )
    direction = payload.get("direction", Direction.PAST.value)
    try:
        direction = Direction(direction)
    except ValueError as exc:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"unknown direction {direction!r}"
        ) from exc
    timeout = payload.get("timeout")
    try:
        request = QueryRequest(
            scorer=scorer_of(weights),
            k=_wire_int(payload.get("k", 0), "k"),
            tau=_wire_int(payload.get("tau", 0), "tau"),
            interval=interval,
            direction=direction,
            algorithm=str(payload.get("algorithm", "s-hop")),
            timeout=float(timeout) if timeout is not None else None,
            priority=_wire_int(payload.get("priority", default_priority), "priority"),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(ErrorCode.BAD_REQUEST, str(exc)) from exc
    return request


def response_to_wire(response, id=None) -> dict:
    """Serialise one service :class:`QueryResponse` as a wire frame.

    Success carries the full answer — ids, per-record durabilities and
    the per-query :class:`~repro.core.query.QueryStats` counters — so a
    client (and the smoke gate) can check byte-identity against an
    in-process engine, plus the serving tags: which cache tier answered
    (``cache``), how stale the snapshot was (``staleness_rows``, live
    backends only) and the batch it rode in. Rejections become typed
    ``error`` frames via :func:`rejection_code`.
    """
    if response.error is not None:
        frame = error_frame(
            rejection_code(response.error.reason), str(response.error), id=id
        )
        frame["total_seconds"] = round(response.total_seconds, 9)
        return frame
    result = response.result
    frame: dict = {
        "op": "result",
        "id": id,
        "ok": True,
        "algorithm": result.algorithm,
        "ids": [int(t) for t in result.ids],
        "stats": {k: int(v) for k, v in result.stats.as_dict().items()},
        "elapsed_seconds": result.elapsed_seconds,
        "durations": (
            {str(int(t)): int(d) for t, d in result.durations.items()}
            if result.durations is not None
            else None
        ),
        "batch_size": response.batch_size,
        "wait_seconds": round(response.wait_seconds, 9),
        "total_seconds": round(response.total_seconds, 9),
        "cache": response.extra.get("cache"),
    }
    staleness = result.extra.get("staleness_rows")
    if staleness is not None:
        frame["staleness_rows"] = int(staleness)
    snapshot = result.extra.get("snapshot_n")
    if snapshot is not None:
        frame["snapshot_n"] = int(snapshot)
    return frame


def error_frame(code: ErrorCode, message: str, id=None) -> dict:
    """One typed ``error`` frame."""
    return {"op": "error", "id": id, "ok": False, "code": code.value, "message": message}


@dataclass
class WireResult:
    """A client-side view of one ``result``/``error`` frame.

    ``durations`` keys are converted back to ints (JSON forces string
    keys on the wire), so :meth:`identical_to` can compare against an
    engine-produced :class:`~repro.core.query.DurableTopKResult`
    byte-for-byte.
    """

    id: int | None
    ok: bool
    algorithm: str | None = None
    ids: list[int] | None = None
    durations: dict[int, int] | None = None
    stats: dict | None = None
    elapsed_seconds: float = 0.0
    total_seconds: float = 0.0
    batch_size: int = 0
    cache: str | None = None
    staleness_rows: int | None = None
    error_code: str | None = None
    error_message: str | None = None

    @classmethod
    def from_wire(cls, frame: dict) -> "WireResult":
        if frame.get("op") == "error" or not frame.get("ok", False):
            return cls(
                id=frame.get("id"),
                ok=False,
                error_code=frame.get("code"),
                error_message=frame.get("message"),
                total_seconds=float(frame.get("total_seconds", 0.0)),
            )
        durations = frame.get("durations")
        return cls(
            id=frame.get("id"),
            ok=True,
            algorithm=frame.get("algorithm"),
            ids=[int(t) for t in frame.get("ids", [])],
            durations=(
                {int(t): int(d) for t, d in durations.items()}
                if durations is not None
                else None
            ),
            stats=dict(frame.get("stats") or {}),
            elapsed_seconds=float(frame.get("elapsed_seconds", 0.0)),
            total_seconds=float(frame.get("total_seconds", 0.0)),
            batch_size=int(frame.get("batch_size", 0)),
            cache=frame.get("cache"),
            staleness_rows=frame.get("staleness_rows"),
        )

    def identical_to(self, expected) -> bool:
        """Byte-identity against an engine report — or another wire result.

        ``expected`` is usually an in-process ``TopKReport`` (whose stats
        object carries ``as_dict``); comparing two :class:`WireResult`\\ s
        (e.g. a replayed answer against a recorded one) works too.
        """
        stats = expected.stats if isinstance(expected.stats, dict) else expected.stats.as_dict()
        return (
            self.ok
            and self.ids == [int(t) for t in expected.ids]
            and self.durations == expected.durations
            and self.stats == {k: int(v) for k, v in stats.items()}
        )
