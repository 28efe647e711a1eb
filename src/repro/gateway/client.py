"""A blocking-socket client for the gateway wire protocol.

Deliberately plain ``socket`` + threads rather than asyncio: the
benchmark's load generators, the tests, and any user script get a
client with no event loop to manage. Send and receive sides take
separate locks, so the pipelined pattern — one thread streaming
``submit`` calls while another drains ``recv`` — works on a single
connection, which is how ``perfbench``'s wire workloads drive load.

:meth:`query` is the one-liner for sequential use (submit, then wait
for the frame echoing the request id). Typed server refusals surface as
:class:`WireResult` with ``ok=False`` and the wire ``code`` — data, not
exceptions — so a load generator can count rejections without
unwinding; protocol-level failures (auth refused, oversized frame,
connection torn down) raise :class:`GatewayError`.
"""

from __future__ import annotations

import itertools
import socket
import threading

from repro.service.request import QueryRequest

from .protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    WireResult,
    encode_frame,
    request_to_wire,
)

__all__ = ["GatewayClient", "GatewayError"]


class GatewayError(RuntimeError):
    """A connection- or auth-level failure, with its wire code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class GatewayClient:
    """One persistent, authenticated gateway connection."""

    def __init__(
        self,
        host: str,
        port: int,
        key: str | None = None,
        timeout: float = 30.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._decoder = FrameDecoder(max_frame_bytes)
        self._frames: list[dict] = []
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._ids = itertools.count(1)
        self.tenant: str | None = None
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if key is not None:
                self.auth(key)
        except BaseException:
            # A refused key (or a dead peer) leaves no caller holding the
            # client, so nobody else could close its socket.
            self.close()
            raise

    # -- raw frame I/O -------------------------------------------------
    def send(self, payload: dict) -> None:
        with self._send_lock:
            self._sock.sendall(encode_frame(payload))

    def recv(self) -> dict:
        """The next frame off the wire (blocking)."""
        with self._recv_lock:
            while not self._frames:
                data = self._sock.recv(1 << 16)
                if not data:
                    raise GatewayError("closed", "connection closed by gateway")
                self._frames.extend(self._decoder.feed(data))
            return self._frames.pop(0)

    # -- protocol ------------------------------------------------------
    def auth(self, key: str) -> str:
        """Authenticate; returns the tenant name. Raises on refusal."""
        self.send({"op": "auth", "key": key})
        frame = self.recv()
        if frame.get("op") != "hello":
            raise GatewayError(frame.get("code", "error"), frame.get("message", ""))
        self.tenant = frame.get("tenant")
        return self.tenant

    def ping(self) -> None:
        self.send({"op": "ping"})
        frame = self.recv()
        if frame.get("op") != "pong":
            raise GatewayError(frame.get("code", "error"), frame.get("message", ""))

    def submit(self, request: QueryRequest, id: int | None = None) -> int:
        """Fire one query without waiting; returns its wire id."""
        id = next(self._ids) if id is None else id
        self.send(request_to_wire(request, id=id))
        return id

    def result(self) -> WireResult:
        """The next query result/error frame (skips pongs/hellos)."""
        while True:
            frame = self.recv()
            if frame.get("op") in ("result", "error"):
                return WireResult.from_wire(frame)

    def query(self, request: QueryRequest) -> WireResult:
        """Submit and wait for this request's response (sequential use)."""
        id = self.submit(request)
        while True:
            answer = self.result()
            if answer.id == id:
                return answer

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
