"""The load generator: one thread, two connections, ``select`` pacing.

``asyncio`` sleeps wake up to a millisecond late (epoll's timeout is in
milliseconds), which is longer than a cache-hit request takes. A
``select`` that sleeps is no better on a shared VM: a sleeping vCPU is
halted, and waking it waits for the host's scheduler, which took
milliseconds whenever the host was busy. So while a phase runs the
generator polls ``select.select`` with a zero timeout and never
sleeps; it has a CPU of its own for that. Open-loop latency is timed
from each request's *intended* send time, so a generator or server
stall is charged to the requests it delayed.
"""

from __future__ import annotations

import gc
import json
import re
import select
import socket
import struct
from dataclasses import dataclass, field
from time import perf_counter

import bootstrap

bootstrap.require_source()

from repro.gateway import MAX_FRAME_BYTES, FrameDecoder, encode_frame, request_to_wire  # noqa: E402

CONNECTIONS = 2

_HEADER = struct.Struct(">I")
#: The gateway writes every answer frame with ``op`` first and ``id``
#: second, so the first ``"id":`` in a body is the frame's own.
_FRAME_ID = re.compile(rb'"id":(\d+)')


@dataclass
class Phase:
    """Per-request record of one driven phase (index = request order)."""

    name: str
    requests: list
    intended: list = field(default_factory=list)
    sent: list = field(default_factory=list)
    received: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0


class RawFrames:
    """Splits the byte stream into frame bodies without parsing them.

    Decoding JSON costs the generator more than the gateway's cache hit
    costs the server, so during a phase a body is only scanned for its
    id; :meth:`Generator.run` parses the bodies after the phase ends.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        self._buffer.extend(data)
        bodies = []
        while len(self._buffer) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ConnectionError(f"answer frame of {length} bytes")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                break
            bodies.append(bytes(self._buffer[_HEADER.size : end]))
            del self._buffer[:end]
        return bodies


class Connection:
    """One authenticated gateway socket, read through ``select``."""

    def __init__(self, port: int, key: str) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()
        self.frames = RawFrames()
        self.sock.sendall(encode_frame({"op": "auth", "key": key}))
        hello = self.read_one()
        if hello.get("op") != "hello":
            raise RuntimeError(f"gateway refused the benchmark key: {hello}")

    def read_one(self) -> dict:
        while True:
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("gateway closed the connection")
            frames = self.decoder.feed(data)
            if frames:
                if len(frames) > 1:
                    raise RuntimeError("unexpected pipelined frame")
                return frames[0]

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class Generator:
    """Drives request lists over :data:`CONNECTIONS` gateway connections."""

    def __init__(self, port: int, key: str, drain_seconds: float = 30.0) -> None:
        self.conns = [Connection(port, key) for _ in range(CONNECTIONS)]
        self.drain_seconds = drain_seconds
        self._next_id = 1
        # Query bodies without their id, per drawn request object: hot
        # tiles repeat 512 requests, so most sends only splice an id in.
        self._bodies: dict[int, bytes] = {}

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def ping_rtt_us(self, count: int = 200) -> list[float]:
        """Round trips of ``ping`` frames on an idle connection (µs)."""
        conn = self.conns[0]
        out = []
        for _ in range(count):
            start = perf_counter()
            conn.sock.sendall(encode_frame({"op": "ping"}))
            conn.read_one()
            out.append((perf_counter() - start) * 1e6)
        return out

    def run(
        self,
        phase: Phase,
        *,
        window: int | None = None,
        duration: float | None = None,
        offsets: list[float] | None = None,
        prepare=None,
    ) -> Phase:
        """Send ``phase.requests`` and collect every answer.

        Closed window: keep ``window`` requests outstanding until
        ``duration`` seconds (or the list) run out. Open loop: send
        request ``i`` at ``start + offsets[i]`` whatever is outstanding.
        ``prepare(request, t)`` may rewrite a request just before it is
        sent at (intended) time ``t``; ``phase.requests`` then holds
        what was actually sent.
        """
        # A full collection over the run's retained frames stalls the
        # generator for tens of milliseconds; the phase allocates no
        # cycles, so collection waits until it ends.
        gc.collect()
        gc.disable()
        try:
            self._drive(phase, window, duration, offsets, prepare)
        finally:
            gc.enable()
        phase.frames = [body if body is None else json.loads(body) for body in phase.frames]
        return phase

    def _drive(self, phase, window, duration, offsets, prepare) -> Phase:
        drawn = phase.requests
        phase.requests = []
        total = len(drawn) if offsets is None else len(offsets)
        base_id = self._next_id
        socks = [conn.sock for conn in self.conns]
        by_sock = {conn.sock: conn for conn in self.conns}
        outstanding = 0
        start = perf_counter()
        phase.start = start
        deadline = start + duration if duration is not None else float("inf")
        due = [start + t for t in offsets] if offsets is not None else None
        drain_until = None
        while True:
            now = perf_counter()
            i = len(phase.sent)
            if due is not None:
                while i < total and due[i] <= now:
                    self._send(phase, drawn[i], due[i], base_id, prepare)
                    i += 1
                    outstanding += 1
            else:
                while i < total and outstanding < window and now < deadline:
                    self._send(phase, drawn[i], now, base_id, prepare)
                    i += 1
                    outstanding += 1
                    now = perf_counter()
            if i >= total or now >= deadline:
                if outstanding == 0:
                    break
                if drain_until is None:
                    drain_until = now + self.drain_seconds
                elif now >= drain_until:
                    break
            # Poll, never sleep (see the module docstring).
            readable, _, _ = select.select(socks, [], [], 0)
            for sock in readable:
                data = sock.recv(1 << 18)
                got = perf_counter()
                if not data:
                    raise ConnectionError("gateway closed the connection")
                for body in by_sock[sock].frames.feed(data):
                    match = _FRAME_ID.search(body)
                    index = int(match.group(1)) - base_id if match else -1
                    if not 0 <= index < len(phase.sent) or phase.frames[index] is not None:
                        raise RuntimeError(f"unexpected frame {body[:80]!r}")
                    phase.received[index] = got
                    phase.frames[index] = body
                    outstanding -= 1
        phase.end = perf_counter()
        self._next_id = base_id + len(phase.sent)
        return phase

    def _send(self, phase: Phase, request, t_intended: float, base_id: int, prepare) -> None:
        i = len(phase.sent)
        if prepare is not None:
            request = prepare(request, t_intended)
        body = self._bodies.get(id(request))
        if body is None:
            wire = request_to_wire(request)
            body = json.dumps(wire, separators=(",", ":")).encode()[1:]
            if prepare is None:
                self._bodies[id(request)] = body
        body = b'{"id":%d,' % (base_id + i) + body
        payload = _HEADER.pack(len(body)) + body
        phase.requests.append(request)
        phase.intended.append(t_intended)
        phase.received.append(None)
        phase.frames.append(None)
        phase.sent.append(perf_counter())
        self.conns[i % CONNECTIONS].sock.sendall(payload)
