"""Tests for the network gateway (`repro.gateway`).

The headline test is wire equivalence: answers served over a real
localhost socket must be byte-identical — ids, durations, stats — to
the same requests executed on an in-process engine. Around it: framing
under adversarial TCP chunking (and a byte-fuzzed decoder that raises
nothing but typed protocol errors), the pre-hashed auth fast path
(unknown/revoked keys, registry refresh without restart), per-tenant
token-bucket fairness between competing tenants, queue quotas,
graceful drain (in-flight requests complete, new connections refused),
strict integer fields in query frames, and the exact-hit write path
(answers settled inside ``submit`` are written on the loop, with one
transport write per read).

Admission tests run against a manually-resolved fake service so that
"a request is in flight" is a test-controlled fact, not a race.
"""

from __future__ import annotations

import json
import math
import pickle
import socket
import struct
import threading
import time
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SemanticAnswerCache
from repro.core.engine import DurableTopKEngine
from repro.core.query import Direction, QueryStats
from repro.gateway import (
    ApiKeyRegistry,
    DurableTopKGateway,
    ErrorCode,
    FrameDecoder,
    FrameTooLarge,
    GatewayClient,
    GatewayError,
    ProtocolError,
    Tenant,
    WireResult,
    encode_frame,
    request_from_wire,
    request_to_wire,
)
from repro.obs import MetricsRegistry
from repro.scoring import LinearPreference
from repro.service import (
    DurableTopKService,
    EngineBackend,
    QueryRequest,
    WorkloadGenerator,
    WorkloadSpec,
)
from repro.service.request import QueryRejected, QueryResponse, RejectionReason

KEYS = {
    "key-acme": Tenant("acme", rate=10_000.0, burst=10_000.0, max_inflight=256),
    "key-bob": Tenant("bob", rate=10_000.0, burst=10_000.0, max_inflight=256),
}


class ManualService:
    """A service stub whose futures the test resolves by hand."""

    def __init__(self) -> None:
        self.submitted: list[tuple[QueryRequest, Future]] = []
        self.lock = threading.Lock()

    def submit(self, request: QueryRequest) -> Future:
        future: Future = Future()
        with self.lock:
            self.submitted.append((request, future))
        return future

    def resolve_all(self) -> None:
        with self.lock:
            pending = list(self.submitted)
        for request, future in pending:
            if not future.done():
                future.set_result(
                    QueryResponse(
                        request=request,
                        error=QueryRejected(RejectionReason.TIMEOUT, "manual"),
                    )
                )


def wait_for_submissions(service: ManualService, count: int, timeout: float = 5.0) -> None:
    deadline = time.time() + timeout
    while len(service.submitted) < count and time.time() < deadline:
        time.sleep(0.005)
    assert len(service.submitted) >= count


def make_gateway(service, keys=None, **kwargs) -> DurableTopKGateway:
    gateway = DurableTopKGateway(
        service,
        keys if keys is not None else dict(KEYS),
        registry=MetricsRegistry(),
        **kwargs,
    )
    return gateway.start()


def sample_request(seed: int = 0, algorithm: str = "t-hop") -> QueryRequest:
    return QueryRequest(
        LinearPreference([0.6 + 0.01 * seed, 0.4]), k=5, tau=30, algorithm=algorithm
    )


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_split_and_coalesced_reads_decode_identically(self):
        frames = [{"op": "ping", "id": i, "pad": "x" * (7 * i)} for i in range(5)]
        wire = b"".join(encode_frame(frame) for frame in frames)

        coalesced = FrameDecoder()
        assert coalesced.feed(wire) == frames

        bytewise = FrameDecoder()
        out: list[dict] = []
        for i in range(len(wire)):
            out.extend(bytewise.feed(wire[i : i + 1]))
        assert out == frames

        lumpy = FrameDecoder()
        out = []
        for start in range(0, len(wire), 13):
            out.extend(lumpy.feed(wire[start : start + 13]))
        assert out == frames

    def test_oversized_frame_rejected_from_header_alone(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        with pytest.raises(FrameTooLarge):
            # Header only: the decoder must refuse before any body bytes.
            decoder.feed(struct.pack(">I", 1 << 20))

    def test_deeply_nested_body_is_a_bad_request(self):
        # json.loads raises RecursionError on this body, not ValueError.
        body = b"[" * 200_000
        with pytest.raises(ProtocolError) as raised:
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)
        assert raised.value.code is ErrorCode.BAD_REQUEST

    def test_deeply_nested_body_on_socket_errors_and_disconnects(self):
        service = ManualService()
        gateway = make_gateway(service)
        try:
            client = GatewayClient("127.0.0.1", gateway.port, key="key-acme")
            body = b"[" * 200_000
            client._sock.sendall(struct.pack(">I", len(body)) + body)
            error = client.recv()
            assert error["code"] == "bad_request"
            with pytest.raises(GatewayError):
                client.recv()
            client.close()
        finally:
            gateway.close()

    def test_socket_split_reads(self):
        service = ManualService()
        gateway = make_gateway(service)
        try:
            client = GatewayClient("127.0.0.1", gateway.port)
            frame = encode_frame({"op": "auth", "key": "key-acme"})
            # Drip the auth frame through three writes; TCP may deliver
            # them separately and the server must buffer across reads.
            for part in (frame[:3], frame[3:11], frame[11:]):
                client._sock.sendall(part)
                time.sleep(0.01)
            hello = client.recv()
            assert hello == {"op": "hello", "id": None, "tenant": "acme"}
            client.close()
        finally:
            gateway.close()

    def test_oversized_frame_on_socket_errors_and_disconnects(self):
        service = ManualService()
        gateway = make_gateway(service, max_frame_bytes=4096)
        try:
            client = GatewayClient("127.0.0.1", gateway.port, key="key-acme")
            client._sock.sendall(struct.pack(">I", 1 << 24))
            error = client.recv()
            assert error["code"] == "frame_too_large"
            with pytest.raises(GatewayError):
                client.recv()
            client.close()
        finally:
            gateway.close()


    def test_frames_ahead_of_a_bad_frame_ride_on_the_error(self):
        pings = [{"op": "ping", "id": 1}, {"op": "ping", "id": 2}]
        wire = b"".join(encode_frame(frame) for frame in pings)
        decoder = FrameDecoder(max_frame_bytes=4096)
        with pytest.raises(FrameTooLarge) as raised:
            decoder.feed(wire + struct.pack(">I", 1 << 20))
        assert raised.value.frames == pings
        not_an_object = json.dumps([1, 2]).encode()
        with pytest.raises(ProtocolError) as raised:
            FrameDecoder().feed(wire + struct.pack(">I", len(not_an_object)) + not_an_object)
        assert raised.value.code is ErrorCode.BAD_REQUEST
        assert raised.value.frames == pings

    def test_pipelined_frames_answered_before_an_oversized_one(self):
        service = ManualService()
        gateway = make_gateway(service, max_frame_bytes=4096)
        try:
            client = GatewayClient("127.0.0.1", gateway.port, key="key-acme")
            client._sock.sendall(
                encode_frame({"op": "ping", "id": 1})
                + encode_frame({"op": "ping", "id": 2})
                + struct.pack(">I", 1 << 20)
            )
            assert client.recv() == {"op": "pong", "id": 1}
            assert client.recv() == {"op": "pong", "id": 2}
            assert client.recv()["code"] == "frame_too_large"
            with pytest.raises(GatewayError):
                client.recv()
            client.close()
        finally:
            gateway.close()

# ----------------------------------------------------------------------
# Byte-fuzzed decoder
# ----------------------------------------------------------------------
def _feed_in_chunks(decoder: FrameDecoder, wire: bytes, sizes: list[int]) -> list[dict]:
    """Feed ``wire`` in chunks whose sizes cycle through ``sizes``."""
    frames: list[dict] = []
    start = i = 0
    while start < len(wire):
        size = sizes[i % len(sizes)]
        frames.extend(decoder.feed(wire[start : start + size]))
        start += size
        i += 1
    return frames


def _framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


_chunk_sizes = st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=8)
# Raw bytes mostly announce lengths past the ceiling, so most streams are
# well-framed bodies too: arbitrary bytes, JSON-ish text, deep nesting.
_bodies = st.one_of(
    st.binary(max_size=256),
    st.text(alphabet='[]{}":,0123456789.eE+-tfnul \\', max_size=256).map(str.encode),
    st.builds(
        lambda opener, depth: opener * depth,
        st.sampled_from([b"[", b'{"a":', b"[{}"]),
        st.integers(min_value=0, max_value=60_000),
    ),
)
_streams = st.one_of(
    st.binary(max_size=512),
    st.lists(st.one_of(_bodies.map(_framed), st.binary(max_size=8)), max_size=6).map(
        b"".join
    ),
)
_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class TestDecoderFuzz:
    @given(wire=_streams, sizes=_chunk_sizes)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_raise_only_protocol_errors(self, wire, sizes):
        decoder = FrameDecoder()
        try:
            frames = _feed_in_chunks(decoder, wire, sizes)
        except ProtocolError:
            return  # typed: the server answers it and hangs up
        assert all(isinstance(frame, dict) for frame in frames)

    @given(
        frames=st.lists(st.dictionaries(st.text(max_size=8), _json, max_size=5), max_size=5),
        sizes=_chunk_sizes,
    )
    @settings(max_examples=100, deadline=None)
    def test_valid_frames_decode_the_same_under_every_chunking(self, frames, sizes):
        wire = b"".join(encode_frame(frame) for frame in frames)
        assert FrameDecoder().feed(wire) == frames
        assert _feed_in_chunks(FrameDecoder(), wire, sizes) == frames


# ----------------------------------------------------------------------
# Auth fast path
# ----------------------------------------------------------------------
class TestAuth:
    def test_unknown_key_refused(self):
        gateway = make_gateway(ManualService())
        try:
            with pytest.raises(GatewayError) as info:
                GatewayClient("127.0.0.1", gateway.port, key="who-dis")
            assert info.value.code == "auth_failed"
        finally:
            gateway.close()

    def test_query_before_auth_refused(self):
        gateway = make_gateway(ManualService())
        try:
            client = GatewayClient("127.0.0.1", gateway.port)
            client.submit(sample_request())
            answer = client.result()
            assert not answer.ok
            assert answer.error_code == "auth_required"
            client.close()
        finally:
            gateway.close()

    def test_revocation_applies_to_live_connection(self):
        service = ManualService()
        registry = ApiKeyRegistry(dict(KEYS))
        gateway = make_gateway(service, keys=registry)
        try:
            client = GatewayClient("127.0.0.1", gateway.port, key="key-acme")
            client.submit(sample_request())
            wait_for_submissions(service, 1)
            service.resolve_all()
            assert client.result().error_code == "timeout"
            # Revoke mid-connection: the *next* request must fail — the
            # gateway re-resolves the hashed key per request, so revoked
            # tenants cannot coast on an open connection.
            assert registry.revoke("key-acme")
            client.submit(sample_request())
            answer = client.result()
            assert not answer.ok
            assert answer.error_code == "auth_failed"
            client.close()
        finally:
            gateway.close()

    def test_refused_key_closes_the_client_socket(self, monkeypatch):
        from repro.gateway import client as client_module

        opened: list[socket.socket] = []
        create_connection = socket.create_connection

        def recording(*args, **kwargs):
            sock = create_connection(*args, **kwargs)
            opened.append(sock)
            return sock

        monkeypatch.setattr(client_module.socket, "create_connection", recording)
        gateway = make_gateway(ManualService())
        try:
            with pytest.raises(GatewayError) as info:
                GatewayClient("127.0.0.1", gateway.port, key="who-dis")
            assert info.value.code == "auth_failed"
            assert len(opened) == 1
            assert opened[0].fileno() == -1  # closed, not left to the GC
        finally:
            gateway.close()

    def test_registry_refresh_without_restart(self):
        service = ManualService()
        registry = ApiKeyRegistry(dict(KEYS))
        gateway = make_gateway(service, keys=registry)
        try:
            with pytest.raises(GatewayError):
                GatewayClient("127.0.0.1", gateway.port, key="key-new")
            registry.add("key-new", Tenant("newcorp"))
            client = GatewayClient("127.0.0.1", gateway.port, key="key-new")
            assert client.tenant == "newcorp"
            client.close()
        finally:
            gateway.close()


# ----------------------------------------------------------------------
# Per-tenant admission
# ----------------------------------------------------------------------
class TestAdmission:
    def test_rate_limit_fairness_between_tenants(self):
        """A hammering tenant is limited; a polite one is untouched."""
        service = ManualService()
        keys = {
            "key-greedy": Tenant("greedy", rate=0.001, burst=3.0),
            "key-polite": Tenant("polite", rate=10_000.0, burst=100.0),
        }
        gateway = make_gateway(service, keys=keys)
        try:
            greedy = GatewayClient("127.0.0.1", gateway.port, key="key-greedy")
            polite = GatewayClient("127.0.0.1", gateway.port, key="key-polite")
            for i in range(20):
                greedy.submit(sample_request(i))
                polite.submit(sample_request(i))
            # With burst=3 and ~zero refill, exactly 3 greedy requests
            # reach the service; every polite request does (3 + 20).
            deadline = time.time() + 5.0
            while len(service.submitted) < 23 and time.time() < deadline:
                time.sleep(0.005)
            assert len(service.submitted) == 23
            service.resolve_all()
            greedy_codes = [greedy.result().error_code for _ in range(20)]
            assert greedy_codes.count("rate_limited") == 17
            assert greedy_codes.count("timeout") == 3
            polite_codes = [polite.result().error_code for _ in range(20)]
            assert polite_codes == ["timeout"] * 20
            greedy.close()
            polite.close()
        finally:
            gateway.close()

    def test_queue_quota_bounds_inflight_per_tenant(self):
        service = ManualService()
        keys = {"key-q": Tenant("quota", rate=1e6, burst=1e6, max_inflight=2)}
        gateway = make_gateway(service, keys=keys)
        try:
            client = GatewayClient("127.0.0.1", gateway.port, key="key-q")
            for i in range(3):
                client.submit(sample_request(i))
            # Third request must bounce: two are in flight, quota is 2.
            answer = client.result()
            assert answer.error_code == "queue_full"
            wait_for_submissions(service, 2)
            assert len(service.submitted) == 2
            service.resolve_all()
            for _ in range(2):
                assert client.result().error_code == "timeout"
            # Quota released on completion: a fourth request is admitted.
            client.submit(sample_request(9))
            wait_for_submissions(service, 3)
            service.resolve_all()
            assert client.result().error_code == "timeout"
            client.close()
        finally:
            gateway.close()


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_inflight_completes_and_new_connections_refused(self):
        service = ManualService()
        gateway = make_gateway(service)
        client = GatewayClient("127.0.0.1", gateway.port, key="key-acme")
        client.submit(sample_request())
        deadline = time.time() + 5.0
        while not service.submitted and time.time() < deadline:
            time.sleep(0.005)
        assert service.submitted

        closer = threading.Thread(target=gateway.close)
        closer.start()
        try:
            # The drain must wait for the in-flight request...
            time.sleep(0.1)
            assert closer.is_alive()
            service.resolve_all()
            # ...and its response must still be delivered.
            assert client.result().error_code == "timeout"
            closer.join(timeout=10.0)
            assert not closer.is_alive()
            with pytest.raises(OSError):
                GatewayClient("127.0.0.1", gateway.port)
        finally:
            service.resolve_all()
            closer.join(timeout=10.0)
            client.close()

    def test_query_during_drain_rejected_shutdown(self):
        service = ManualService()
        gateway = make_gateway(service)
        client = GatewayClient("127.0.0.1", gateway.port, key="key-acme")
        client.submit(sample_request(0))
        closer = threading.Thread(target=gateway.close)
        try:
            deadline = time.time() + 5.0
            while not service.submitted and time.time() < deadline:
                time.sleep(0.005)
            closer.start()
            time.sleep(0.1)
            client.submit(sample_request(1))
            answer = client.result()
            assert answer.error_code == "shutdown"
        finally:
            service.resolve_all()
            closer.join(timeout=10.0)
            client.close()


# ----------------------------------------------------------------------
# Wire equivalence against the real service
# ----------------------------------------------------------------------
class TestWireEquivalence:
    def test_randomized_workload_byte_identical(self, small_ind):
        spec = WorkloadSpec(
            n_preferences=8,
            d=small_ind.d,
            k_choices=(3, 5, 10),
            tau_fractions=(0.05, 0.15),
            interval_fractions=(0.3, 0.8),
            algorithms=("t-hop", "s-hop", "t-base"),
            future_fraction=0.25,
            seed=23,
        )
        requests = WorkloadGenerator(spec, small_ind.n).requests(60)
        reference = DurableTopKEngine(small_ind)
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)), workers=2
        ) as service:
            gateway = make_gateway(service)
            try:
                clients = [
                    GatewayClient("127.0.0.1", gateway.port, key="key-acme"),
                    GatewayClient("127.0.0.1", gateway.port, key="key-bob"),
                ]
                for i, request in enumerate(requests):
                    wire = clients[i % 2].query(request)
                    assert wire.ok, wire.error_message
                    expected = reference.query(
                        request.as_query(), request.scorer, algorithm=request.algorithm
                    )
                    assert wire.identical_to(expected), (
                        f"wire answer diverged for request {i}: {request}"
                    )
                for client in clients:
                    client.close()
            finally:
                gateway.close()

    def test_pipelined_out_of_order_matched_by_id(self, small_ind):
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)), workers=2
        ) as service:
            gateway = make_gateway(service)
            try:
                client = GatewayClient("127.0.0.1", gateway.port, key="key-acme")
                requests = {
                    client.submit(sample_request(i)): sample_request(i)
                    for i in range(12)
                }
                reference = DurableTopKEngine(small_ind)
                for _ in range(12):
                    wire = client.result()
                    request = requests.pop(wire.id)
                    expected = reference.query(
                        request.as_query(), request.scorer, algorithm=request.algorithm
                    )
                    assert wire.identical_to(expected)
                assert not requests
                client.close()
            finally:
                gateway.close()

    def test_cache_tier_tag_crosses_the_wire(self, small_ind):
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)),
            workers=1,
            cache=SemanticAnswerCache(),
        ) as service:
            gateway = make_gateway(service)
            try:
                client = GatewayClient("127.0.0.1", gateway.port, key="key-acme")
                request = sample_request()
                first = client.query(request)
                second = client.query(request)
                assert first.ok and second.ok
                assert second.cache == "exact"
                assert second.identical_to(
                    DurableTopKEngine(small_ind).query(
                        request.as_query(), request.scorer, algorithm=request.algorithm
                    )
                )
                client.close()
            finally:
                gateway.close()


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_per_tenant_counters_and_connection_gauge(self, small_ind):
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(small_ind)), workers=1
        ) as service:
            gateway = make_gateway(service)
            registry = gateway.registry
            try:
                client = GatewayClient("127.0.0.1", gateway.port, key="key-acme")
                for i in range(4):
                    assert client.query(sample_request(i)).ok
                assert registry.gauge("gateway.connections").value == 1
                assert (
                    registry.counter(
                        "gateway.requests", tenant="acme", outcome="ok"
                    ).value
                    == 4
                )
                assert registry.counter("gateway.bytes_in", tenant="acme").value > 0
                assert registry.counter("gateway.bytes_out", tenant="acme").value > 0
                client.close()
                deadline = time.time() + 5.0
                while (
                    registry.gauge("gateway.connections").value > 0
                    and time.time() < deadline
                ):
                    time.sleep(0.01)
                assert registry.gauge("gateway.connections").value == 0
            finally:
                gateway.close()

    def test_gateway_request_span_joins_trace_tree(self, small_ind):
        from repro.obs import TRACES, disable, enable
        from repro.obs.trace import reset_for_tests

        reset_for_tests()
        enable()
        try:
            with DurableTopKService(
                EngineBackend(DurableTopKEngine(small_ind)), workers=1
            ) as service:
                gateway = make_gateway(service)
                try:
                    client = GatewayClient("127.0.0.1", gateway.port, key="key-acme")
                    assert client.query(sample_request()).ok
                    client.close()
                finally:
                    gateway.close()
            roots = [
                trace.root.name
                for trace in TRACES.slowest(50)
                if trace.root is not None
            ]
            assert "gateway.request" in roots
            trace = next(
                trace
                for trace in TRACES.slowest(50)
                if trace.root is not None and trace.root.name == "gateway.request"
            )
            assert trace.root.attrs["tenant"] == "acme"
            assert trace.root.attrs["outcome"] == "ok"
            assert any(span.name == "gateway.service" for span in trace.spans)
        finally:
            disable()
            reset_for_tests()


# ----------------------------------------------------------------------
# Protocol details
# ----------------------------------------------------------------------
class TestProtocol:
    @pytest.mark.parametrize(
        "frame",
        [
            {"op": "result", "id": 7, "ok": True, "ids": [1, 2], "durations": None},
            {"op": "result", "id": None, "elapsed_seconds": math.nan, "cache": None},
            {"op": "error", "id": 3, "message": "naïve Ünïcode ☃ \u2028 \"q\"\n"},
            {"op": "x", "nested": {"a": [1.5, -0.0, math.inf, -math.inf, True]}},
            {},
        ],
    )
    def test_encode_frame_matches_json_dumps(self, frame):
        body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
        assert encode_frame(frame) == struct.pack(">I", len(body)) + body

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k", 10.9),
            ("k", True),
            ("tau", 2.5),
            ("tau", False),
            ("tau", "30"),
            ("priority", 1.5),
            ("priority", True),
            ("interval", [0.5, 10]),
            ("interval", [0, True]),
            ("interval", [0, math.nan]),
        ],
    )
    def test_non_integral_and_boolean_numbers_are_bad_requests(self, field, value):
        frame = request_to_wire(sample_request(), id=1)
        frame[field] = value
        with pytest.raises(ProtocolError) as raised:
            request_from_wire(frame, lambda weights: LinearPreference(list(weights)))
        assert raised.value.code is ErrorCode.BAD_REQUEST

    def test_integral_floats_are_accepted(self):
        frame = request_to_wire(sample_request(), id=1)
        frame.update(k=5.0, tau=30.0, interval=[10.0, 200.0], priority=-1.0)
        request = request_from_wire(frame, lambda weights: LinearPreference(list(weights)))
        assert (request.k, request.tau, request.interval, request.priority) == (
            5,
            30,
            (10, 200),
            -1,
        )
        assert all(type(v) is int for v in (request.k, request.tau, request.priority))

    @pytest.mark.parametrize(
        "request_",
        [
            sample_request(),
            QueryRequest(
                LinearPreference([0.25, 0.75]),
                k=3,
                tau=12,
                interval=(40, 500),
                direction=Direction.FUTURE,
                algorithm="s-hop",
                timeout=2.5,
                priority=-1,
            ),
            QueryRequest(LinearPreference([1.0, 0.0]), k=1, tau=0, priority=4),
        ],
    )
    def test_request_to_wire_round_trips(self, request_):
        frame = json.loads(json.dumps(request_to_wire(request_, id=9)))

        def scorer_of(weights):
            assert weights == tuple(request_.scorer.u)
            return request_.scorer

        assert request_from_wire(frame, scorer_of) == request_

    def test_slotted_query_stats_copy_as_dict_and_pickle(self):
        stats = QueryStats(
            durability_topk_queries=3, candidate_topk_queries=4, hops=2, pages_read=9
        )
        assert not hasattr(stats, "__dict__")
        copy = stats.copy()
        assert copy == stats and copy is not stats
        assert copy.as_dict() == stats.as_dict()
        assert stats.as_dict()["topk_queries"] == 7
        copy.hops += 1
        assert stats.hops == 2
        # Protocols 0 and 1 cannot pickle a class with __slots__ and no
        # __getstate__; every protocol from 2 (the default is 4+) can.
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(stats, protocol=protocol))
            assert type(restored) is QueryStats
            assert restored == stats
            assert restored.as_dict() == stats.as_dict()


# ----------------------------------------------------------------------
# The exact-hit path: answered on the loop, one write per read
# ----------------------------------------------------------------------
class RawConnection:
    """A bare authenticated socket that counts every byte it receives."""

    def __init__(self, port: int, key: str = "key-acme") -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        self.decoder = FrameDecoder()
        self.frames: list[dict] = []
        self.received = 0
        self.sock.sendall(encode_frame({"op": "auth", "key": key}))
        assert self.next()["op"] == "hello"

    def next(self) -> dict | None:
        """The next frame, or ``None`` once the gateway hangs up."""
        while not self.frames:
            data = self.sock.recv(1 << 16)
            if not data:
                return None
            self.received += len(data)
            self.frames.extend(self.decoder.feed(data))
        return self.frames.pop(0)

    def close(self) -> None:
        self.sock.close()


def warm_service(dataset, requests) -> DurableTopKService:
    """A started one-worker service whose cache holds ``requests``."""
    service = DurableTopKService(
        EngineBackend(DurableTopKEngine(dataset)), workers=1, cache=SemanticAnswerCache()
    )
    for request in requests:
        assert service.query(request).ok
    return service


def reference_answer(dataset, request):
    return DurableTopKEngine(dataset).query(
        request.as_query(), request.scorer, algorithm=request.algorithm
    )


def count_calls(monkeypatch, obj, name: str) -> list:
    """Record the arguments of every ``obj.name`` call (still forwarded)."""
    calls: list = []
    original = getattr(obj, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(obj, name, counting)
    return calls


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.time() + timeout
    while not predicate() and time.time() < deadline:
        time.sleep(0.005)
    assert predicate()


class TestExactHitPath:
    def test_pipelined_burst_answers_every_id_once(self, small_ind, monkeypatch):
        hot = [sample_request(i) for i in range(4)]
        miss = sample_request(9)
        with warm_service(small_ind, hot) as service:
            gateway = make_gateway(service)
            conn = RawConnection(gateway.port)
            try:

                def sent() -> int:
                    return sum(
                        series.value
                        for series in gateway.registry.collect(prefix="gateway.bytes_out")
                    )

                # The hello's write is counted just after it is sent.
                wait_until(lambda: sent() == conn.received)
                count_bytes = count_calls(monkeypatch, gateway, "_count_bytes")
                expected = {}
                burst = []
                for i in range(48):
                    request = hot[i % len(hot)]
                    expected[100 + i] = request
                    burst.append(encode_frame(request_to_wire(request, id=100 + i)))
                expected[900] = miss
                burst.insert(20, encode_frame(request_to_wire(miss, id=900)))
                burst.insert(30, encode_frame({"op": "nope", "id": 901}))
                conn.sock.sendall(b"".join(burst))

                answers: dict[int, dict] = {}
                error = None
                while len(answers) < len(expected) or error is None:
                    frame = conn.next()
                    assert frame is not None
                    if frame["op"] == "error":
                        assert error is None
                        error = frame
                        continue
                    assert frame["id"] not in answers
                    answers[frame["id"]] = frame
                assert error["id"] == 901 and error["code"] == "bad_request"
                assert answers.keys() == expected.keys()
                for id, frame in answers.items():
                    request = expected[id]
                    assert frame["cache"] == (None if request is miss else "exact")
                    wire = WireResult.from_wire(frame)
                    assert wire.identical_to(reference_answer(small_ind, request))
                wait_until(lambda: sent() == conn.received)
                # One transport write per read for everything answered on
                # the loop, plus one for the miss a worker finished.
                reads = sum(1 for args in count_bytes if args[0] == "in")
                writes = sum(1 for args in count_bytes if args[0] == "out")
                assert writes <= reads + 1
            finally:
                conn.close()
                gateway.close()

    def test_hits_before_a_refused_frame_are_answered_before_the_close(
        self, small_ind
    ):
        hot = [sample_request(i) for i in range(3)]
        with warm_service(small_ind, hot) as service:
            gateway = make_gateway(service)
            conn = RawConnection(gateway.port)
            try:
                burst = [
                    encode_frame(request_to_wire(hot[i % 3], id=i)) for i in range(30)
                ]
                burst.append(encode_frame({"op": "auth", "id": 99, "key": "bad-key"}))
                conn.sock.sendall(b"".join(burst))
                frames = []
                while (frame := conn.next()) is not None:
                    frames.append(frame)
                assert [f["id"] for f in frames] == list(range(30)) + [99]
                assert all(f["cache"] == "exact" for f in frames[:30])
                assert frames[-1]["code"] == "auth_failed"
            finally:
                conn.close()
                gateway.close()

    def test_loop_side_answers_skip_the_threadsafe_hop(self, small_ind, monkeypatch):
        hot = [sample_request(i) for i in range(2)]
        with warm_service(small_ind, hot) as service:
            gateway = make_gateway(service)
            conn = RawConnection(gateway.port)
            try:
                hops = count_calls(monkeypatch, gateway._loop, "call_soon_threadsafe")
                bad = request_to_wire(hot[0], id=50)
                bad["k"] = 10.9
                burst = [encode_frame(request_to_wire(hot[i % 2], id=i)) for i in range(10)]
                burst += [encode_frame(bad), encode_frame({"op": "ping", "id": 51})]
                conn.sock.sendall(b"".join(burst))
                frames = [conn.next() for _ in range(12)]
                assert sorted(f["id"] for f in frames) == list(range(10)) + [50, 51]
                assert next(f for f in frames if f["id"] == 50)["code"] == "bad_request"
                assert hops == []
                assert gateway._open == 0
            finally:
                conn.close()
                gateway.close()

    def test_worker_answers_hop_onto_the_loop(self, monkeypatch):
        service = ManualService()
        gateway = make_gateway(service)
        conn = RawConnection(gateway.port)
        try:
            hops = count_calls(monkeypatch, gateway._loop, "call_soon_threadsafe")
            conn.sock.sendall(encode_frame(request_to_wire(sample_request(), id=60)))
            wait_for_submissions(service, 1)
            wait_until(lambda: gateway._open == 1)
            service.resolve_all()  # settles the future on this thread
            answer = conn.next()
            assert answer["id"] == 60 and answer["code"] == "timeout"
            assert len(hops) == 1
            wait_until(lambda: gateway._open == 0)
        finally:
            service.resolve_all()
            conn.close()
            gateway.close()

    def test_typed_rejection_from_submit_is_answered_on_the_loop(self, monkeypatch):
        class RejectingService:
            def submit(self, request):
                future: Future = Future()
                future.set_result(
                    QueryResponse(
                        request=request,
                        error=QueryRejected(RejectionReason.QUEUE_FULL, "full"),
                    )
                )
                return future

        gateway = make_gateway(RejectingService())
        conn = RawConnection(gateway.port)
        try:
            hops = count_calls(monkeypatch, gateway._loop, "call_soon_threadsafe")
            conn.sock.sendall(
                b"".join(
                    encode_frame(request_to_wire(sample_request(i), id=i)) for i in range(5)
                )
            )
            frames = [conn.next() for _ in range(5)]
            assert [f["code"] for f in frames] == ["queue_full"] * 5
            assert hops == []
            assert gateway._open == 0
            assert gateway._inflight.get("acme", 0) == 0
            assert (
                gateway.registry.counter(
                    "gateway.requests", tenant="acme", outcome="queue_full"
                ).value
                == 5
            )
        finally:
            conn.close()
            gateway.close()
