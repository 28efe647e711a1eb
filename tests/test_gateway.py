"""Tests for the network gateway (`repro.gateway`).

The headline test is wire equivalence: answers served over a real
localhost socket must be byte-identical — ids, durations, stats — to
the same requests executed on an in-process engine. Around it: framing
under adversarial TCP chunking (and a byte-fuzzed decoder that raises
nothing but typed protocol errors), the pre-hashed auth fast path
(unknown/revoked keys, registry refresh without restart), per-tenant
token-bucket fairness between competing tenants, queue quotas, and
graceful drain (in-flight requests complete, new connections refused).

Admission tests run against a manually-resolved fake service so that
"a request is in flight" is a test-controlled fact, not a race.
"""

from __future__ import annotations

import struct
import threading
import time
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import DurableTopKEngine
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
    encode_frame,
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
        from repro.cache import SemanticAnswerCache

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
