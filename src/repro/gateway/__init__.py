"""Network front door: TCP serving for the durable top-k service.

The gateway takes everything built in-process — pooled batched serving,
live ingest, the observability stack and the semantic answer cache —
and puts it behind a wire: persistent connections, length-prefixed JSON
framing, per-tenant API-key auth on a pre-hashed fast path, token-bucket
rate limits and queue quotas feeding the service's typed rejection
machinery, and graceful drain.

* :mod:`repro.gateway.protocol` — frames, typed error codes, and
  query/result (de)serialisation;
* :mod:`repro.gateway.auth` — tenants, the pre-hashed key registry,
  token buckets;
* :mod:`repro.gateway.server` — the asyncio gateway itself;
* :mod:`repro.gateway.client` — a blocking-socket client for tests,
  benchmarks and scripts.
"""

from .auth import ApiKeyRegistry, Tenant, TokenBucket, hash_key
from .client import GatewayClient, GatewayError
from .protocol import (
    MAX_FRAME_BYTES,
    ErrorCode,
    FrameDecoder,
    FrameTooLarge,
    ProtocolError,
    WireResult,
    encode_frame,
    error_frame,
    request_from_wire,
    request_to_wire,
    response_to_wire,
)
from .server import DurableTopKGateway

__all__ = [
    "ApiKeyRegistry",
    "DurableTopKGateway",
    "ErrorCode",
    "FrameDecoder",
    "FrameTooLarge",
    "GatewayClient",
    "GatewayError",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "Tenant",
    "TokenBucket",
    "WireResult",
    "encode_frame",
    "error_frame",
    "hash_key",
    "request_from_wire",
    "request_to_wire",
    "response_to_wire",
]
