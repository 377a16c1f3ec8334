"""The transport-neutral typed API: wire schema, codecs, and error taxonomy.

This package defines *what* the system says, independently of *how* it is
carried: frozen request/response dataclasses with canonical JSON codecs
(:mod:`~repro.api.messages`), one serializer per public result shape
(:mod:`~repro.api.serialize`), the bidirectional stable-code ⇄ exception
mapping (:mod:`~repro.api.errors`), and the dispatcher that turns requests
into engine work (:mod:`~repro.api.handler`).  The asyncio server, the sync
client, the CLI's ``--json`` output and the golden snapshot suite all consume
these same definitions — that single source is what makes byte-identity
across surfaces a testable invariant.
"""

from repro.api.errors import (
    CODE_TO_ERROR,
    BadRequestError,
    OverloadedError,
    PayloadTooLargeError,
    ProtocolError,
    RequestTimeoutError,
    ShuttingDownError,
    error_code,
    error_for_code,
    error_from_wire,
    wire_error,
)
from repro.api.handler import ApiHandler
from repro.api.messages import (
    PROTOCOL_VERSION,
    BatchRequest,
    BatchResponse,
    DeltaBatchRequest,
    DeltaBatchResponse,
    DeltaRequest,
    DeltaResponse,
    ErrorResponse,
    ExplainRequest,
    ExplainResponse,
    PingRequest,
    PingResponse,
    QueryRequest,
    QueryResponse,
    Request,
    Response,
    StatsRequest,
    StatsResponse,
    SubscribeRequest,
    decode_request,
    decode_response,
    encode_message,
)
from repro.api.serialize import (
    QueryAnswer,
    QueryResult,
    SubscriptionEvent,
    answer_to_json,
    canonical_json,
    delta_batch_report_from_json,
    delta_batch_report_to_json,
    delta_report_from_json,
    delta_report_to_json,
    explain_from_json,
    explain_to_json,
    result_from_json,
    result_to_json,
    subscription_update_from_json,
    subscription_update_to_json,
    value_distribution_to_json,
)

__all__ = [
    # errors
    "BadRequestError",
    "ProtocolError",
    "PayloadTooLargeError",
    "OverloadedError",
    "ShuttingDownError",
    "RequestTimeoutError",
    "CODE_TO_ERROR",
    "error_code",
    "error_for_code",
    "wire_error",
    "error_from_wire",
    # messages
    "PROTOCOL_VERSION",
    "Request",
    "QueryRequest",
    "BatchRequest",
    "DeltaRequest",
    "DeltaBatchRequest",
    "SubscribeRequest",
    "ExplainRequest",
    "StatsRequest",
    "PingRequest",
    "Response",
    "QueryResponse",
    "BatchResponse",
    "DeltaResponse",
    "DeltaBatchResponse",
    "ExplainResponse",
    "StatsResponse",
    "PingResponse",
    "ErrorResponse",
    "encode_message",
    "decode_request",
    "decode_response",
    # handler
    "ApiHandler",
    # serialization
    "canonical_json",
    "QueryAnswer",
    "QueryResult",
    "SubscriptionEvent",
    "answer_to_json",
    "result_to_json",
    "result_from_json",
    "value_distribution_to_json",
    "explain_to_json",
    "explain_from_json",
    "delta_report_to_json",
    "delta_report_from_json",
    "delta_batch_report_to_json",
    "delta_batch_report_from_json",
    "subscription_update_to_json",
    "subscription_update_from_json",
]
