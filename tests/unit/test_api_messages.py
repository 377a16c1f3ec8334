"""Tests for the versioned wire schema (``repro.api.messages``)."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    PROTOCOL_VERSION,
    BadRequestError,
    BatchRequest,
    BatchResponse,
    DeltaRequest,
    DeltaResponse,
    ErrorResponse,
    ExplainRequest,
    ExplainResponse,
    OverloadedError,
    PingRequest,
    PingResponse,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    StatsResponse,
    decode_request,
    decode_response,
    encode_message,
)

REQUESTS = [
    QueryRequest(query="Q1", k=5, plan="compiled", use_cache=False, stream=True),
    BatchRequest(queries=("Q1", "Q2"), k=3),
    DeltaRequest(delta={"reweight": {"0": 0.5}}),
    ExplainRequest(query="Q7", k=3, plan="basic"),
    StatsRequest(),
    PingRequest(),
]

RESPONSES = [
    QueryResponse(query="Q1", result={"num_answers": 0, "answers": []}),
    BatchResponse(queries=("Q1",), results=({"num_answers": 0, "answers": []},)),
    DeltaResponse(report={"changed": 1}),
    ExplainResponse(report={"plan": "compiled"}),
    StatsResponse(stats={"cache": {}}),
    PingResponse(),
    ErrorResponse(error={"code": "query", "type": "QueryError", "message": "x"}),
]


class TestRoundTrip:
    @pytest.mark.parametrize("request_", REQUESTS, ids=lambda r: type(r).__name__)
    def test_requests_round_trip(self, request_):
        assert decode_request(encode_message(request_)) == request_

    @pytest.mark.parametrize("response", RESPONSES, ids=lambda r: type(r).__name__)
    def test_responses_round_trip(self, response):
        assert decode_response(encode_message(response)) == response

    def test_encoding_is_canonical(self):
        """Compact separators, sorted keys — byte-stable for a given message."""
        data = encode_message(QueryRequest(query="Q1", k=5))
        assert data == encode_message(QueryRequest(query="Q1", k=5))
        text = data.decode("utf-8")
        assert ": " not in text and ", " not in text
        payload = json.loads(data)
        assert list(payload) == sorted(payload)

    def test_envelope_shape(self):
        payload = json.loads(encode_message(PingRequest()))
        assert payload["v"] == PROTOCOL_VERSION
        assert payload["op"] == "ping"
        assert payload["body"] == {}

    def test_tuples_encode_as_lists(self):
        payload = json.loads(encode_message(BatchRequest(queries=("Q1", "Q2"))))
        assert payload["body"]["queries"] == ["Q1", "Q2"]
        decoded = decode_request(encode_message(BatchRequest(queries=("Q1", "Q2"))))
        assert decoded.queries == ("Q1", "Q2")


class TestErrorResponse:
    def test_from_exception_and_back(self):
        response = ErrorResponse.from_exception(OverloadedError("shed", retry_after=0.4))
        restored = response.to_error()
        assert isinstance(restored, OverloadedError)
        assert restored.retry_after == 0.4
        assert str(restored) == "shed"

    def test_error_response_survives_the_wire(self):
        response = ErrorResponse.from_exception(BadRequestError("nope"))
        decoded = decode_response(encode_message(response))
        assert isinstance(decoded.to_error(), BadRequestError)


class TestRejection:
    def test_non_json_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_request(b"\xff\xfe not json")

    def test_non_object_envelope(self):
        with pytest.raises(BadRequestError):
            decode_request(b"[1,2,3]")

    def test_wrong_version(self):
        payload = {"v": PROTOCOL_VERSION + 1, "op": "ping", "body": {}}
        with pytest.raises(BadRequestError, match="protocol version"):
            decode_request(json.dumps(payload).encode())

    def test_missing_op(self):
        payload = {"v": PROTOCOL_VERSION, "body": {}}
        with pytest.raises(BadRequestError, match="'op'"):
            decode_request(json.dumps(payload).encode())

    def test_unknown_op(self):
        payload = {"v": PROTOCOL_VERSION, "op": "frobnicate", "body": {}}
        with pytest.raises(BadRequestError, match="frobnicate"):
            decode_request(json.dumps(payload).encode())

    def test_error_op_is_not_a_request(self):
        response = ErrorResponse.from_exception(BadRequestError("x"))
        with pytest.raises(BadRequestError, match="error"):
            decode_request(encode_message(response))

    def test_calibrate_shard_counts_rejected(self):
        # The calibrate operation is gone with the cost model: a request for
        # it, with or without the older shard-count list, is refused rather
        # than silently ignored.
        for body in ({"query": "Q1"}, {"query": "Q1", "shard_counts": [4]}):
            payload = {"v": PROTOCOL_VERSION, "op": "calibrate", "body": body}
            with pytest.raises(BadRequestError, match="unknown operation 'calibrate'"):
                decode_request(json.dumps(payload).encode())

    def test_explain_analyze_rejected(self):
        # explain(analyze=True) compared cost-model estimates that no longer
        # exist; the field is refused rather than silently ignored.
        payload = {
            "v": PROTOCOL_VERSION,
            "op": "explain",
            "body": {"query": "Q1", "analyze": True},
        }
        with pytest.raises(BadRequestError, match="analyze"):
            decode_request(json.dumps(payload).encode())

    def test_unknown_field_rejected(self):
        payload = {
            "v": PROTOCOL_VERSION,
            "op": "query",
            "body": {"query": "Q1", "bogus": 1},
        }
        with pytest.raises(BadRequestError, match="bogus"):
            decode_request(json.dumps(payload).encode())

    def test_non_object_body_rejected(self):
        payload = {"v": PROTOCOL_VERSION, "op": "query", "body": [1]}
        with pytest.raises(BadRequestError):
            decode_request(json.dumps(payload).encode())

    def test_messages_are_immutable(self):
        request = QueryRequest(query="Q1")
        with pytest.raises(Exception):
            request.query = "Q2"  # type: ignore[misc]
