"""The versioned, transport-neutral wire schema: typed requests and responses.

Every operation the system serves — ``query``, ``batch``, ``apply-delta``,
``explain``, ``stats``, ``ping`` — is described by one frozen
request dataclass and one frozen response dataclass, with a canonical JSON
codec.  The same types are used by every surface: the asyncio server decodes
requests and encodes responses with them, the sync client does the reverse,
and the in-process :class:`~repro.api.handler.ApiHandler` maps them onto the
engine — which is what makes "server responses are byte-identical to
in-process execution" a checkable property rather than a hope.

The envelope is ``{"v": PROTOCOL_VERSION, "op": <operation>, "body": {...}}``
for requests and responses alike; errors travel as the ``"error"`` operation
with the :mod:`repro.api.errors` payload as body.  Version negotiation is
deliberately blunt: a mismatched ``v`` is a
:class:`~repro.api.errors.BadRequestError` — the schema is versioned so it
*can* evolve, not so two versions interoperate silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Any, ClassVar, Optional, Type, Union, get_args, get_origin, get_type_hints

from repro.api.errors import BadRequestError, ProtocolError, error_from_wire, wire_error
from repro.api.serialize import _result_bytes, canonical_json, result_to_json

__all__ = [
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
]

#: Wire schema version; bumped on any incompatible envelope or body change.
PROTOCOL_VERSION = 1


def _check_envelope(payload: Any) -> tuple[str, dict]:
    if not isinstance(payload, dict):
        raise BadRequestError("message envelope must be a JSON object")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise BadRequestError(
            f"unsupported protocol version {version!r} "
            f"(this build speaks v{PROTOCOL_VERSION})"
        )
    op = payload.get("op")
    if not isinstance(op, str):
        raise BadRequestError("message envelope is missing its 'op' field")
    body = payload.get("body", {})
    if not isinstance(body, dict):
        raise BadRequestError(f"body of {op!r} must be a JSON object")
    return op, body


def _payload(value: Any) -> dict:
    """A result payload dict, given the dict or the ``PTQResult`` itself."""
    return value if isinstance(value, dict) else result_to_json(value)


def _payload_bytes(value: Any) -> bytes:
    """Canonical bytes of :func:`_payload`, memoised per ``PTQResult``."""
    return canonical_json(value) if isinstance(value, dict) else _result_bytes(value)


class _Result:
    """Dataclass field descriptor for the result payload of a response.

    The field takes the canonical payload dict
    (:func:`~repro.api.serialize.result_to_json`), as decoded or hand-built
    responses carry it, or the engine's ``PTQResult`` itself, as
    :class:`~repro.api.handler.ApiHandler` hands it over.  Reading the field
    always yields the payload dict.  :func:`encode_message` splices a
    result's memoised canonical bytes instead of building the dict, so a
    cached result is encoded once however often it is served.
    """

    #: JSON type a decoded body must hold in this field.
    wire_type: ClassVar[Any] = dict

    def __set_name__(self, owner: type, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, obj: Any, owner: Any = None) -> Any:
        if obj is None:
            return None  # the field's default
        return _payload(obj.__dict__[self._slot])

    def __set__(self, obj: Any, value: Any) -> None:
        obj.__dict__[self._slot] = {} if value is None else value

    def encode(self, obj: Any) -> bytes:
        """Canonical JSON bytes of the field's value."""
        return _payload_bytes(obj.__dict__[self._slot])


class _ResultTuple(_Result):
    """:class:`_Result` for a tuple of result payloads."""

    wire_type: ClassVar[Any] = tuple[dict, ...]

    def __get__(self, obj: Any, owner: Any = None) -> Any:
        if obj is None:
            return ()
        return tuple(map(_payload, obj.__dict__[self._slot]))

    def __set__(self, obj: Any, value: Any) -> None:
        obj.__dict__[self._slot] = tuple(value)

    def encode(self, obj: Any) -> bytes:
        return b"[" + b",".join(map(_payload_bytes, obj.__dict__[self._slot])) + b"]"


#: JSON spelling of the Python types a body field may declare.
_JSON_NAMES = {
    str: "string",
    bool: "boolean",
    int: "integer",
    float: "number",
    dict: "object",
    list: "array",
    tuple: "array",
    type(None): "null",
}


@lru_cache(maxsize=None)
def _wire_types(cls: type) -> dict[str, Any]:
    """Declared type of each body field of a message class."""
    hints = get_type_hints(cls)
    declared = {}
    for item in fields(cls):
        hint = hints[item.name]
        if isinstance(hint, type) and issubclass(hint, _Result):
            hint = hint.wire_type
        declared[item.name] = hint
    return declared


def _conforms(value: Any, hint: Any) -> bool:
    """Whether a decoded JSON value has a body field's declared type.

    ``bool`` is not an ``int`` here, and a ``tuple`` field takes a JSON array.
    """
    if hint is bool:
        return isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is tuple:
        return isinstance(value, list)
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return isinstance(value, list) and all(_conforms(v, item) for v in value)
    if get_origin(hint) is Union:
        return any(_conforms(value, arg) for arg in get_args(hint))
    return isinstance(value, hint)


def _type_name(hint: Any) -> str:
    """JSON spelling of a declared field type, for error messages."""
    if get_origin(hint) is tuple:
        return f"array of {_type_name(get_args(hint)[0])}"
    if get_origin(hint) is Union:
        return " or ".join(_type_name(arg) for arg in get_args(hint))
    return _JSON_NAMES[hint]


@dataclass(frozen=True)
class _Message:
    """Shared codec machinery of requests and responses."""

    #: Operation name in the envelope; set by each concrete subclass.
    op: ClassVar[str] = ""

    def to_json(self) -> dict:
        """The full envelope payload: ``{"v", "op", "body"}``."""
        body = {}
        for item in fields(self):
            value = getattr(self, item.name)
            body[item.name] = list(value) if isinstance(value, tuple) else value
        return {"v": PROTOCOL_VERSION, "op": type(self).op, "body": body}

    @classmethod
    def _from_body(cls, body: dict):
        names = {item.name for item in fields(cls)}
        unknown = set(body) - names
        if unknown:
            raise BadRequestError(
                f"unknown field(s) for {cls.op!r}: {', '.join(sorted(unknown))}"
            )
        kwargs = {}
        for name, hint in _wire_types(cls).items():
            if name in body:
                value = body[name]
                if not _conforms(value, hint):
                    raise BadRequestError(
                        f"field {name!r} of {cls.op!r} must be "
                        f"{_type_name(hint)}, got {_type_name(type(value))}"
                    )
                kwargs[name] = tuple(value) if isinstance(value, list) else value
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise BadRequestError(f"malformed {cls.op!r} body: {exc}") from exc


# --------------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Request(_Message):
    """Base class of every request message."""


@dataclass(frozen=True)
class QueryRequest(Request):
    """Evaluate one probabilistic twig query.

    ``query`` is a query id (``Q1``..``Q10``) or twig pattern; ``k`` restricts
    to top-k; ``plan`` forces an evaluation plan; ``stream`` asks the binary
    protocol to emit answers as individual frames as the top-k merge produces
    them (ignored by the HTTP transport, which always sends one body).
    """

    op: ClassVar[str] = "query"
    query: str = ""
    k: Optional[int] = None
    plan: Optional[str] = None
    use_cache: bool = True
    stream: bool = False


@dataclass(frozen=True)
class BatchRequest(Request):
    """Evaluate many queries as one batch sharing prefix work and snapshot."""

    op: ClassVar[str] = "batch"
    queries: tuple[str, ...] = ()
    k: Optional[int] = None
    plan: Optional[str] = None
    use_cache: bool = True


@dataclass(frozen=True)
class DeltaRequest(Request):
    """Apply a mapping delta to the served session (writer side).

    ``delta`` is the canonical payload of
    :meth:`repro.engine.delta.MappingDelta.to_payload`.
    """

    op: ClassVar[str] = "apply-delta"
    delta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DeltaBatchRequest(Request):
    """Apply a coalesced batch of mapping deltas in one commit (writer side).

    ``deltas`` is a sequence of canonical
    :meth:`repro.engine.delta.MappingDelta.to_payload` payloads, applied in
    order as one :class:`~repro.engine.streaming.DeltaBatch`: one patched
    compile, one ``delta_epoch`` bump, one round of subscription
    notifications.
    """

    op: ClassVar[str] = "apply-delta-batch"
    deltas: tuple = ()


@dataclass(frozen=True)
class SubscribeRequest(Request):
    """Register a standing query and stream its updates (binary protocol only).

    The server answers with the subscription's initial
    :class:`~repro.engine.streaming.SubscriptionUpdate` payload and then
    streams one frame per non-empty update until the client ends the stream.
    The HTTP transport rejects this operation — a request/response cycle
    cannot carry an open-ended update stream.
    """

    op: ClassVar[str] = "subscribe"
    query: str = ""
    k: Optional[int] = None


@dataclass(frozen=True)
class ExplainRequest(Request):
    """Report how a query would be (and was) evaluated."""

    op: ClassVar[str] = "explain"
    query: str = ""
    k: Optional[int] = None
    plan: Optional[str] = None


@dataclass(frozen=True)
class StatsRequest(Request):
    """Fetch service, session, admission and connection statistics."""

    op: ClassVar[str] = "stats"


@dataclass(frozen=True)
class PingRequest(Request):
    """Liveness probe; answered without touching the engine or the queue."""

    op: ClassVar[str] = "ping"


# --------------------------------------------------------------------------- #
# Responses
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Response(_Message):
    """Base class of every response message."""


@dataclass(frozen=True)
class QueryResponse(Response):
    """One evaluated query: the request's query text (echoed) and the
    canonical result payload (:func:`repro.api.serialize.result_to_json`).

    Deliberately free of timings or other volatile fields, so equal results
    encode to equal bytes and the differential suite can compare server
    responses against in-process execution byte for byte.  ``result`` may
    be given as the ``PTQResult`` itself; it reads back as the payload."""

    op: ClassVar[str] = "query"
    query: str = ""
    result: _Result = _Result()


@dataclass(frozen=True)
class BatchResponse(Response):
    """Results of a batch, positionally aligned with the request's queries
    (payload dicts or ``PTQResult`` objects, as for :class:`QueryResponse`)."""

    op: ClassVar[str] = "batch"
    queries: tuple[str, ...] = ()
    results: _ResultTuple = _ResultTuple()


@dataclass(frozen=True)
class DeltaResponse(Response):
    """The applied delta's report
    (:func:`repro.api.serialize.delta_report_to_json`)."""

    op: ClassVar[str] = "apply-delta"
    report: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DeltaBatchResponse(Response):
    """The applied batch's report
    (:func:`repro.api.serialize.delta_batch_report_to_json`)."""

    op: ClassVar[str] = "apply-delta-batch"
    report: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExplainResponse(Response):
    """The explain report payload
    (:func:`repro.api.serialize.explain_to_json`)."""

    op: ClassVar[str] = "explain"
    report: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StatsResponse(Response):
    """Service counters, latency percentiles, cache/session statistics, and
    the server's admission-control and connection counters."""

    op: ClassVar[str] = "stats"
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PingResponse(Response):
    """Liveness acknowledgement."""

    op: ClassVar[str] = "ping"


@dataclass(frozen=True)
class ErrorResponse(Response):
    """A typed failure: the :func:`repro.api.errors.wire_error` payload.

    ``to_error()`` reconstructs the exception; clients raise it so remote
    failures surface as the same types in-process callers see."""

    op: ClassVar[str] = "error"
    error: dict = field(default_factory=dict)

    @classmethod
    def from_exception(cls, error: BaseException) -> "ErrorResponse":
        """Wrap any exception into its wire representation."""
        return cls(error=wire_error(error))

    def to_error(self):
        """The typed :class:`~repro.exceptions.ReproError` this payload names."""
        return error_from_wire(self.error)


_REQUEST_TYPES: dict[str, Type[Request]] = {
    cls.op: cls
    for cls in (
        QueryRequest,
        BatchRequest,
        DeltaRequest,
        DeltaBatchRequest,
        SubscribeRequest,
        ExplainRequest,
        StatsRequest,
        PingRequest,
    )
}

_RESPONSE_TYPES: dict[str, Type[Response]] = {
    cls.op: cls
    for cls in (
        QueryResponse,
        BatchResponse,
        DeltaResponse,
        DeltaBatchResponse,
        ExplainResponse,
        StatsResponse,
        PingResponse,
        ErrorResponse,
    )
}


#: Result fields of each response class, which encode_message splices.
_SPLICED: dict[type, dict[str, _Result]] = {
    cls: {name: value for name, value in vars(cls).items() if isinstance(value, _Result)}
    for cls in (QueryResponse, BatchResponse)
}


def encode_message(message: Union[Request, Response]) -> bytes:
    """Encode a request or response to canonical envelope bytes.

    Equal to ``canonical_json(message.to_json())``; result fields are
    spliced in as their memoised canonical bytes instead of being rebuilt.
    """
    cls = type(message)
    results = _SPLICED.get(cls)
    if results is None:
        return canonical_json(message.to_json())
    body = b",".join(
        canonical_json(item.name)
        + b":"
        + (
            results[item.name].encode(message)
            if item.name in results
            else canonical_json(getattr(message, item.name))
        )
        for item in sorted(fields(message), key=lambda item: item.name)
    )
    return b'{"body":{%b},"op":%b,"v":%d}' % (body, canonical_json(cls.op), PROTOCOL_VERSION)


def _decode_payload(data: bytes) -> Any:
    import json

    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"message payload is not valid JSON: {exc}") from exc


def decode_request(data: bytes) -> Request:
    """Decode envelope bytes into the matching typed request.

    Raises :class:`~repro.api.errors.ProtocolError` on non-JSON payloads and
    :class:`~repro.api.errors.BadRequestError` on a bad envelope, unknown
    operation, or ill-formed body.
    """
    op, body = _check_envelope(_decode_payload(data))
    cls = _REQUEST_TYPES.get(op)
    if cls is None:
        raise BadRequestError(
            f"unknown operation {op!r}; expected one of "
            f"{', '.join(sorted(_REQUEST_TYPES))}"
        )
    return cls._from_body(body)


def decode_response(data: bytes) -> Response:
    """Decode envelope bytes into the matching typed response
    (:class:`ErrorResponse` included — the caller decides whether to raise)."""
    op, body = _check_envelope(_decode_payload(data))
    cls = _RESPONSE_TYPES.get(op)
    if cls is None:
        raise BadRequestError(
            f"unknown response operation {op!r}; expected one of "
            f"{', '.join(sorted(_RESPONSE_TYPES))}"
        )
    return cls._from_body(body)
