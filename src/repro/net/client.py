"""The synchronous typed client: ``repro.connect()`` and friends.

:class:`ReproClient` speaks the binary framing over one blocking TCP socket
and exposes the engine's verbs with the engine's shapes: ``query`` returns a
:class:`~repro.api.serialize.QueryResult`, ``apply_delta`` a reconstructed
:class:`~repro.engine.delta.DeltaReport`, ``explain`` an
:class:`~repro.engine.plans.ExplainReport`.  Server failures re-raise as the
same typed exceptions in-process callers see
(:func:`repro.api.errors.error_from_wire`), so error handling is written
once and works on both sides of the wire — including admission shed, which
surfaces as :class:`~repro.api.errors.OverloadedError` with the server's
``retry_after`` hint attached.

The client is deliberately synchronous and single-connection: the server
owns the concurrency (admission control, thread pool); callers wanting
parallel load open several clients, one per thread.
"""

from __future__ import annotations

import socket
from typing import Iterator, Optional, Union

from repro.api.errors import ProtocolError
from repro.api.messages import (
    BatchRequest,
    DeltaBatchRequest,
    DeltaRequest,
    ErrorResponse,
    ExplainRequest,
    PingRequest,
    QueryRequest,
    Request,
    Response,
    StatsRequest,
    SubscribeRequest,
    decode_response,
    encode_message,
)
from repro.api.serialize import (
    QueryAnswer,
    QueryResult,
    SubscriptionEvent,
    delta_batch_report_from_json,
    delta_report_from_json,
    explain_from_json,
    result_from_json,
    subscription_update_from_json,
)
from repro.net import framing

__all__ = ["ReproClient", "connect"]


class ReproClient:
    """A blocking client for one server connection (binary protocol).

    Use :func:`connect` (also exported as ``repro.connect``) to construct
    one; the client is a context manager and must be closed when done.
    """

    def __init__(
        self, host: str, port: int, *, timeout: Optional[float] = 30.0
    ) -> None:
        self._address = (host, port)
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._closed = False

    # ------------------------------------------------------------------ #
    # Wire plumbing
    # ------------------------------------------------------------------ #
    def _send_frame(self, opcode: int, payload: bytes = b"") -> None:
        if self._closed:
            raise ProtocolError("the client connection has been closed")
        self._sock.sendall(framing.encode_frame(opcode, payload))

    def _read_exact(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ProtocolError(
                    f"server closed the connection {count - remaining} bytes "
                    f"into a {count}-byte read"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _read_frame(self) -> tuple[int, bytes]:
        header = self._read_exact(framing.HEADER_SIZE)
        opcode, length = framing.decode_header(header)
        payload = self._read_exact(length) if length else b""
        return opcode, payload

    def _round_trip(self, request: Request) -> Response:
        """Send one request, read one response, raise typed errors."""
        self._send_frame(framing.OP_REQUEST, encode_message(request))
        opcode, payload = self._read_frame()
        if opcode not in (framing.OP_RESPONSE, framing.OP_ERROR):
            raise ProtocolError(f"unexpected reply frame opcode {opcode}")
        response = decode_response(payload)
        if isinstance(response, ErrorResponse):
            raise response.to_error()
        return response

    # ------------------------------------------------------------------ #
    # Verbs
    # ------------------------------------------------------------------ #
    def query(
        self,
        query: str,
        *,
        k: Optional[int] = None,
        plan: Optional[str] = None,
        use_cache: bool = True,
    ) -> QueryResult:
        """Evaluate one query remotely; returns the typed result view."""
        response = self._round_trip(
            QueryRequest(query=query, k=k, plan=plan, use_cache=use_cache)
        )
        return result_from_json(response.result, query=response.query)

    def query_batch(
        self,
        queries: "list[str] | tuple[str, ...]",
        *,
        k: Optional[int] = None,
        plan: Optional[str] = None,
        use_cache: bool = True,
    ) -> list[QueryResult]:
        """Evaluate a batch remotely (shared prefix work server-side)."""
        response = self._round_trip(
            BatchRequest(
                queries=tuple(queries), k=k, plan=plan, use_cache=use_cache
            )
        )
        return [
            result_from_json(payload, query=query)
            for query, payload in zip(response.queries, response.results)
        ]

    def stream_top_k(
        self, query: str, *, k: Optional[int] = None, plan: Optional[str] = None
    ) -> Iterator[QueryAnswer]:
        """Iterate a query's answers as the server streams them.

        Answers arrive one frame at a time in canonical order; the generator
        must be exhausted (or the client closed) before issuing the next
        request on this connection.
        """
        self._send_frame(
            framing.OP_REQUEST,
            encode_message(QueryRequest(query=query, k=k, plan=plan, stream=True)),
        )
        while True:
            opcode, payload = self._read_frame()
            if opcode == framing.OP_STREAM_ITEM:
                import json

                yield QueryAnswer.from_json(json.loads(payload.decode("utf-8")))
            elif opcode == framing.OP_STREAM_END:
                return
            elif opcode == framing.OP_ERROR:
                response = decode_response(payload)
                assert isinstance(response, ErrorResponse)
                raise response.to_error()
            else:
                raise ProtocolError(f"unexpected stream frame opcode {opcode}")

    def apply_delta(self, delta: Union["object", dict]):
        """Apply a mapping delta; returns the reconstructed
        :class:`~repro.engine.delta.DeltaReport`.

        Accepts a :class:`~repro.engine.delta.MappingDelta` or its canonical
        payload dict."""
        payload = delta if isinstance(delta, dict) else delta.to_payload()
        response = self._round_trip(DeltaRequest(delta=payload))
        return delta_report_from_json(response.report)

    def apply_delta_batch(self, deltas):
        """Apply a coalesced delta batch; returns the reconstructed
        :class:`~repro.engine.streaming.DeltaBatchReport`.

        Accepts a :class:`~repro.engine.streaming.DeltaBatch` or any iterable
        of :class:`~repro.engine.delta.MappingDelta` objects / canonical
        payload dicts; the server applies them in order as one commit."""
        payloads = tuple(
            item if isinstance(item, dict) else item.to_payload()
            for item in deltas
        )
        response = self._round_trip(DeltaBatchRequest(deltas=payloads))
        return delta_batch_report_from_json(response.report)

    def subscribe(
        self, query: str, *, k: Optional[int] = None
    ) -> Iterator[SubscriptionEvent]:
        """Register a standing query and iterate its update stream.

        The first yielded :class:`~repro.api.serialize.SubscriptionEvent` is
        the ``initial`` baseline; every later event is an incremental diff
        whose :meth:`~repro.api.serialize.SubscriptionEvent.apply` folds it
        into the caller's local rows.  Reading blocks until the server emits
        the next update (subject to the connection timeout), and the
        connection is dedicated to the stream while the generator is live:
        ``close()`` the generator to cancel the subscription — it tells the
        server to end the stream and resynchronises the connection, so the
        client can issue further requests afterwards.
        """
        self._send_frame(
            framing.OP_REQUEST, encode_message(SubscribeRequest(query=query, k=k))
        )
        try:
            while True:
                opcode, payload = self._read_frame()
                if opcode == framing.OP_STREAM_ITEM:
                    import json

                    yield subscription_update_from_json(
                        json.loads(payload.decode("utf-8"))
                    )
                elif opcode == framing.OP_STREAM_END:
                    return
                elif opcode == framing.OP_ERROR:
                    response = decode_response(payload)
                    assert isinstance(response, ErrorResponse)
                    raise response.to_error()
                else:
                    raise ProtocolError(
                        f"unexpected subscription frame opcode {opcode}"
                    )
        except GeneratorExit:
            # The caller closed the generator: cancel server-side and discard
            # in-flight updates until the server acknowledges the end of the
            # stream, leaving the connection aligned on a frame boundary.
            if not self._closed:
                self._send_frame(framing.OP_STREAM_END)
                while True:
                    opcode, payload = self._read_frame()
                    if opcode == framing.OP_STREAM_END:
                        break
                    if opcode == framing.OP_ERROR:
                        response = decode_response(payload)
                        assert isinstance(response, ErrorResponse)
                        raise response.to_error()
                    if opcode != framing.OP_STREAM_ITEM:
                        raise ProtocolError(
                            f"unexpected subscription frame opcode {opcode}"
                        )
            raise

    def explain(
        self,
        query: str,
        *,
        k: Optional[int] = None,
        plan: Optional[str] = None,
    ):
        """Explain a query; returns the reconstructed
        :class:`~repro.engine.plans.ExplainReport`."""
        response = self._round_trip(ExplainRequest(query=query, k=k, plan=plan))
        return explain_from_json(response.report)

    def stats(self) -> dict:
        """Service and server statistics (admission counters under ``server``)."""
        response = self._round_trip(StatsRequest())
        return dict(response.stats)

    def ping(self) -> None:
        """Liveness check via the framing-level PING (bypasses admission)."""
        self._send_frame(framing.OP_PING)
        opcode, _ = self._read_frame()
        if opcode != framing.OP_PONG:
            raise ProtocolError(f"expected PONG, got frame opcode {opcode}")

    def health(self) -> bool:
        """``True`` when the server answers the API-level ping."""
        self._round_trip(PingRequest())
        return True

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the connection (idempotent)."""
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"ReproClient({self._address[0]}:{self._address[1]}, {state})"


def connect(
    host: str = "127.0.0.1", port: int = 0, *, timeout: Optional[float] = 30.0
) -> ReproClient:
    """Open a typed client connection to a running server.

    >>> # with repro.connect("127.0.0.1", server.port) as client:
    >>> #     result = client.query("Q1", k=5)
    """
    return ReproClient(host, port, timeout=timeout)
