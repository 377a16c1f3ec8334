"""The asyncio network front-end: one port, two transports, typed everything.

:class:`ReproServer` serves a session (:class:`~repro.engine.Dataspace`), a
sharded corpus, or an existing :class:`~repro.service.QueryService` over TCP.
Each accepted connection is sniffed by its first four bytes: ``b"RPRO"``
selects the length-prefixed binary framing (:mod:`repro.net.framing`),
anything that reads as an ASCII HTTP method selects a minimal HTTP/1.1
handler.  Both transports decode into the same typed requests, dispatch
through the same :class:`~repro.api.handler.ApiHandler`, and encode the same
canonical responses — so a server response is byte-identical to in-process
execution by construction, a property the differential suite pins.

The event loop parses, queues and writes, and it answers a query whose
result is already cached: :meth:`ApiHandler.cached
<repro.api.handler.ApiHandler.cached>` looks the answer up without waiting on
the session lock, preparing a new text or evaluating, and the loop encodes
and writes it.  Everything else (misses, streams, batches, explain, deltas,
corpus-backed services) executes on a thread pool (``run_in_executor``)
against the thread-safe engine.  Overload never manifests as a hang:
admission control (:class:`~repro.net.admission.AdmissionController`) bounds
in-flight and queued evaluations and sheds the rest with typed
:class:`~repro.api.errors.OverloadedError` responses, and a per-request
deadline turns stuck evaluations into typed
:class:`~repro.api.errors.RequestTimeoutError` responses.  A cached answer
takes no admission slot and no deadline: it is never queued or shed.
``stop()`` drains: in-flight requests finish, queued and new ones are refused
with :class:`~repro.api.errors.ShuttingDownError`.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Optional, Union

from repro.api.errors import (
    BadRequestError,
    OverloadedError,
    PayloadTooLargeError,
    ProtocolError,
    RequestTimeoutError,
    ShuttingDownError,
)
from repro.api.handler import ApiHandler, _coerce_service
from repro.api.messages import (
    PROTOCOL_VERSION,
    ErrorResponse,
    PingRequest,
    QueryRequest,
    Request,
    Response,
    StatsRequest,
    SubscribeRequest,
    decode_request,
    encode_message,
)
from repro.api.serialize import canonical_json, subscription_update_to_json
from repro.exceptions import ReproError
from repro.net import framing
from repro.net.admission import AdmissionController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus import ShardedCorpus
    from repro.engine.dataspace import Dataspace
    from repro.service import QueryService

__all__ = ["ReproServer"]

#: HTTP status for each error code; anything unlisted is 400 for typed engine
#: errors and 500 for foreign exceptions.
_HTTP_STATUS = {
    "payload-too-large": 413,
    "overloaded": 429,
    "shutting-down": 503,
    "timeout": 504,
    "internal": 500,
}

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Upper bound on an HTTP request head (request line + headers).
_MAX_HTTP_HEAD = 16 * 1024


def _http_status(error: BaseException) -> int:
    if isinstance(error, ReproError):
        return _HTTP_STATUS.get(error.code, 400)
    return 500


def _swallow(future) -> None:
    """Consume the exception of an abandoned (timed-out) executor future."""
    if not future.cancelled():
        future.exception()


def _stream_frames(response: Response) -> list[tuple[int, bytes]]:
    """Split a query response into streaming frames (runs on a worker thread).

    Item frames carry the canonical per-answer payloads in the result's
    canonical order; the end frame carries the response envelope *minus* the
    answers, so a streamed result reassembles into exactly the bytes of the
    unstreamed response.
    """
    envelope = response.to_json()
    body = dict(envelope["body"])
    result = dict(body.get("result", {}))
    answers = result.pop("answers", [])
    frames = [
        (framing.OP_STREAM_ITEM, canonical_json(answer)) for answer in answers
    ]
    body["result"] = result
    envelope["body"] = body
    frames.append((framing.OP_STREAM_END, canonical_json(envelope)))
    return frames


class ReproServer:
    """Serve an engine target over TCP with admission control.

    Parameters
    ----------
    target:
        What to serve: a :class:`~repro.engine.Dataspace`, a homogeneous
        :class:`~repro.corpus.ShardedCorpus`, or a ready-made
        :class:`~repro.service.QueryService` (shared services are not closed
        on :meth:`stop`; owned ones are).
    host, port:
        Bind address.  ``port=0`` (default) picks a free port; read the
        actual one from :attr:`port` after :meth:`start`.
    max_inflight, max_queue:
        Admission caps — concurrent executions and queued waiters; arrivals
        beyond both are shed with :class:`~repro.api.errors.OverloadedError`.
        ``max_inflight`` defaults to the service's worker-pool size.
    request_timeout:
        Per-request deadline in seconds (``None`` disables it).
    max_payload:
        Cap on one frame or HTTP body, in bytes.
    retry_after:
        Backoff hint attached to shed responses.
    use_cache:
        Cache policy of an internally created service (ignored when
        ``target`` already is a service).
    """

    def __init__(
        self,
        target: Union["Dataspace", "ShardedCorpus", "QueryService"],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: Optional[int] = None,
        max_queue: int = 32,
        request_timeout: Optional[float] = 30.0,
        max_payload: int = framing.DEFAULT_MAX_PAYLOAD,
        retry_after: float = 0.1,
        use_cache: bool = True,
    ) -> None:
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(f"request_timeout must be positive, got {request_timeout}")
        if max_payload < framing.HEADER_SIZE:
            raise ValueError(f"max_payload too small: {max_payload}")
        self._service, self._owns_service = _coerce_service(target, use_cache=use_cache)
        self._handler = ApiHandler(self._service, extra_stats=self.server_stats)
        self._host = host
        self._requested_port = port
        if max_inflight is None:
            max_inflight = self._service.max_workers
        self._admission = AdmissionController(
            max_inflight, max_queue, retry_after=retry_after
        )
        self._request_timeout = request_timeout
        self._max_payload = max_payload
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: set[asyncio.Task] = set()
        self._connections_total = 0
        self._requests_binary = 0
        self._requests_http = 0
        self._served_on_loop = 0
        self._stopping = False
        self._busy = 0
        self._quiet: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def service(self) -> "QueryService":
        """The query service requests execute on."""
        return self._service

    @property
    def host(self) -> str:
        """Bound host (valid after :meth:`start`)."""
        return self._host

    @property
    def port(self) -> int:
        """Bound port (valid after :meth:`start`; 0 before)."""
        if self._server is None or not self._server.sockets:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is listening on."""
        return (self._host, self.port)

    async def start(self) -> "ReproServer":
        """Bind and begin accepting connections; returns ``self``."""
        if self._server is not None:
            raise RuntimeError("the server has already been started")
        self._loop = asyncio.get_running_loop()
        self._quiet = asyncio.Event()
        self._quiet.set()
        self._executor = ThreadPoolExecutor(
            max_workers=self._service.max_workers, thread_name_prefix="repro-net"
        )
        self._server = await asyncio.start_server(
            self._accept, self._host, self._requested_port
        )
        return self

    async def stop(self, *, drain: bool = True) -> None:
        """Stop accepting, then drain (or abandon) in-flight work and close.

        With ``drain=True`` (default) requests already executing run to
        completion and their responses are written; queued and newly arriving
        requests are refused with typed
        :class:`~repro.api.errors.ShuttingDownError` responses.  With
        ``drain=False`` connections are torn down immediately.
        """
        if self._server is None:
            return
        self._stopping = True
        self._server.close()
        await self._server.wait_closed()
        if drain:
            await self._admission.drain()
            # Admission is idle; wait until every connection has also written
            # out the response of the request it was serving.
            if self._quiet is not None:
                await self._quiet.wait()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=drain)
        if self._owns_service:
            self._service.close(wait=drain)
        self._server = None

    def reconfigure(
        self,
        *,
        max_inflight: Optional[int] = None,
        max_queue: Optional[int] = None,
        request_timeout: Optional[float] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        """Adjust admission caps and the request deadline live, under load.

        Executing requests are never interrupted; new admissions follow the
        new caps immediately (queued waiters are admitted at once when the
        in-flight cap was raised).
        """
        if request_timeout is not None:
            if request_timeout <= 0:
                raise ValueError(
                    f"request_timeout must be positive, got {request_timeout}"
                )
            self._request_timeout = request_timeout
        self._admission.reconfigure(
            max_inflight=max_inflight, max_queue=max_queue, retry_after=retry_after
        )

    def server_stats(self) -> dict:
        """Admission and connection counters (the ``stats`` op's ``server`` key)."""
        stats = {
            "connections_open": len(self._connections),
            "connections_total": self._connections_total,
            "requests_binary": self._requests_binary,
            "requests_http": self._requests_http,
            "served_on_loop": self._served_on_loop,
            "request_timeout": self._request_timeout,
            "max_payload": self._max_payload,
        }
        stats.update(self._admission.stats())
        return stats

    def serve(self, *, max_seconds: Optional[float] = None, on_start=None) -> None:
        """Run the server on a fresh event loop until interrupted (CLI path).

        ``on_start`` (a callable receiving the server) fires once the port is
        bound — the CLI uses it to print the address.  ``max_seconds`` bounds
        the serving time (then drains and returns); ``None`` serves until
        KeyboardInterrupt.
        """

        async def _run() -> None:
            await self.start()
            assert self._server is not None
            if on_start is not None:
                on_start(self)
            try:
                if max_seconds is None:
                    await self._server.serve_forever()
                else:
                    try:
                        await asyncio.wait_for(
                            self._server.serve_forever(), max_seconds
                        )
                    except asyncio.TimeoutError:
                        pass
            except asyncio.CancelledError:
                pass
            finally:
                await self.stop()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            pass

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    async def _execute(self, request: Request, postprocess) -> object:
        """Admission, executor dispatch, deadline — shared by both transports.

        A non-streamed query whose answer is cached is answered here on the
        loop, with no executor hop, admission slot or deadline.  Everything
        else runs on a worker thread, where ``postprocess`` (the response
        encoding) follows the handler.  Returns whatever ``postprocess``
        returns.
        """
        if isinstance(request, QueryRequest) and not request.stream and not self._stopping:
            response = self._handler.cached(request)
            if response is not None:
                self._served_on_loop += 1
                return postprocess(response)

        def job():
            return postprocess(self._handler.handle(request))

        if isinstance(request, (PingRequest, StatsRequest)):
            # Control-plane ops bypass admission: they must answer precisely
            # when the data plane is saturated.
            assert self._loop is not None and self._executor is not None
            return await self._loop.run_in_executor(self._executor, job)
        async with self._admission.slot():
            assert self._loop is not None and self._executor is not None
            work = self._loop.run_in_executor(self._executor, job)
            if self._request_timeout is None:
                return await work
            try:
                return await asyncio.wait_for(
                    asyncio.shield(work), self._request_timeout
                )
            except asyncio.TimeoutError:
                # The evaluation cannot be interrupted mid-kernel; the worker
                # finishes in the background and its result is discarded.
                work.add_done_callback(_swallow)
                raise RequestTimeoutError(
                    f"request exceeded the {self._request_timeout:g}s deadline"
                ) from None

    def _busy_enter(self) -> None:
        self._busy += 1
        if self._quiet is not None:
            self._quiet.clear()

    def _busy_exit(self) -> None:
        self._busy -= 1
        if self._busy == 0 and self._quiet is not None:
            self._quiet.set()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._connections.add(task)
        self._connections_total += 1
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                head = await reader.readexactly(4)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if head == framing.MAGIC:
                await self._serve_binary(reader, writer, head)
            else:
                await self._serve_http(reader, writer, head)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    # ------------------------------------------------------------------ #
    # Binary transport
    # ------------------------------------------------------------------ #
    async def _serve_binary(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        first_bytes: bytes,
    ) -> None:
        """Per-connection session loop: frames in, frames out, in order."""
        carry = first_bytes
        while True:
            try:
                frame = await framing.read_frame(
                    reader, max_payload=self._max_payload, first_bytes=carry
                )
            except ProtocolError as error:
                # The stream position is untrustworthy after a framing
                # violation: report once, then close.
                await self._write_frame(
                    writer,
                    framing.OP_ERROR,
                    encode_message(ErrorResponse.from_exception(error)),
                )
                return
            carry = b""
            if frame is None:
                return
            opcode, payload = frame
            if opcode == framing.OP_PING:
                await self._write_frame(writer, framing.OP_PONG)
                continue
            if opcode != framing.OP_REQUEST:
                await self._write_frame(
                    writer,
                    framing.OP_ERROR,
                    encode_message(
                        ErrorResponse.from_exception(
                            ProtocolError(
                                f"clients may only send REQUEST or PING frames, "
                                f"got opcode {opcode}"
                            )
                        )
                    ),
                )
                return
            self._requests_binary += 1
            try:
                request = decode_request(payload)
            except Exception as error:
                await self._write_frame(
                    writer,
                    framing.OP_ERROR,
                    encode_message(ErrorResponse.from_exception(error)),
                )
                if isinstance(error, ProtocolError):
                    return
                continue
            if isinstance(request, SubscribeRequest):
                # Subscription streams are long-lived and idle between
                # updates; they deliberately stay outside the busy counter
                # (which tracks request/response work for drain) so an open
                # subscription cannot stall ``stop()``.
                if await self._serve_subscription(reader, writer, request):
                    return
                continue
            self._busy_enter()
            try:
                close = await self._answer_binary(writer, request)
            finally:
                self._busy_exit()
            if close:
                return

    async def _answer_binary(
        self, writer: asyncio.StreamWriter, request: Request
    ) -> bool:
        """Execute and answer one decoded binary request.

        Returns ``True`` when the connection must close (protocol violation)."""
        try:
            if isinstance(request, QueryRequest) and request.stream:
                frames = await self._execute(request, _stream_frames)
            else:
                frames = await self._execute(
                    request,
                    lambda response: [
                        (framing.OP_RESPONSE, encode_message(response))
                    ],
                )
        except Exception as error:
            await self._write_frame(
                writer,
                framing.OP_ERROR,
                encode_message(ErrorResponse.from_exception(error)),
            )
            return isinstance(error, ProtocolError)
        for opcode, data in frames:
            await self._write_frame(writer, opcode, data)
        return False

    async def _serve_subscription(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: SubscribeRequest,
    ) -> bool:
        """Serve one standing-query stream on this connection.

        Registers the subscription on the service (the baseline execution
        runs on the worker pool), then streams every notification — the
        initial snapshot included — as one ``OP_STREAM_ITEM`` frame carrying
        the canonical :func:`~repro.api.serialize.subscription_update_to_json`
        payload.  The engine's commit path delivers updates on writer
        threads, where the callback encodes them and hops the bytes onto the
        event loop through a queue.  The client ends the stream by
        sending ``OP_STREAM_END``; the server cancels the subscription,
        acknowledges with ``OP_STREAM_END``, and the connection returns to
        the normal request loop.  Returns ``True`` when the connection must
        close instead.
        """
        assert self._loop is not None and self._executor is not None
        loop = self._loop
        queue: asyncio.Queue = asyncio.Queue()

        def deliver(update) -> None:
            payload = canonical_json(subscription_update_to_json(update))
            loop.call_soon_threadsafe(queue.put_nowait, payload)

        def register():
            return self._service.subscribe(
                request.query, k=request.k, callback=deliver
            )

        try:
            handle = await loop.run_in_executor(self._executor, register)
        except Exception as error:
            await self._write_frame(
                writer,
                framing.OP_ERROR,
                encode_message(ErrorResponse.from_exception(error)),
            )
            return isinstance(error, ProtocolError)
        frame_task = asyncio.ensure_future(
            framing.read_frame(reader, max_payload=self._max_payload)
        )
        queue_task = asyncio.ensure_future(queue.get())
        try:
            while True:
                done, _ = await asyncio.wait(
                    {frame_task, queue_task}, return_when=asyncio.FIRST_COMPLETED
                )
                if queue_task in done:
                    await self._write_frame(
                        writer, framing.OP_STREAM_ITEM, queue_task.result()
                    )
                    queue_task = asyncio.ensure_future(queue.get())
                if frame_task not in done:
                    continue
                try:
                    frame = frame_task.result()
                except ProtocolError as error:
                    await self._write_frame(
                        writer,
                        framing.OP_ERROR,
                        encode_message(ErrorResponse.from_exception(error)),
                    )
                    return True
                if frame is None:
                    return True
                opcode, _ = frame
                if opcode == framing.OP_PING:
                    await self._write_frame(writer, framing.OP_PONG)
                    frame_task = asyncio.ensure_future(
                        framing.read_frame(reader, max_payload=self._max_payload)
                    )
                    continue
                if opcode != framing.OP_STREAM_END:
                    await self._write_frame(
                        writer,
                        framing.OP_ERROR,
                        encode_message(
                            ErrorResponse.from_exception(
                                ProtocolError(
                                    f"subscribed clients may only send "
                                    f"STREAM_END or PING frames, got opcode "
                                    f"{opcode}"
                                )
                            )
                        ),
                    )
                    return True
                await self._write_frame(writer, framing.OP_STREAM_END)
                return False
        finally:
            handle.cancel()
            for task in (frame_task, queue_task):
                if not task.done():
                    task.cancel()

    async def _write_frame(
        self, writer: asyncio.StreamWriter, opcode: int, payload: bytes = b""
    ) -> None:
        writer.write(framing.encode_frame(opcode, payload))
        await writer.drain()

    # ------------------------------------------------------------------ #
    # HTTP transport
    # ------------------------------------------------------------------ #
    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        first_bytes: bytes,
    ) -> None:
        """Minimal HTTP/1.1: POST /v1/<op>, GET /v1/stats + /v1/health."""
        carry = first_bytes
        while True:
            try:
                head = await self._read_http_head(reader, carry)
            except (ProtocolError, PayloadTooLargeError) as error:
                await self._write_http(
                    writer,
                    _http_status(error),
                    encode_message(ErrorResponse.from_exception(error)),
                    keep_alive=False,
                )
                return
            carry = b""
            if head is None:
                return
            headers: dict[str, str] = {}
            recoverable = True
            self._busy_enter()
            try:
                retry_after: Optional[float] = None
                try:
                    method, path, headers = self._parse_http_head(head)
                    body = await self._read_http_body(reader, headers)
                    payload = await self._dispatch_http(method, path, body)
                    status = 200
                except Exception as error:
                    response = ErrorResponse.from_exception(error)
                    payload = encode_message(response)
                    retry_after = response.error.get("retry_after")
                    status = _http_status(error)
                    # After a framing-level violation (malformed head, unread
                    # oversized body) the stream position is untrustworthy.
                    recoverable = not isinstance(error, ProtocolError)
                keep_alive = (
                    recoverable
                    and status < 500
                    and not self._stopping
                    and headers.get("connection", "").lower() != "close"
                )
                await self._write_http(
                    writer,
                    status,
                    payload,
                    keep_alive=keep_alive,
                    retry_after=retry_after,
                )
            finally:
                self._busy_exit()
            if not keep_alive:
                return

    async def _read_http_head(
        self, reader: asyncio.StreamReader, carry: bytes
    ) -> Optional[bytes]:
        """The request head (no trailing blank line), or ``None`` on clean EOF.

        ``carry`` holds the already-peeked discriminator bytes; the rest is
        read with ``readuntil`` so body bytes are never consumed early.
        """
        try:
            rest = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial and not carry:
                return None
            raise ProtocolError("connection closed mid HTTP request head") from exc
        except asyncio.LimitOverrunError as exc:
            raise PayloadTooLargeError(
                f"HTTP request head exceeds {_MAX_HTTP_HEAD} bytes"
            ) from exc
        head = carry + rest
        if len(head) > _MAX_HTTP_HEAD:
            raise PayloadTooLargeError(
                f"HTTP request head exceeds {_MAX_HTTP_HEAD} bytes"
            )
        return head[: -len(b"\r\n\r\n")]

    def _parse_http_head(self, head: bytes) -> tuple[str, str, dict]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
            raise ProtocolError("undecodable HTTP request head") from exc
        lines = text.split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ProtocolError(f"malformed HTTP request line: {lines[0]!r}")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise ProtocolError(f"malformed HTTP header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        return method, path, headers

    async def _read_http_body(
        self, reader: asyncio.StreamReader, headers: dict
    ) -> bytes:
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError as exc:
            raise ProtocolError(f"bad Content-Length: {raw_length!r}") from exc
        if length < 0:
            raise ProtocolError(f"bad Content-Length: {raw_length!r}")
        if length > self._max_payload:
            raise PayloadTooLargeError(
                f"HTTP body of {length} bytes exceeds the "
                f"{self._max_payload}-byte cap"
            )
        if length == 0:
            return b""
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError("connection closed mid HTTP body") from exc

    async def _dispatch_http(self, method: str, path: str, body: bytes) -> bytes:
        """Route one HTTP request; returns the pre-encoded response payload."""
        self._requests_http += 1
        if path == "/v1/health":
            if method != "GET":
                raise BadRequestError("health checks are GET requests")
            return await self._execute(PingRequest(), encode_message)
        if path == "/v1/stats" and method == "GET":
            return await self._execute(StatsRequest(), encode_message)
        if not path.startswith("/v1/"):
            raise BadRequestError(f"unknown path {path!r}; the API lives under /v1/")
        if method != "POST":
            raise BadRequestError(f"{path} expects POST, got {method}")
        op = path[len("/v1/") :]
        if body:
            try:
                fields = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise BadRequestError(f"request body is not valid JSON: {exc}") from exc
        else:
            fields = {}
        if not isinstance(fields, dict):
            raise BadRequestError("request body must be a JSON object")
        # HTTP callers send the bare body; the path names the operation.
        envelope = {"v": PROTOCOL_VERSION, "op": op, "body": fields}
        request = decode_request(canonical_json(envelope))
        return await self._execute(request, encode_message)

    async def _write_http(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        *,
        keep_alive: bool,
        retry_after: Optional[float] = None,
    ) -> None:
        reason = _HTTP_REASONS.get(status, "Error")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if retry_after is not None:
            lines.append(f"Retry-After: {retry_after:g}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + payload)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Context management
    # ------------------------------------------------------------------ #
    async def __aenter__(self) -> "ReproServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    def __repr__(self) -> str:
        state = "listening" if self._server is not None else "stopped"
        return f"ReproServer({self._host}:{self.port}, {state})"
