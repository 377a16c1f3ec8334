"""Protocol conformance and differential tests for the network front-end.

The server's event loop runs on a dedicated background thread; the test body
talks to it over real TCP sockets from the main thread, exactly like an
external client.  This sidesteps the classic trap of issuing blocking client
calls from *inside* the server's own loop.

Covered here, per the serving contract (docs/serving.md):

* malformed frames, bad opcodes and oversized payloads answer with typed
  errors and close only when the stream is untrustworthy;
* mid-request and mid-head disconnects never wedge the server;
* admission sheds with :class:`~repro.api.OverloadedError` (typed, immediate
  — never a hang), drain refuses with
  :class:`~repro.api.ShuttingDownError`, deadlines surface as
  :class:`~repro.api.RequestTimeoutError`;
* streamed top-k responses reassemble into exactly the unstreamed bytes;
* and the differential pin: server response bytes are identical to
  in-process :class:`~repro.api.ApiHandler` execution;
* cached answers are served on the event loop: never queued or shed, counted
  once, byte-identical to the executor path, and served from the last
  published state, without waiting, while a writer holds the session's writer
  mutex.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.api import (
    PROTOCOL_VERSION,
    BadRequestError,
    OverloadedError,
    QueryRequest,
    decode_request,
    decode_response,
    encode_message,
)
from repro.api.handler import ApiHandler
from repro.api.serialize import canonical_json
from repro.engine import Dataspace
from repro.net import ReproClient, ReproServer, connect
from repro.net.framing import (
    FRAMING_VERSION,
    HEADER,
    HEADER_SIZE,
    MAGIC,
    OP_ERROR,
    OP_PING,
    OP_PONG,
    OP_REQUEST,
    OP_RESPONSE,
    OP_STREAM_END,
    OP_STREAM_ITEM,
    decode_header,
    encode_frame,
)
from repro.service import QueryService, workload_queries
from repro.workloads.datasets import DATASET_IDS

DATASET = "D1"
H = 15


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #
class ServerHarness:
    """A ReproServer running on its own event-loop thread."""

    def __init__(self, target, **kwargs):
        self.server = ReproServer(target, **kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="server-loop", daemon=True
        )
        self.thread.start()
        self.call(self.server.start())

    def call(self, coro, timeout: float = 30.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, *, drain: bool = True) -> None:
        if self.loop.is_closed():
            return
        self.call(self.server.stop(drain=drain))
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()


def raw_socket(port: int, timeout: float = 30.0) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def recv_exact(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("server closed the connection")
        data += chunk
    return data


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    opcode, length = decode_header(
        recv_exact(sock, HEADER_SIZE), max_payload=1 << 30
    )
    return opcode, recv_exact(sock, length)


def send_request(sock: socket.socket, request) -> None:
    sock.sendall(encode_frame(OP_REQUEST, encode_message(request)))


def wire_error_of(payload: bytes) -> dict:
    return decode_response(payload).error


@pytest.fixture(scope="module")
def dataspace():
    return Dataspace.from_dataset(DATASET, h=H)


@pytest.fixture(scope="module")
def service(dataspace):
    with QueryService(dataspace, max_workers=4) as svc:
        yield svc


@pytest.fixture()
def harness(service):
    with ServerHarness(service, max_queue=8) as h:
        yield h


# --------------------------------------------------------------------------- #
# Differential: server bytes == in-process bytes
# --------------------------------------------------------------------------- #
class TestDifferential:
    def test_server_response_bytes_match_in_process(self):
        session = Dataspace.from_dataset(DATASET, h=H)
        request = QueryRequest(query="Q1", k=5)
        with QueryService(session, max_workers=2) as svc:
            expected = encode_message(ApiHandler(svc).handle(request))
            with ServerHarness(svc) as harness:
                with raw_socket(harness.port) as sock:
                    send_request(sock, request)
                    opcode, payload = recv_frame(sock)
        assert opcode == OP_RESPONSE
        assert payload == expected

    def test_cached_and_uncached_responses_identical(self, harness):
        with raw_socket(harness.port) as sock:
            send_request(sock, QueryRequest(query="Q1", k=5, use_cache=True))
            _, cached = recv_frame(sock)
            send_request(sock, QueryRequest(query="Q1", k=5, use_cache=False))
            _, uncached = recv_frame(sock)
        assert cached == uncached

    def test_http_and_binary_bodies_identical(self, harness):
        with raw_socket(harness.port) as sock:
            send_request(sock, QueryRequest(query="Q1", k=5))
            _, binary_payload = recv_frame(sock)
        body = canonical_json({"query": "Q1", "k": 5})
        head = (
            f"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode()
        with raw_socket(harness.port) as sock:
            sock.sendall(head + body)
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        header, _, http_payload = raw.partition(b"\r\n\r\n")
        assert header.startswith(b"HTTP/1.1 200")
        assert http_payload == binary_payload

    def test_client_result_matches_engine(self, harness, dataspace):
        with connect("127.0.0.1", harness.port) as client:
            remote = client.query("Q1", k=5)
        local = dataspace.execute("Q1", k=5)
        local_sorted = sorted(local, key=lambda a: a.mapping_id)
        assert [a.mapping_id for a in remote] == [
            a.mapping_id for a in local_sorted
        ]
        for got, want in zip(remote, local_sorted):
            assert got.probability == float(want.probability)


# --------------------------------------------------------------------------- #
# Framing violations
# --------------------------------------------------------------------------- #
class TestMalformedFrames:
    def test_bad_framing_version_errors_and_closes(self, harness):
        with raw_socket(harness.port) as sock:
            sock.sendall(HEADER.pack(MAGIC, FRAMING_VERSION + 1, OP_REQUEST, 0, 0))
            opcode, payload = recv_frame(sock)
            assert opcode == OP_ERROR
            assert wire_error_of(payload)["code"] == "protocol"
            assert sock.recv(1) == b""  # server closed

    def test_bad_opcode_errors_and_closes(self, harness):
        with raw_socket(harness.port) as sock:
            sock.sendall(HEADER.pack(MAGIC, FRAMING_VERSION, 99, 0, 0))
            opcode, payload = recv_frame(sock)
            assert opcode == OP_ERROR
            assert wire_error_of(payload)["code"] == "protocol"
            assert sock.recv(1) == b""

    def test_response_opcode_from_client_rejected(self, harness):
        with raw_socket(harness.port) as sock:
            sock.sendall(encode_frame(OP_RESPONSE, b"{}"))
            opcode, payload = recv_frame(sock)
            assert opcode == OP_ERROR
            assert wire_error_of(payload)["code"] == "protocol"
            assert sock.recv(1) == b""

    def test_non_json_request_payload_is_protocol_error(self, harness):
        with raw_socket(harness.port) as sock:
            sock.sendall(encode_frame(OP_REQUEST, b"\xff\xfenot json"))
            opcode, payload = recv_frame(sock)
            assert opcode == OP_ERROR
            assert wire_error_of(payload)["code"] == "protocol"
            assert sock.recv(1) == b""

    def test_bad_request_keeps_connection_open(self, harness):
        """Structural errors (unknown op) are recoverable: same connection
        serves the next request."""
        with raw_socket(harness.port) as sock:
            envelope = canonical_json({"v": 1, "op": "frobnicate", "body": {}})
            sock.sendall(encode_frame(OP_REQUEST, envelope))
            opcode, payload = recv_frame(sock)
            assert opcode == OP_ERROR
            assert wire_error_of(payload)["code"] == "bad-request"
            send_request(sock, QueryRequest(query="Q1", k=3))
            opcode, _ = recv_frame(sock)
            assert opcode == OP_RESPONSE

    def test_engine_error_is_typed_and_recoverable(self, harness):
        with raw_socket(harness.port) as sock:
            send_request(sock, QueryRequest(query="///not a twig///"))
            opcode, payload = recv_frame(sock)
            assert opcode == OP_ERROR
            assert wire_error_of(payload)["code"] in ("query", "twig-parse")
            send_request(sock, QueryRequest(query="Q1", k=3))
            opcode, _ = recv_frame(sock)
            assert opcode == OP_RESPONSE

    def test_ping_pong(self, harness):
        with raw_socket(harness.port) as sock:
            sock.sendall(encode_frame(OP_PING))
            assert recv_frame(sock) == (OP_PONG, b"")


class TestOversizedPayloads:
    def test_oversized_binary_frame_shed_with_typed_error(self, service):
        with ServerHarness(service, max_payload=256) as harness:
            with raw_socket(harness.port) as sock:
                sock.sendall(HEADER.pack(MAGIC, FRAMING_VERSION, OP_REQUEST, 0, 512))
                opcode, payload = recv_frame(sock)
                assert opcode == OP_ERROR
                assert wire_error_of(payload)["code"] == "payload-too-large"
                assert sock.recv(1) == b""

    def test_oversized_http_body_is_413(self, service):
        with ServerHarness(service, max_payload=256) as harness:
            head = (
                "POST /v1/query HTTP/1.1\r\nHost: x\r\n"
                "Content-Length: 512\r\n\r\n"
            ).encode()
            with raw_socket(harness.port) as sock:
                sock.sendall(head)
                raw = recv_exact(sock, len(b"HTTP/1.1 413"))
                assert raw == b"HTTP/1.1 413"


# --------------------------------------------------------------------------- #
# Disconnects
# --------------------------------------------------------------------------- #
class TestDisconnects:
    def test_disconnect_mid_frame_leaves_server_healthy(self, harness):
        frame = encode_frame(OP_REQUEST, encode_message(QueryRequest(query="Q1")))
        with raw_socket(harness.port) as sock:
            sock.sendall(frame[: len(frame) // 2])
        # The half-written connection is gone; a fresh one works.
        with raw_socket(harness.port) as sock:
            send_request(sock, QueryRequest(query="Q1", k=3))
            opcode, _ = recv_frame(sock)
            assert opcode == OP_RESPONSE

    def test_disconnect_before_response_read(self, harness):
        with raw_socket(harness.port) as sock:
            send_request(sock, QueryRequest(query="Q1"))
            # Close without reading the response: the server's write hits a
            # dead socket and must absorb it.
        time.sleep(0.05)
        with raw_socket(harness.port) as sock:
            send_request(sock, QueryRequest(query="Q1", k=3))
            opcode, _ = recv_frame(sock)
            assert opcode == OP_RESPONSE

    def test_disconnect_mid_http_head(self, harness):
        with raw_socket(harness.port) as sock:
            sock.sendall(b"POST /v1/query HT")
        with raw_socket(harness.port) as sock:
            send_request(sock, QueryRequest(query="Q1", k=3))
            opcode, _ = recv_frame(sock)
            assert opcode == OP_RESPONSE

    def test_immediate_disconnect(self, harness):
        for _ in range(3):
            raw_socket(harness.port).close()
        with raw_socket(harness.port) as sock:
            sock.sendall(encode_frame(OP_PING))
            assert recv_frame(sock) == (OP_PONG, b"")


# --------------------------------------------------------------------------- #
# Admission control, deadlines, drain
# --------------------------------------------------------------------------- #
def make_slow(server: ReproServer, delay: float) -> None:
    """Make query execution take ``delay`` seconds (runs on worker threads).

    Only requests that evaluate go through ``handle``: a cached answer is
    served on the event loop, so the tests below model slow evaluation by
    sending their slow requests with ``use_cache=False``.
    """
    handler = server._handler
    original = handler.handle

    def slow(request):
        if isinstance(request, QueryRequest):
            time.sleep(delay)
        return original(request)

    handler.handle = slow  # type: ignore[method-assign]


class TestAdmission:
    def test_shed_is_typed_and_immediate(self, service):
        with ServerHarness(
            service, max_inflight=1, max_queue=0, retry_after=0.3
        ) as harness:
            make_slow(harness.server, 1.0)
            with raw_socket(harness.port) as busy, raw_socket(harness.port) as shed:
                send_request(busy, QueryRequest(query="Q1", use_cache=False))
                time.sleep(0.1)  # the slow request now occupies the only slot
                started = time.monotonic()
                send_request(shed, QueryRequest(query="Q2", use_cache=False))
                opcode, payload = recv_frame(shed)
                elapsed = time.monotonic() - started
                error = wire_error_of(payload)
                assert opcode == OP_ERROR
                assert error["code"] == "overloaded"
                assert error["retry_after"] == 0.3
                # Shed, not queued behind the 1s request.
                assert elapsed < 0.5
                # The shed connection stays usable.
                shed.sendall(encode_frame(OP_PING))
                assert recv_frame(shed) == (OP_PONG, b"")
                # The busy connection still gets its answer.
                opcode, _ = recv_frame(busy)
                assert opcode == OP_RESPONSE

    def test_client_raises_typed_overloaded_error(self, service):
        with ServerHarness(service, max_inflight=1, max_queue=0) as harness:
            make_slow(harness.server, 1.0)
            with raw_socket(harness.port) as busy:
                send_request(busy, QueryRequest(query="Q1", use_cache=False))
                time.sleep(0.1)
                with connect("127.0.0.1", harness.port) as client:
                    with pytest.raises(OverloadedError) as info:
                        client.query("Q2", use_cache=False)
                    assert info.value.retry_after > 0
                recv_frame(busy)

    def test_control_plane_bypasses_admission(self, service):
        """Ping and stats answer while the data plane is saturated."""
        with ServerHarness(service, max_inflight=1, max_queue=0) as harness:
            make_slow(harness.server, 1.0)
            with raw_socket(harness.port) as busy:
                send_request(busy, QueryRequest(query="Q1", use_cache=False))
                time.sleep(0.1)
                with connect("127.0.0.1", harness.port) as client:
                    client.health()
                    stats = client.stats()
                assert stats["server"]["inflight"] == 1
                assert stats["server"]["shed"] == 0
                recv_frame(busy)

    def test_timeout_is_typed(self, service):
        with ServerHarness(service, request_timeout=0.2) as harness:
            make_slow(harness.server, 1.5)
            with raw_socket(harness.port) as sock:
                send_request(sock, QueryRequest(query="Q1", use_cache=False))
                opcode, payload = recv_frame(sock)
                assert opcode == OP_ERROR
                assert wire_error_of(payload)["code"] == "timeout"
                # Deadline errors are recoverable: connection stays open.
                sock.sendall(encode_frame(OP_PING))
                assert recv_frame(sock) == (OP_PONG, b"")

    def test_reconfigure_under_load(self, service):
        with ServerHarness(service, max_inflight=1, max_queue=0) as harness:
            make_slow(harness.server, 0.5)
            with raw_socket(harness.port) as busy, raw_socket(harness.port) as second:
                send_request(busy, QueryRequest(query="Q1", use_cache=False))
                time.sleep(0.1)
                harness.call(_reconfigure(harness.server, max_inflight=2))
                send_request(second, QueryRequest(query="Q2", use_cache=False))
                opcode, _ = recv_frame(second)
                assert opcode == OP_RESPONSE
                recv_frame(busy)

    def test_drain_refuses_queued_with_shutting_down(self, service):
        with ServerHarness(service, max_inflight=1, max_queue=4) as harness:
            make_slow(harness.server, 0.8)
            with raw_socket(harness.port) as busy, raw_socket(harness.port) as queued:
                send_request(busy, QueryRequest(query="Q1", use_cache=False))
                time.sleep(0.1)
                send_request(queued, QueryRequest(query="Q2", use_cache=False))
                time.sleep(0.1)  # now queued behind the slow request
                stopper = threading.Thread(target=harness.stop)
                stopper.start()
                try:
                    # The queued request is refused, typed.
                    opcode, payload = recv_frame(queued)
                    assert opcode == OP_ERROR
                    assert wire_error_of(payload)["code"] == "shutting-down"
                    # The in-flight request still completes and is written.
                    opcode, _ = recv_frame(busy)
                    assert opcode == OP_RESPONSE
                finally:
                    stopper.join(15)


# --------------------------------------------------------------------------- #
# Cached answers served on the event loop
# --------------------------------------------------------------------------- #
def served_on_loop(server: ReproServer) -> int:
    return server.server_stats()["served_on_loop"]


def http_query_bytes(port: int, fields: dict) -> bytes:
    """POST /v1/query and return the raw response body."""
    body = canonical_json(fields)
    head = (
        f"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode()
    with raw_socket(port) as sock:
        sock.sendall(head + body)
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    header, _, payload = raw.partition(b"\r\n\r\n")
    assert header.startswith(b"HTTP/1.1 200"), header
    return payload


class TestLoopServedHits:
    def test_cached_query_is_answered_while_the_only_slot_is_busy(self, service):
        request = QueryRequest(query="Q2", k=3)
        expected = encode_message(ApiHandler(service).handle(request))  # warms the cache
        with ServerHarness(service, max_inflight=1, max_queue=0) as harness:
            make_slow(harness.server, 1.0)
            with raw_socket(harness.port) as busy, raw_socket(harness.port) as hot:
                send_request(busy, QueryRequest(query="Q1", use_cache=False))
                time.sleep(0.1)  # the slow miss now occupies the only slot
                started = time.monotonic()
                send_request(hot, request)
                opcode, payload = recv_frame(hot)
                elapsed = time.monotonic() - started
                # Answered, not shed, and not queued behind the 1s request.
                assert opcode == OP_RESPONSE
                assert payload == expected
                assert elapsed < 0.5
                stats = harness.server.server_stats()
                assert stats["shed"] == 0
                assert stats["served_on_loop"] == 1
                opcode, _ = recv_frame(busy)
                assert opcode == OP_RESPONSE

    @pytest.mark.parametrize("dataset_id", DATASET_IDS)
    def test_loop_executor_and_in_process_bytes_identical(self, dataset_id):
        session = Dataspace.from_dataset(dataset_id, h=H)
        with QueryService(session, max_workers=2) as svc, ServerHarness(svc) as harness:
            handler = ApiHandler(svc)
            with raw_socket(harness.port) as sock:
                for query in workload_queries(dataset_id):
                    for k in (None, 2):
                        request = QueryRequest(query=query, k=k)
                        fields = {"query": query} if k is None else {"query": query, "k": k}
                        session.result_cache.clear()
                        before = served_on_loop(harness.server)
                        send_request(sock, request)
                        _, binary_miss = recv_frame(sock)
                        send_request(sock, request)
                        _, binary_hit = recv_frame(sock)
                        http_hit = http_query_bytes(harness.port, fields)
                        session.result_cache.clear()
                        http_miss = http_query_bytes(harness.port, fields)
                        assert served_on_loop(harness.server) - before == 2, (query, k)
                        expected = encode_message(handler.handle(request))
                        assert binary_miss == expected, (query, k)
                        assert binary_hit == expected, (query, k)
                        assert http_hit == expected, (query, k)
                        assert http_miss == expected, (query, k)

    def test_each_request_counts_once(self, dataspace, service, harness):
        hits = 5
        request = QueryRequest(query="Q1", k=4)
        with raw_socket(harness.port) as sock:
            send_request(sock, request)
            recv_frame(sock)  # warm
            cache, stats = dataspace.result_cache.stats(), service.stats()
            loop = served_on_loop(harness.server)
            for _ in range(hits):
                send_request(sock, request)
                assert recv_frame(sock)[0] == OP_RESPONSE
            after_cache, after_stats = dataspace.result_cache.stats(), service.stats()
            assert after_cache.hits - cache.hits == hits
            assert after_cache.misses == cache.misses
            assert after_stats["submitted"] - stats["submitted"] == hits
            assert after_stats["completed"] - stats["completed"] == hits
            assert served_on_loop(harness.server) - loop == hits
            # One miss: probed on the loop uncounted, counted once by the executor.
            send_request(sock, QueryRequest(query="Q1", k=13))
            assert recv_frame(sock)[0] == OP_RESPONSE
            missed_cache, missed_stats = dataspace.result_cache.stats(), service.stats()
            assert missed_cache.misses - after_cache.misses == 1
            assert missed_cache.hits == after_cache.hits
            assert missed_stats["completed"] - after_stats["completed"] == 1
            assert served_on_loop(harness.server) - loop == hits

    @pytest.mark.parametrize("writer", ["holds", "awaits"])
    def test_writer_never_delays_the_loop(self, dataspace, service, harness, writer):
        """A writer mid-write: the loop answers from the last published state."""
        request = QueryRequest(query="Q3", k=2)
        expected = encode_message(ApiHandler(service).handle(request))  # warms the cache
        dataspace._write_lock.acquire()
        waiting = None
        try:
            if writer == "awaits":
                # A second writer queues behind the first; with no arguments
                # configure() republishes the same state once it gets in.
                waiting = threading.Thread(target=dataspace.configure)
                waiting.start()
            with raw_socket(harness.port) as sock, raw_socket(harness.port) as control:
                before = served_on_loop(harness.server)
                send_request(sock, request)
                assert recv_frame(sock) == (OP_RESPONSE, expected)
                assert served_on_loop(harness.server) == before + 1
                control.sendall(encode_frame(OP_PING))
                assert recv_frame(control) == (OP_PONG, b"")
            if waiting is not None:
                assert waiting.is_alive()
        finally:
            dataspace._write_lock.release()
            if waiting is not None:
                waiting.join(10)
                assert not waiting.is_alive()

    def test_unseen_text_is_prepared_off_the_loop(self, dataspace, harness, monkeypatch):
        text = "purchaseOrder/orderHeader"
        assert dataspace.cached(text) is None
        threads = []
        original = dataspace.prepare

        def recording_prepare(query):
            threads.append(threading.current_thread())
            return original(query)

        monkeypatch.setattr(dataspace, "prepare", recording_prepare)
        before = served_on_loop(harness.server)
        with raw_socket(harness.port) as sock:
            send_request(sock, QueryRequest(query=text, k=2))
            assert recv_frame(sock)[0] == OP_RESPONSE
        assert served_on_loop(harness.server) == before
        assert threads and harness.thread not in threads


async def _reconfigure(server: ReproServer, **kwargs) -> None:
    server.reconfigure(**kwargs)


# --------------------------------------------------------------------------- #
# Streaming
# --------------------------------------------------------------------------- #
class TestStreaming:
    def test_stream_reassembles_to_unstreamed_bytes(self, harness):
        request = QueryRequest(query="Q1", k=5)
        with raw_socket(harness.port) as sock:
            send_request(sock, request)
            opcode, unstreamed = recv_frame(sock)
            assert opcode == OP_RESPONSE

            send_request(sock, QueryRequest(query="Q1", k=5, stream=True))
            answers = []
            while True:
                opcode, payload = recv_frame(sock)
                if opcode == OP_STREAM_ITEM:
                    answers.append(json.loads(payload))
                    continue
                assert opcode == OP_STREAM_END
                envelope = json.loads(payload)
                break
        envelope["body"]["result"]["answers"] = answers
        assert canonical_json(envelope) == unstreamed

    def test_client_stream_top_k(self, harness, dataspace):
        local = dataspace.execute("Q1", k=5)
        with connect("127.0.0.1", harness.port) as client:
            streamed = list(client.stream_top_k("Q1", k=5))
        assert [a.mapping_id for a in streamed] == sorted(
            a.mapping_id for a in local
        )


# --------------------------------------------------------------------------- #
# HTTP surface
# --------------------------------------------------------------------------- #
def http_exchange(port: int, request: bytes) -> tuple[int, dict]:
    with raw_socket(port) as sock:
        sock.sendall(request)
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(body) if body else {}


#: Request bodies with a field of the wrong JSON type.
MISTYPED_BODIES = [
    pytest.param("query", {"query": "Q1", "k": "3"}, id="k-string"),
    pytest.param("query", {"query": "Q1", "k": True}, id="k-bool"),
    pytest.param("query", {"query": "Q1", "k": 2.0}, id="k-float"),
    pytest.param("query", {"query": "Q1", "use_cache": "no"}, id="use_cache-string"),
    pytest.param("query", {"query": 5}, id="query-int"),
    pytest.param("query", {"query": "Q1", "plan": 1}, id="plan-int"),
    pytest.param("batch", {"queries": "Q1"}, id="queries-string"),
    pytest.param("batch", {"queries": ["Q1", 2]}, id="queries-item-int"),
    pytest.param("apply-delta", {"delta": ["x"]}, id="delta-array"),
]


class TestHttp:
    @pytest.mark.parametrize("op, body", MISTYPED_BODIES)
    def test_mistyped_field_is_bad_request(self, harness, service, op, body):
        envelope = canonical_json({"v": PROTOCOL_VERSION, "op": op, "body": body})
        with pytest.raises(BadRequestError, match="must be"):
            ApiHandler(service).handle(decode_request(envelope))
        payload = canonical_json(body)
        status, reply = http_exchange(
            harness.port,
            f"POST /v1/{op} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload,
        )
        assert status == 400
        assert reply["body"]["error"]["code"] == "bad-request"

    def test_calibrate_shard_counts_is_bad_request(self, harness, service):
        # The cost model and its calibrate operation are gone: a calibrate
        # request, with or without the older shard-count field, gets a typed
        # error in process and over HTTP, never a silent ignore.
        for body in ({"query": "Q1", "shard_counts": [4]}, {"query": "Q1"}):
            self._assert_bad_request(harness, service, "calibrate", body, "calibrate")

    def test_explain_analyze_is_bad_request(self, harness, service):
        body = {"query": "Q1", "analyze": True}
        self._assert_bad_request(harness, service, "explain", body, "analyze")

    @staticmethod
    def _assert_bad_request(harness, service, op, body, names):
        envelope = canonical_json({"v": PROTOCOL_VERSION, "op": op, "body": body})
        with pytest.raises(BadRequestError, match=names):
            ApiHandler(service).handle(decode_request(envelope))
        payload = canonical_json(body)
        status, reply = http_exchange(
            harness.port,
            f"POST /v1/{op} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload,
        )
        assert status == 400
        assert reply["body"]["error"]["code"] == "bad-request"
        assert names in reply["body"]["error"]["message"]

    def test_health(self, harness):
        status, payload = http_exchange(
            harness.port, b"GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        assert status == 200
        assert payload["op"] == "ping"

    def test_unknown_path_is_400(self, harness):
        status, payload = http_exchange(
            harness.port, b"GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        assert status == 400
        assert payload["body"]["error"]["code"] == "bad-request"

    def test_malformed_request_line_is_400_protocol(self, harness):
        status, payload = http_exchange(harness.port, b"BLORP\r\n\r\n")
        assert status == 400
        assert payload["body"]["error"]["code"] == "protocol"

    def test_overload_is_429_with_retry_after(self, service):
        with ServerHarness(
            service, max_inflight=1, max_queue=0, retry_after=0.4
        ) as harness:
            make_slow(harness.server, 1.0)
            with raw_socket(harness.port) as busy:
                send_request(busy, QueryRequest(query="Q1", use_cache=False))
                time.sleep(0.1)
                body = canonical_json({"query": "Q2", "use_cache": False})
                head = (
                    f"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                ).encode()
                with raw_socket(harness.port) as sock:
                    sock.sendall(head + body)
                    raw = b""
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        raw += chunk
                assert raw.startswith(b"HTTP/1.1 429")
                assert b"Retry-After: 0.4" in raw
                recv_frame(busy)
