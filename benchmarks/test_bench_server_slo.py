"""Serving SLO gate: remote latency vs in-process execution, and typed shed.

Two phases against the same warm :class:`~repro.service.QueryService`:

* **baseline** — 32 closed-loop threads calling the in-process
  :class:`~repro.api.handler.ApiHandler` directly (cache-bypassing, on a
  mapping set and plan sized so evaluation takes milliseconds — the SLO
  compares serving overhead against real work, not against dictionary
  lookups that any transport would dwarf);
* **server** — the same 32 closed-loop threads, each over its own binary
  protocol connection to a :class:`~repro.net.ReproServer` with admission
  sized so nothing sheds.  The measured loop speaks raw frames (pre-encoded
  request bytes out, response bytes in) so the gate times the *server* —
  framing, event loop, admission, executor handoff, response encoding — and
  not the calling thread's own JSON parsing, which in this single-process
  setup would steal the GIL from the system under test.

Both phases carry identical contention (same thread count, same GIL), so
their difference is transport.  The acceptance bar is the serving contract
from docs/serving.md — **remote p99 within 5x the warm in-process median at
32 concurrent connections**.

A third phase pins the overload contract: a deliberately under-provisioned
server (one slot, no queue) under the same closed-loop barrage must answer
every request *immediately* — success or typed
:class:`~repro.api.OverloadedError` with a retry hint — never a hang or a
timeout.

A second gate times the hot path the SLO gate bypasses: over one connection
speaking raw frames, a **cached query's round trip costs at most 4.5x a ping's**
(median per-round ratio of alternating passes).  A ping is answered on the
event loop without touching the engine, so the ratio is what serving a
cached answer adds to the bare transport: the lookup, the response's encoded
bytes and, unless hits are answered on the loop, an executor hop.

Environment knobs
-----------------
``REPRO_BENCH_SLO_CONNECTIONS``
    Concurrent connections/threads (default 32).
``REPRO_BENCH_SLO_REQUESTS``
    Requests per connection per phase (default 25).
"""

from __future__ import annotations

import asyncio
import os
import socket
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api import OverloadedError, QueryRequest, encode_message
from repro.api.handler import ApiHandler
from repro.engine import Dataspace
from repro.net import ReproServer, connect
from repro.net.framing import (
    HEADER_SIZE,
    OP_PING,
    OP_PONG,
    OP_REQUEST,
    OP_RESPONSE,
    decode_header,
    encode_frame,
)
from repro.service import QueryService, workload_queries

from _workloads import paired_rounds, ratio_spread

#: Remote p99 must stay within this factor of the warm in-process median.
MAX_P99_FACTOR = 5.0
#: Dataset, mapping-set size and plan: |M|=1000 under the uncompiled basic
#: plan costs ~5 ms/query, so evaluation dominates transport.
DATASET = "D1"
SLO_H = 1000
SLO_PLAN = "basic"

CONNECTIONS = int(os.environ.get("REPRO_BENCH_SLO_CONNECTIONS", "32"))
REQUESTS_PER_CONNECTION = int(os.environ.get("REPRO_BENCH_SLO_REQUESTS", "25"))

#: A cached query's round trip must stay within this factor of a ping's.
MAX_CACHED_RT_FACTOR = 4.5
#: The hot request: remote-hot's most frequent key (D7, |M|=100, Q1 top-10).
HOT_H = 100
HOT_QUERY = "Q1"
HOT_K = 10
#: Alternating rounds, passes per side per round, round trips per pass.
RT_ROUNDS = 10
RT_PASSES = 4
RT_TRIPS = 50


class _LoopThread:
    """A ReproServer on a dedicated event-loop thread (benchmark harness)."""

    def __init__(self, server: ReproServer) -> None:
        self.server = server
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(server.start(), self.loop).result(30)

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def recv_exact(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("server closed the connection")
        data += chunk
    return data


def _closed_loop(worker, num_threads: int) -> list[float]:
    """Run ``worker(thread_index)`` on ``num_threads`` threads, merge latencies."""
    with ThreadPoolExecutor(max_workers=num_threads) as pool:
        chunks = list(pool.map(worker, range(num_threads)))
    return [sample for chunk in chunks for sample in chunk]


def test_server_slo(benchmark, experiment_report):
    session = Dataspace.from_dataset(DATASET, h=SLO_H)
    session.snapshot(need_tree=False)
    queries = workload_queries(DATASET, limit=5)

    with QueryService(session, max_workers=CONNECTIONS) as service:
        handler = ApiHandler(service)

        def in_process_worker(index: int) -> list[float]:
            samples = []
            for i in range(REQUESTS_PER_CONNECTION):
                request = QueryRequest(
                    query=queries[(index + i) % len(queries)],
                    plan=SLO_PLAN,
                    use_cache=False,
                )
                started = time.perf_counter()
                handler.handle(request)
                samples.append(time.perf_counter() - started)
            return samples

        # Warm-up then measured pass, both closed-loop at full concurrency.
        _closed_loop(in_process_worker, CONNECTIONS)
        baseline = _closed_loop(in_process_worker, CONNECTIONS)

        harness = _LoopThread(
            ReproServer(
                service,
                max_inflight=CONNECTIONS,
                max_queue=CONNECTIONS,
                request_timeout=60.0,
            )
        )
        try:
            port = harness.server.port
            frames = [
                encode_frame(
                    OP_REQUEST,
                    encode_message(
                        QueryRequest(query=query, plan=SLO_PLAN, use_cache=False)
                    ),
                )
                for query in queries
            ]

            def server_worker(index: int) -> list[float]:
                samples = []
                with socket.create_connection(("127.0.0.1", port), 60.0) as sock:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    for i in range(REQUESTS_PER_CONNECTION):
                        frame = frames[(index + i) % len(frames)]
                        started = time.perf_counter()
                        sock.sendall(frame)
                        opcode, length = decode_header(
                            recv_exact(sock, HEADER_SIZE), max_payload=1 << 30
                        )
                        recv_exact(sock, length)
                        samples.append(time.perf_counter() - started)
                        assert opcode == OP_RESPONSE
                return samples

            _closed_loop(server_worker, CONNECTIONS)  # warm-up
            remote: list[float] = []

            def measured_round():
                remote.extend(_closed_loop(server_worker, CONNECTIONS))

            benchmark.pedantic(measured_round, rounds=1, iterations=1)
            stats = harness.server.server_stats()
        finally:
            harness.stop()

        # ------------------------------------------------------------------ #
        # Overload: an under-provisioned server sheds typed, never hangs.
        # ------------------------------------------------------------------ #
        shed_harness = _LoopThread(
            ReproServer(service, max_inflight=1, max_queue=0, retry_after=0.05)
        )
        served = shed = 0
        lock = threading.Lock()
        try:
            shed_port = shed_harness.server.port

            def overload_worker(index: int) -> list[float]:
                nonlocal served, shed
                with connect("127.0.0.1", shed_port, timeout=10.0) as client:
                    for i in range(REQUESTS_PER_CONNECTION):
                        started = time.perf_counter()
                        try:
                            client.query(
                                queries[(index + i) % len(queries)],
                                plan=SLO_PLAN,
                                use_cache=False,
                            )
                            with lock:
                                served += 1
                        except OverloadedError as error:
                            assert error.retry_after > 0
                            with lock:
                                shed += 1
                        # Every answer (served or shed) is prompt: the 10s
                        # client deadline above would raise on a hang.
                        assert time.perf_counter() - started < 10.0
                return []

            _closed_loop(overload_worker, CONNECTIONS)
            shed_stats = shed_harness.server.server_stats()
        finally:
            shed_harness.stop()

    baseline_median = statistics.median(baseline)
    remote_median = statistics.median(remote)
    remote_p99 = percentile(remote, 0.99)
    budget = MAX_P99_FACTOR * baseline_median

    benchmark.extra_info["connections"] = CONNECTIONS
    benchmark.extra_info["requests"] = len(remote)
    benchmark.extra_info["baseline_median_ms"] = baseline_median * 1e3
    benchmark.extra_info["remote_median_ms"] = remote_median * 1e3
    benchmark.extra_info["remote_p99_ms"] = remote_p99 * 1e3
    benchmark.extra_info["p99_factor"] = remote_p99 / baseline_median
    benchmark.extra_info["shed"] = shed

    report = experiment_report(
        "server_slo",
        f"Binary-protocol serving SLO ({CONNECTIONS} connections, "
        f"{DATASET}, |M|={SLO_H}, uncached)",
    )
    report.add_row(
        "in-process", f"median={baseline_median * 1e3:.2f} ms (closed loop)"
    )
    report.add_row(
        "server",
        f"median={remote_median * 1e3:.2f} ms  p99={remote_p99 * 1e3:.2f} ms "
        f"({len(remote)} requests)",
    )
    report.add_row(
        "p99 budget",
        f"{remote_p99 * 1e3:.2f} ms <= {budget * 1e3:.2f} ms "
        f"({MAX_P99_FACTOR:g}x in-process median)",
    )
    report.add_row("overload", f"served={served} shed={shed} (all typed, none hung)")

    # No request was shed in the provisioned phase...
    assert stats["shed"] == 0
    assert len(remote) == CONNECTIONS * REQUESTS_PER_CONNECTION
    # ...while the under-provisioned phase actually exercised shedding.
    assert shed > 0, "overload phase never shed; the gate proved nothing"
    assert served + shed == CONNECTIONS * REQUESTS_PER_CONNECTION
    assert shed_stats["shed"] >= shed
    assert remote_p99 <= budget, (
        f"remote p99 {remote_p99 * 1e3:.2f} ms exceeds {MAX_P99_FACTOR:g}x the "
        f"in-process median {baseline_median * 1e3:.2f} ms at "
        f"{CONNECTIONS} connections"
    )


def test_cached_round_trip_vs_ping(benchmark, experiment_report):
    session = Dataspace.from_dataset("D7", h=HOT_H)
    with QueryService(session, max_workers=2) as service:
        harness = _LoopThread(ReproServer(service))
        try:
            query_frame = encode_frame(
                OP_REQUEST, encode_message(QueryRequest(query=HOT_QUERY, k=HOT_K))
            )
            ping_frame = encode_frame(OP_PING)
            with socket.create_connection(("127.0.0.1", harness.server.port), 30.0) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

                def round_trips(frame: bytes, expected: int) -> None:
                    for _ in range(RT_TRIPS):
                        sock.sendall(frame)
                        opcode, length = decode_header(
                            recv_exact(sock, HEADER_SIZE), max_payload=1 << 30
                        )
                        recv_exact(sock, length)
                        assert opcode == expected

                def query_pass() -> None:
                    round_trips(query_frame, OP_RESPONSE)

                def ping_pass() -> None:
                    round_trips(ping_frame, OP_PONG)

                query_pass()  # the first request fills the result cache
                pairs = paired_rounds(RT_ROUNDS, query_pass, ping_pass, passes=RT_PASSES)
                benchmark.pedantic(query_pass, rounds=1, iterations=1)
        finally:
            harness.stop()

    spread = ratio_spread(pairs)
    ratio = spread["median"]
    trips = RT_PASSES * RT_TRIPS
    query_us = statistics.median(first for first, _ in pairs) / trips * 1e6
    ping_us = statistics.median(second for _, second in pairs) / trips * 1e6
    benchmark.extra_info["cached_rt_us"] = query_us
    benchmark.extra_info["ping_rt_us"] = ping_us
    benchmark.extra_info["cached_rt_ratio"] = ratio
    benchmark.extra_info["ratio_spread"] = spread

    report = experiment_report(
        "cached_round_trip",
        f"cached query vs ping round trip (one connection, raw frames, D7, "
        f"|M|={HOT_H}, {HOT_QUERY} k={HOT_K})",
    )
    report.add_row("cached query", f"{query_us:8.1f} us per round trip (median round)")
    report.add_row("ping", f"{ping_us:8.1f} us per round trip (median round)")
    report.add_row(
        "ratio",
        f"{ratio:.2f}x median, {spread['min']:.2f}-{spread['max']:.2f}x over "
        f"{spread['rounds']} rounds (required <= {MAX_CACHED_RT_FACTOR:g}x)",
    )
    assert ratio <= MAX_CACHED_RT_FACTOR, (
        f"a cached query's round trip costs {ratio:.2f}x a ping's "
        f"({query_us:.0f} us vs {ping_us:.0f} us)"
    )
